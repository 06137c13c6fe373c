"""Schema validation for observability artifacts.

Importable by the test suite and runnable as a script — the Makefile's
``trace-smoke`` target points it at the files a tiny traced sweep just
wrote:

    python tests/trace_schema.py --trace t.jsonl --chrome t.json \
        --metrics m.json --manifest t.manifest.json

Each ``validate_*`` function returns the number of validated entries
and raises :class:`SchemaError` with a precise message on the first
violation, so CI failures point at the offending line/key.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

__all__ = [
    "SchemaError",
    "validate_span",
    "validate_trace_jsonl",
    "validate_chrome_trace",
    "validate_metrics_snapshot",
    "validate_manifest",
    "main",
]

SPAN_REQUIRED_FIELDS = {
    "type": str,
    "schema": int,
    "name": str,
    "span_id": int,
    "pid": int,
    "ts": (int, float),
    "dur": (int, float),
    "attrs": dict,
}


class SchemaError(ValueError):
    """An observability artifact violated its documented schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def validate_span(record: Dict[str, Any], *, where: str = "span") -> None:
    """Validate one decoded JSONL span object."""
    for field, types in SPAN_REQUIRED_FIELDS.items():
        _require(field in record, f"{where}: missing field {field!r}")
        _require(
            isinstance(record[field], types),
            f"{where}: field {field!r} has type "
            f"{type(record[field]).__name__}",
        )
    _require(
        record["type"] == "span", f"{where}: type must be 'span'"
    )
    _require(record["schema"] == 1, f"{where}: unknown schema {record['schema']}")
    _require(record["dur"] >= 0, f"{where}: negative duration")
    parent = record.get("parent_id")
    _require(
        parent is None or isinstance(parent, int),
        f"{where}: parent_id must be int or null",
    )
    peak = record.get("peak_mem")
    _require(
        peak is None or isinstance(peak, int),
        f"{where}: peak_mem must be int or null",
    )


def validate_trace_jsonl(path: Path) -> int:
    """Validate a ``--trace out.jsonl`` file; returns the span count."""
    count = 0
    ids = set()
    parents = []
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: not JSON ({exc})")
            validate_span(record, where=f"{path}:{lineno}")
            _require(
                record["span_id"] not in ids,
                f"{path}:{lineno}: duplicate span_id {record['span_id']}",
            )
            ids.add(record["span_id"])
            if record.get("parent_id") is not None:
                parents.append((lineno, record["parent_id"]))
            count += 1
    _require(count > 0, f"{path}: no spans recorded")
    for lineno, parent in parents:
        _require(
            parent in ids,
            f"{path}:{lineno}: parent_id {parent} matches no span",
        )
    return count


def validate_chrome_trace(path: Path) -> int:
    """Validate a Chrome ``trace_event`` JSON file; returns event count."""
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not JSON ({exc})")
    _require(isinstance(document, dict), f"{path}: top level must be an object")
    _require("traceEvents" in document, f"{path}: missing traceEvents")
    events = document["traceEvents"]
    _require(isinstance(events, list), f"{path}: traceEvents must be a list")
    _require(len(events) > 0, f"{path}: no trace events")
    complete = 0
    for index, event in enumerate(events):
        where = f"{path}: traceEvents[{index}]"
        _require(isinstance(event, dict), f"{where}: not an object")
        for field in ("ph", "pid", "name"):
            _require(field in event, f"{where}: missing {field!r}")
        _require(
            event["ph"] in ("X", "i", "M"),
            f"{where}: unexpected phase {event['ph']!r}",
        )
        if event["ph"] == "X":
            complete += 1
            for field in ("ts", "dur", "tid"):
                _require(field in event, f"{where}: missing {field!r}")
            _require(event["ts"] >= 0, f"{where}: negative ts")
            _require(event["dur"] >= 0, f"{where}: negative dur")
    _require(complete > 0, f"{path}: no complete ('X') events")
    return len(events)


def validate_metrics_snapshot(path: Path) -> int:
    """Validate a ``--metrics m.json`` snapshot; returns instrument count."""
    try:
        snapshot = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not JSON ({exc})")
    _require(isinstance(snapshot, dict), f"{path}: top level must be an object")
    _require(snapshot.get("schema") in (1, 2), f"{path}: unknown schema")
    for section in ("counters", "gauges", "histograms"):
        _require(section in snapshot, f"{path}: missing {section!r}")
        _require(
            isinstance(snapshot[section], dict),
            f"{path}: {section} must be an object",
        )
    for name, value in snapshot["counters"].items():
        _require(
            isinstance(value, (int, float)) and value >= 0,
            f"{path}: counter {name!r} must be a non-negative number",
        )
    for name, value in snapshot["gauges"].items():
        _require(
            isinstance(value, (int, float)),
            f"{path}: gauge {name!r} must be a number",
        )
    for name, hist in snapshot["histograms"].items():
        where = f"{path}: histogram {name!r}"
        _require(isinstance(hist, dict), f"{where}: not an object")
        for field in ("buckets", "counts", "count", "sum"):
            _require(field in hist, f"{where}: missing {field!r}")
        _require(
            len(hist["counts"]) == len(hist["buckets"]) + 1,
            f"{where}: counts must have len(buckets)+1 entries",
        )
        _require(
            sum(hist["counts"]) == hist["count"],
            f"{where}: bucket counts do not sum to count",
        )
        if snapshot["schema"] >= 2:
            # v2 adds observed extremes; null only when the histogram
            # is empty (or merged from a v1 snapshot).
            for field in ("min", "max"):
                _require(field in hist, f"{where}: missing {field!r}")
                _require(
                    hist[field] is None
                    or isinstance(hist[field], (int, float)),
                    f"{where}: {field} must be a number or null",
                )
    return (
        len(snapshot["counters"])
        + len(snapshot["gauges"])
        + len(snapshot["histograms"])
    )


MANIFEST_REQUIRED_FIELDS = (
    "schema",
    "created_unix",
    "command",
    "argv",
    "python",
    "platform",
    "cpu_count",
    "env",
)


def validate_manifest(path: Path) -> int:
    """Validate a ``*.manifest.json``; returns the number of fields."""
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not JSON ({exc})")
    _require(isinstance(manifest, dict), f"{path}: top level must be an object")
    for field in MANIFEST_REQUIRED_FIELDS:
        _require(field in manifest, f"{path}: missing {field!r}")
    _require(manifest["schema"] == 1, f"{path}: unknown schema")
    if "config_sha256" in manifest:
        digest = manifest["config_sha256"]
        _require(
            isinstance(digest, str) and len(digest) == 64,
            f"{path}: config_sha256 must be a sha256 hex digest",
        )
    return len(manifest)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="validate observability artifact schemas"
    )
    parser.add_argument("--trace", default=None, help="JSONL trace to check")
    parser.add_argument("--chrome", default=None, help="Chrome trace to check")
    parser.add_argument("--metrics", default=None, help="metrics snapshot")
    parser.add_argument("--manifest", default=None, help="run manifest")
    args = parser.parse_args(list(argv) if argv is not None else None)
    checks = [
        (args.trace, validate_trace_jsonl, "spans"),
        (args.chrome, validate_chrome_trace, "events"),
        (args.metrics, validate_metrics_snapshot, "instruments"),
        (args.manifest, validate_manifest, "fields"),
    ]
    ran = 0
    for target, validator, unit in checks:
        if target is None:
            continue
        count = validator(Path(target))
        print(f"ok: {target} ({count} {unit})")
        ran += 1
    if not ran:
        parser.error("nothing to validate; pass at least one artifact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
