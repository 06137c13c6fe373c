"""The repository benchmark: one workload per run, metrics as JSON.

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and imports the program from its
``src/``.  With ``--trace 0`` the last line of standard output carries
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it
carries every per-layer metric, from a separate run in which the calls
into each layer are wrapped in spans.  The line before it records the
run's provenance.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("serve-steady", "serve-drift", "paper-sweep")
# Knobs that would fan work out to other processes, open a socket, start
# a sampling profiler or turn the program's own telemetry on.
CLEARED_ENV = (
    "REPRO_WORKERS",
    "REPRO_METRICS_PORT",
    "REPRO_PROFILE",
    "REPRO_TRACE",
    "REPRO_METRICS",
    "REPRO_METRICS_STREAM",
)
# Per-layer self times: a span's duration minus its timed children.
SELF_TIMES = {
    "serve.loop_self_s": "serve.run",
    "serve.epoch_other_s": "serve.epoch",
    "runner.self_s": "runner.run",
}


def git_revision() -> Any:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def layer_value(name: str, summary: Dict, counts: Dict, extra: Dict) -> float:
    """A per-layer metric from the recorded spans and counts.

    ``<span>_s`` is inclusive time in that span, ``<span>_calls`` its
    call count and any other name a count; a layer the workload never
    enters reads 0.
    """
    if name in extra:
        return extra[name]
    if name in SELF_TIMES:
        return summary.get(SELF_TIMES[name], (0, 0.0, 0.0))[2]
    if name.endswith("_s"):
        return summary.get(name[:-2], (0, 0.0, 0.0))[1]
    if name.endswith("_calls"):
        return summary.get(name[:-6], (0, 0.0, 0.0))[0]
    return counts.get(name, 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy
    from repro import obs
    from repro.core.kernels import HAS_NUMBA

    from common import Tally, check_paper_example

    if obs.tracing_enabled() or obs.get_metrics().enabled:
        print("perfbench: the program's telemetry is on", file=sys.stderr)
        return 2

    if args.workload == "paper-sweep":
        from sweeping import SweepWorkload

        workload = SweepWorkload(args.seed, ROOT)
    else:
        from serving import ServeWorkload

        workload = ServeWorkload(args.workload, args.seed, SCRATCH)
    try:
        check_paper_example(workload.tally)
        if args.trace:
            extra = workload.trace()
            summary = workload.recorder.summary()
            counts = workload.recorder.counts
            metrics = {
                entry["name"]: {
                    "value": layer_value(entry["name"], summary, counts, extra),
                    "unit": entry["unit"],
                }
                for entry in spec["per_layer"]
            }
            breakdown = {
                name: {"calls": calls, "inclusive_s": incl, "self_s": own}
                for name, (calls, incl, own) in sorted(summary.items())
            }
            print(json.dumps({"spans": breakdown, "counts": dict(counts)}))
        else:
            values = workload.measure(args.seconds)
            tally: Tally = workload.tally
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            values["ops_ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
            metrics = {
                entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
                for entry in spec["end_to_end"]
            }
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "git_revision": git_revision(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "has_numba": HAS_NUMBA,
            "samples": workload.samples,
            "problems": workload.tally.problems,
            **workload.provenance(),
        }
    finally:
        workload.close()
    print(json.dumps({"provenance": provenance}))
    tally = workload.tally
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
