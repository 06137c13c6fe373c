"""Per-run manifests: the provenance record next to experiment outputs.

A manifest answers "what exactly produced this file?" — seeds, a stable
hash of the experiment configuration, the git revision, the numpy
version, CPU count and the ``REPRO_*`` environment — so a trace,
metrics snapshot, CSV or report can be tied back to the code and
parameters that generated it.  The git revision degrades to ``None``
outside a git checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "config_digest",
    "git_revision",
    "build_manifest",
    "write_manifest",
]

#: Version stamp written into every manifest.
MANIFEST_SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of configs to JSON-stable structures."""
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_digest(config: Any) -> str:
    """A stable SHA-256 over the canonical JSON form of ``config``.

    Dataclasses (e.g. :class:`~repro.experiments.config.ExperimentConfig`)
    are converted via ``asdict``; two runs with identical parameters get
    identical digests regardless of field order.
    """
    canonical = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Per-process ``git_revision`` cache, keyed by the resolved cwd.  The
#: revision cannot change under a running process in any supported
#: workflow, and shelling out to git once per sweep cell (every
#: ``build_manifest`` under ``--trace``) is measurable at small cells.
_GIT_REVISION_CACHE: Dict[Optional[str], Optional[str]] = {}


def git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current ``git rev-parse HEAD``, or ``None`` when unavailable.

    Cached per-process (per ``cwd``): repeated manifest builds — one
    per sweep cell under ``--trace`` — reuse the first lookup instead
    of forking a git subprocess each time.
    """
    cache_key = str(Path(cwd).resolve()) if cwd is not None else None
    if cache_key in _GIT_REVISION_CACHE:
        return _GIT_REVISION_CACHE[cache_key]
    revision = _git_revision_uncached(cwd)
    _GIT_REVISION_CACHE[cache_key] = revision
    return revision


def _git_revision_uncached(
    cwd: Optional[Union[str, Path]] = None,
) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def build_manifest(
    *,
    command: Optional[str] = None,
    config: Any = None,
    seed: Optional[int] = None,
    outputs: Optional[Dict[str, str]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the manifest dict for one run.

    Parameters
    ----------
    command:
        Human-readable description of the invocation (typically the CLI
        argv joined back together).
    config:
        The experiment/workload configuration; recorded verbatim
        (JSON-converted) together with its :func:`config_digest`.
    seed:
        The primary workload seed, when the run has a single one.
    outputs:
        Logical name -> path of the files written alongside this
        manifest (trace, metrics, csv, ...).
    extra:
        Free-form additions (e.g. worker count, figure id).
    """
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "command": command,
        "argv": list(sys.argv),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_rev": git_revision(Path(__file__).resolve().parents[3]),
        "numpy": np.__version__,
        "env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
        "seed": seed,
    }
    if config is not None:
        manifest["config"] = _jsonable(config)
        manifest["config_sha256"] = config_digest(config)
    if outputs:
        manifest["outputs"] = dict(outputs)
    if extra:
        manifest.update(_jsonable(extra))
    return manifest


def write_manifest(path: Union[str, Path], manifest: Dict[str, Any]) -> None:
    """Write ``manifest`` as indented JSON to ``path``."""
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True))
