"""Persistent on-disk result cache for sweep jobs.

Results are keyed by a SHA-256 content hash of the full job description
*plus a code-version salt* — a hash over the source of every ``repro``
module that can influence a pipeline result.  Editing the compiler, the
simulator, or the resource models therefore invalidates every cached row
automatically; editing the sweep machinery itself (which only schedules
work) does not.

Each entry is one JSON file ``<cache_dir>/<key[:2]>/<key>.json`` written
atomically, so concurrent sweeps sharing a cache directory can never
observe a torn entry.  Only successful results are cached — failures are
always retried on the next sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from ..pipeline import TechniqueResult
from .job import SweepJob

#: Bump to force a global cache invalidation on semantic changes that the
#: source hash cannot see (e.g. a data-file change).
CACHE_SCHEMA_VERSION = 1

_code_salt_cache: Optional[str] = None


def default_cache_dir() -> Path:
    """``$REPRO_SWEEP_CACHE`` or ``~/.cache/crush-repro/sweep``."""
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return Path(xdg) / "crush-repro" / "sweep"


def code_salt() -> str:
    """Hash of every repro source file that can affect a pipeline result.

    The ``sweep`` package itself is excluded: it orchestrates jobs but
    cannot change what ``run_technique`` computes.
    """
    global _code_salt_cache
    if _code_salt_cache is None:
        pkg_root = Path(__file__).resolve().parent.parent
        sweep_root = pkg_root / "sweep"
        digest = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            if sweep_root in path.parents:
                continue
            digest.update(str(path.relative_to(pkg_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_salt_cache = digest.hexdigest()
    return _code_salt_cache


def cache_key(job: SweepJob, salt: Optional[str] = None) -> str:
    """Deterministic content hash of a job description + code version."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "salt": code_salt() if salt is None else salt,
        "job": job.to_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Content-addressed store of ``TechniqueResult`` rows on disk."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 salt: Optional[str] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.salt = code_salt() if salt is None else salt

    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def key_for(self, job: SweepJob) -> str:
        return cache_key(job, salt=self.salt)

    def get(self, job: SweepJob) -> Optional[TechniqueResult]:
        path = self._path(self.key_for(job))
        try:
            data = json.loads(path.read_text())
            return TechniqueResult.from_dict(data["result"])
        except (OSError, ValueError, KeyError):
            # Missing, torn, or schema-incompatible entry: treat as a miss.
            return None

    def put(self, job: SweepJob, result: TechniqueResult) -> Path:
        key = self.key_for(job)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry: Dict[str, Any] = {
            "key": key,
            "schema": CACHE_SCHEMA_VERSION,
            "job": job.to_dict(),
            "result": result.to_dict(),
        }
        # Atomic publish: concurrent writers race benignly (same content).
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(entry, f, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
