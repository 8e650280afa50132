"""Paths inside the checkout, the child-process environment and the host fingerprint."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

__all__ = [
    "ROOT",
    "SRC",
    "WORK",
    "MissingProgram",
    "require_program",
    "child_env",
    "source_digest",
    "fingerprint",
    "maxrss_mb",
]

#: Root of the checkout (``perfbench/qoebench/env.py`` → two levels up).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Build and scratch outputs of the benchmark (ignored by git).
WORK = ROOT / ".bench_build" / "perfbench"


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def require_program() -> None:
    """Put ``src`` on ``sys.path``; raise if the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for benchmark child processes.

    ``REPRO_*`` overrides (feature cache directory, engine choice) are
    dropped so every run measures the program's defaults, and ``src`` is
    put on the import path for spawned shard workers.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    """SHA-256 over every file under ``src`` (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> Optional[str]:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def maxrss_mb(who: int) -> float:
    """Peak resident set size of ``RUSAGE_SELF`` or ``RUSAGE_CHILDREN``, in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def fingerprint(workload: str, seed: int, traced: bool) -> Dict[str, object]:
    """What a result depends on besides the code: host, versions, load, seed."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "loadavg_start": list(os.getloadavg()),
    }
