"""offline-paper: the encrypted-traffic tables of the paper, from a cold process.

One *pipeline* is a fresh interpreter that imports ``repro``, builds a
``Workspace`` and runs Tab. 8/9, Tab. 10/11 and §5.6 — generating the
cleartext, adaptive and encrypted corpora, fitting both forests,
calibrating the CUSUM threshold and scoring the encrypted sessions.  A
fresh process per pipeline keeps the in-memory feature-matrix cache
cold, as it is for a user's first run.

Correctness: every pipeline of a run must produce the same accuracies
and the same digest of its per-session encrypted diagnoses, and at the
full size a seed listed in ``expected_offline.json`` must reproduce the
recorded values exactly.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from pathlib import Path
from typing import Dict, List, Optional

from .env import maxrss_mb

__all__ = [
    "EXPERIMENTS",
    "SIZES",
    "EXPECTED_PATH",
    "pipeline",
    "expected_for",
    "check_pipelines",
]

EXPERIMENTS = ("tab8_9", "tab10_11", "sec56")

#: (cleartext, adaptive, encrypted sessions, trees).  ``full`` is the
#: measured size; ``tiny`` only exercises the code path in tests.
SIZES = {
    "full": (1500, 800, 400, 40),
    "tiny": (60, 40, 30, 5),
}

EXPECTED_PATH = Path(__file__).with_name("expected_offline.json")

BEHAVIOUR_KEYS = ("enc_stall_acc", "enc_rep_acc", "enc_switch_bacc", "digest")


def _diagnosis_digest(workspace) -> str:
    """SHA-256 of every encrypted session's stall, representation and switch call."""
    stall_records = workspace.encrypted_stall_records()
    rep_records = workspace.encrypted_representation_records()
    switch = workspace.switch_detector()
    payload = {
        "stall": [
            [r.session_id, str(c)]
            for r, c in zip(stall_records, workspace.stall_detector().predict(stall_records))
        ],
        "representation": [
            [r.session_id, str(c)]
            for r, c in zip(rep_records, workspace.representation_detector().predict(rep_records))
        ],
        "switch": [
            [r.session_id, bool(s)] for r, s in zip(rep_records, switch.predict(rep_records))
        ],
        "threshold": repr(switch.threshold),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def pipeline(seed: int, size: str, traced: bool) -> Dict[str, object]:
    """One cold pipeline; runs in its own process (``run.py --unit pipeline``)."""
    started = time.perf_counter()
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    from repro.experiments.workspace import Workspace

    import_s = time.perf_counter() - started

    from .layers import LayerClock, RegistryWindow, stat_dicts

    cleartext, adaptive, encrypted, trees = SIZES[size]
    clock = LayerClock().install() if traced else None
    window = RegistryWindow()
    raised: List[str] = []
    results = {}
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        workspace = Workspace(
            ExperimentConfig(cleartext, adaptive, encrypted, seed, n_estimators=trees, n_jobs=1)
        )
        for experiment in EXPERIMENTS:
            try:
                results[experiment] = run_experiment(experiment, workspace)
            except Exception as exc:  # counted as a failed operation, never a number
                raised.append(f"{experiment}: {exc!r}")
        offline_s = time.perf_counter() - started
        cpu_s = time.process_time() - cpu_started
    finally:
        if clock is not None:
            clock.uninstall()
    window.close()

    out: Dict[str, object] = {
        "import_s": import_s,
        "offline_s": offline_s,
        "cpu_s": cpu_s,
        "sessions": cleartext + adaptive + encrypted,
        "raised": raised,
        "peak_rss_mb": maxrss_mb(resource.RUSAGE_SELF),
    }
    if not raised:
        out["behaviour"] = {
            "enc_stall_acc": results["tab8_9"].accuracy,
            "enc_rep_acc": results["tab10_11"].accuracy,
            "enc_switch_bacc": results["sec56"].balanced_accuracy,
            "digest": _diagnosis_digest(workspace),
        }
    if clock is not None:
        out["layers"] = stat_dicts(clock)
        hits = window.total("repro_features_cache_hits_total")
        misses = window.total("repro_features_cache_misses_total")
        out["cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def expected_for(seed: int, size: str) -> Optional[Dict[str, object]]:
    """The recorded behaviour for ``seed`` at ``size``, if one was recorded."""
    if size != "full" or not EXPECTED_PATH.is_file():
        return None
    table = json.loads(EXPECTED_PATH.read_text())
    return table["seeds"].get(str(seed))


def check_pipelines(pipelines: List[Dict[str, object]], expected: Optional[Dict[str, object]]) -> List[str]:
    """Reasons the pipelines' outputs are wrong (empty when they are right)."""
    problems: List[str] = []
    behaviours = []
    for index, result in enumerate(pipelines):
        if result.get("raised"):
            problems.append(f"pipeline {index} raised: {result['raised']}")
        elif "behaviour" not in result:
            problems.append(f"pipeline {index} produced no behaviour block")
        else:
            behaviours.append(result["behaviour"])
    for index, behaviour in enumerate(behaviours[1:], start=1):
        if behaviour != behaviours[0]:
            problems.append(f"pipeline {index} disagrees with pipeline 0: {behaviour} != {behaviours[0]}")
    if expected is not None and behaviours:
        got = {key: behaviours[0][key] for key in BEHAVIOUR_KEYS}
        want = {key: expected[key] for key in BEHAVIOUR_KEYS}
        if got != want:
            problems.append(f"behaviour {got} differs from the recorded {want}")
    return problems
