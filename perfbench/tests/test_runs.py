"""Tiny-size runs of every workload, and runs whose outputs are corrupted.

The smoke runs go through ``run.py`` exactly as a caller would; the
corruption tests break one output and check that the run fails and
reports no numbers.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from qoebench import offline, serving
from qoebench.layers import LayerClock

BENCH = Path(__file__).resolve().parents[1]
RUN = BENCH / "run.py"


def invoke(*args, cwd=BENCH.parent, timeout=170):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    code, result, proc = invoke("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny")
    assert code == 0, proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert [name for name in result["metrics"]] == [name for name, _ in bench.END_TO_END]
    for name, unit in bench.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_tiny_traced_run_reports_every_per_layer_metric():
    code, result, proc = invoke("--workload", "offline-paper", "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "tiny")
    assert code == 0, proc.stderr[-2000:]
    assert list(result["metrics"]) == bench.PER_LAYER
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["ml.forest.trees_fitted"] == 2 * offline.SIZES["tiny"][3]
    assert metrics["datasets.genx.simulate_s"] > 0
    assert metrics["serving.submit.calls"] == 0  # no serving on this workload


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-light", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_offline_pipelines_that_disagree_fail():
    behaviour = {"enc_stall_acc": 0.82, "enc_rep_acc": 0.915, "enc_switch_bacc": 0.65, "digest": "x"}
    same = [{"raised": [], "behaviour": dict(behaviour)} for _ in range(2)]
    assert offline.check_pipelines(same, dict(behaviour)) == []
    drifted = [{"raised": [], "behaviour": dict(behaviour)}, {"raised": [], "behaviour": {**behaviour, "enc_rep_acc": 0.9}}]
    assert offline.check_pipelines(drifted, None)
    assert offline.check_pipelines(same, {**behaviour, "digest": "y"})
    assert offline.check_pipelines([{"raised": ["tab8_9: boom"]}], None)


def test_recorded_behaviour_includes_the_papers_seed():
    recorded = offline.expected_for(7, "full")
    assert recorded is not None
    assert (recorded["enc_stall_acc"], recorded["enc_rep_acc"]) == (0.82, 0.915)
    assert round(recorded["enc_switch_bacc"], 3) == 0.652


def test_a_corrupted_service_diagnosis_fails_the_run(tmp_path, monkeypatch):
    from repro.serving import QoEService

    model = tmp_path / "model.json"
    serving.build_model("tiny", model)
    original = QoEService.drain

    def corrupting_drain(self):
        diagnoses = original(self)
        for i, d in enumerate(diagnoses):
            if d.session_id.startswith("sub-"):  # a measured session, not a warm-up one
                flipped = "severe" if d.stall_class != "severe" else "no"
                diagnoses[i] = dataclasses.replace(d, stall_class=flipped)
                break
        return diagnoses

    monkeypatch.setattr(QoEService, "drain", corrupting_drain)
    result = serving.serve("serve-light", 3, 1.0, False, "tiny", model, 60.0)
    accounting = result["accounting"][0]
    assert accounting["sessions_missing"] == 1 and accounting["sessions_unexpected"] == 1
    assert serving.problems(accounting)

    run = bench.Run(traced=False)
    run.problems += serving.problems(accounting)
    run.metrics = {"setup_s": 1.0}
    line, code = bench.render(run)
    assert code == 1
    assert line["correct"] is False and line["metrics"] == {} and line["failed"] >= 1


def test_layer_clock_restores_every_function_it_wrapped():
    import repro.core.features as features
    import repro.core.stall as stall
    from repro.ml.forest import RandomForestClassifier

    before = (stall.build_stall_matrix, RandomForestClassifier.__dict__["fit"])
    with LayerClock() as clock:
        assert stall.build_stall_matrix is not before[0]
        assert features.build_stall_matrix is stall.build_stall_matrix
    assert (stall.build_stall_matrix, RandomForestClassifier.__dict__["fit"]) == before
    assert all(stat.calls == 0 for stat in clock.stats.values())
