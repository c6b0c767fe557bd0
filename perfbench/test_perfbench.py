"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest -q perfbench

They show that every check passes on the current program, that each negative
control makes it fail, and that the machine-independent counters repeat.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS, check_gradcheck  # noqa: E402

TINY = {
    "mine-greedy": {"n": 200},
    "mine-kernel": {"n": 300},
    "loss-step": {"n": 48, "d": 16, "classes": 2, "per_class": 4, "unknown": 6},
    "loss-audit": {"n": 12, "d": 6, "classes": 2, "per_class": 2, "unknown": 2},
}


def run(tmp_path, name, seed=3, trace=False, fault=None):
    return bench.run_workload(
        name, seed, 0.0, trace, sizes=TINY[name], fault=fault, workdir=tmp_path / name
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_passes_checks_and_reports_nonzero_metrics(tmp_path, name):
    out = run(tmp_path, name)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0, out["detail"]["errors"]
    assert result["attempted"] >= 6
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert out["env"]["seed"] == 3 and out["env"]["blas"] is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_at_one_seed_and_hold_on_another(tmp_path, name):
    first = run(tmp_path, name, trace=True)
    again = run(tmp_path, name, trace=True)
    assert set(first["result"]["metrics"]) == set(bench.PER_LAYER_UNITS)
    assert first["detail"]["counters"] == again["detail"]["counters"]
    assert first["detail"]["absent"] == []
    held_out = run(tmp_path, name, seed=4, trace=True)["result"]
    assert held_out["correct"] and held_out["failed"] == 0


def test_traced_ops_account_for_their_wall_time(tmp_path):
    top = run(tmp_path, "mine-greedy", trace=True)["detail"]["top_self"]
    assert set(top) == {"select fl", "select gc", "select logdet"}
    for split in top.values():
        assert split["children_s"] + split["cli_overhead_s"] == pytest.approx(split["wall_s"])


@pytest.mark.parametrize(
    "name, fault",
    [("loss-audit", "perturb-grad"), ("mine-greedy", "corrupt-gain"), ("mine-greedy", "swap-pick")],
)
def test_negative_control_raises_fail_rate(tmp_path, name, fault):
    out = run(tmp_path, name, fault=fault)
    assert not out["result"]["correct"]
    assert out["detail"]["fail_rate"] > 0


def test_audit_that_checks_nothing_fails(tmp_path):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(
        {"checked": 0, "tie_adjacent": 8, "max_rel_err": 0.0, "max_abs_err": 0.0}
    ))
    assert check_gradcheck(report, 8, 0, {}) == ["audit checked no coordinate"]


def test_missing_target_is_reported_absent():
    tracer = Tracer()
    tracer.install([Target("submine.cli", "no_such_function", "x"),
                    Target("submine.no_such_module", "f", "y")])
    tracer.uninstall()
    assert tracer.absent == ["submine.cli.no_such_function", "submine.no_such_module.f"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mine-greedy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
