"""Every workload runs end to end on a tiny corpus and prints exactly the
metric names and units ``BENCHMARK.json`` declares."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"loci": 150, "go_terms": 60, "omim_entries": 40}


def _declared(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_spec_names_the_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in _declared("end_to_end")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "CORPUS_SHAPE", TINY)
    monkeypatch.setattr(workloads, "MIN_ROUNDS", {"serve": 1, "browse": 1, "churn": 1})
    monkeypatch.setattr(workloads, "SETUP_REPEATS", {"serve": 1, "browse": 1, "churn": 1})
    monkeypatch.setattr(workloads, "LAYER_SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_printed_metrics_match_the_spec(tiny, capsys, workload, trace):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == _declared("per_layer" if trace else "end_to_end")
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    assert info["stamp"]["seed"] == 3 and info["tail_percentile"] is not None
    assert not (ROOT / run.WORK_DIR / f"{workload}-3-{os.getpid()}").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
