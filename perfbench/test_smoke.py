"""Smoke test of the benchmark: every workload at the tiny size, untraced and
traced, prints each metric named in BENCHMARK.json with its unit and fails
no operation. It sits outside the package's test path; run it with

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "  fail_ratio               0 ratio" in lines

    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_patched_name():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        from pvcast import autodiff, data, layers, metrics, models, training
        from tracing import Tracer

        owners = [autodiff, autodiff.SgdNesterov, data, layers, layers.AttentionLayer,
                  metrics, models.Model, models.PersistenceModel, models.Seq2SeqModel,
                  models.OneBlockModel, training]
        before = [dict(vars(owner)) for owner in owners]
        tracer = Tracer()
        tracer.install()
        assert training.backward is not before[-1]["backward"]
        assert autodiff.backward is not before[0]["backward"]
        tracer.uninstall()
        assert [dict(vars(owner)) for owner in owners] == before
    finally:
        del sys.path[:2]
