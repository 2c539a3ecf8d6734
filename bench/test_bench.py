"""Self-test of the benchmark harness on tiny inputs.

Run with: python3 -m pytest -q bench/test_bench.py   (about a minute)

Checks that every metric BENCHMARK.json names is printed with its unit, that
a corrupted reference is counted as a failed operation rather than crashing
the run, that the per-layer self times fit inside the traced wall time, and
that each workload's time goes to the layers it is meant to load.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("recursion", "expansion", "oracle", "session")

sys.path.insert(0, BENCH)
import run  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return json.loads(lines[-1]), env


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return request.param, run_bench(request.param, 1)[0]


def test_end_to_end_metrics_and_stamp():
    for workload in WORKLOADS:
        result, env = run_bench(workload, 0)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        for m in load_spec()["end_to_end"]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0, (workload, m["name"])
        assert set(env) >= {"python", "gmpy2", "nproc", "git_sha", "trace"}
        assert env["trace"] is False


def test_per_layer_metrics(traced):
    workload, result = traced
    assert result["correct"], workload
    for m in load_spec()["per_layer"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        if m["name"] != "trace.overhead_s":  # a difference of two timings
            assert got["value"] >= 0, m["name"]


def test_self_times_fit_in_traced_wall(traced):
    workload, result = traced
    metrics = result["metrics"]
    total_self = sum(v["value"] for k, v in metrics.items() if k.endswith("self_s"))
    total_self += metrics["trace.stats_s"]["value"]
    assert 0 < total_self <= metrics["trace.wall_s"]["value"], workload


def test_layers_show_where_predicted(traced):
    workload, result = traced
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    wall = metrics["trace.wall_s"]
    if workload == "recursion":
        torus = sum(v for k, v in metrics.items() if k.startswith("torus.") and k.endswith("self_s"))
        assert (torus + metrics["qlaurent.mul.self_s"]) / wall > 0.5
        assert metrics["torus.mul_large.calls"] > 0 and metrics["torus.left_divide.calls"] > 0
    if workload == "expansion":
        assert metrics["torus.mul.calls"] == 0 and metrics["families.xvar_enum.calls"] > 0
    if workload == "oracle":
        count = metrics["fforacle.count_gr.self_s"] + metrics["fforacle.count_strata.self_s"]
        assert count / wall > 0.5
        assert metrics["torus.mul.calls"] == 0
        assert 0 < metrics["fforacle.certify_yield"] <= 1
    if workload == "session":
        assert metrics["cli.main.calls"] > 0 and metrics["cli.out_bytes"] > 0


def test_corrupted_reference_counts_as_failure(tmp_path, monkeypatch, capsys):
    with open(run.REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    refs["gr_table 2 6"] = "0" * 64
    refs["cn --r 10 --n 5 --format text"]["sha256"] = "0" * 64
    refs["cn --r 10 --n 5 --format json"]["sha256"] = "0" * 64
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCES", str(bad))
    cpus = os.sched_getaffinity(0)
    for workload in ("recursion", "session"):
        try:
            code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", "0", "--tiny"])
        finally:
            os.sched_setaffinity(0, cpus)  # run.main pins its process to one CPU
        assert code == 0, workload
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] is False, workload
        assert 1 <= result["failed"] < result["attempted"], workload
        assert result["metrics"]["ok_frac"]["value"] < 1


def test_refuses_without_the_package(tmp_path):
    """A tree holding only the benchmark exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recursion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
