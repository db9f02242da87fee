"""Tiny-size self-test of the benchmark: result format, checks and refusals.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, *args, timeout=300):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))  # batch too, by hand only
def test_smoke_result_line(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert metric["value"] == metric["value"], name  # not NaN
        if trace == 0:
            assert metric["value"] > 0, name


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "presets", "--seed", "1", "--seconds", "1",
                  "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_needs_ten_beyond():
    values = list(range(1, 1001))
    value, pct, beyond = run.tail(values)
    assert pct == 99.0 and beyond == 10
    value, pct, beyond = run.tail(values[:150])
    assert pct == 90.0 and beyond == 15
    value, pct, beyond = run.tail(values[:16])      # too few: p90, fewer beyond
    assert pct == 90.0 and beyond == 2


def test_self_time_subtracts_union_of_children():
    parent = spans.Span(1, "p", 0.0, 10.0, None, "op", 1)
    kids = [spans.Span(2, "c", 1.0, 4.0, 1, "op", 1),
            spans.Span(3, "c", 3.0, 5.0, 1, "op", 2),     # overlaps, other thread
            spans.Span(4, "c", 9.0, 12.0, 1, "op", 2)]    # runs past the parent
    own = spans.self_times([parent, *kids])
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_nests_threads_and_tolerates_missing_names():
    import threading
    import types

    mod = types.ModuleType("fake_layer")
    mod.outer = lambda f: f()
    mod.inner = lambda: time.sleep(0.001)
    sys.modules["fake_layer"] = mod
    tracer = spans.Tracer()
    tracer.install((("fake_layer", "outer", "x.outer", None),
                    ("fake_layer", "inner", "x.inner", None),
                    ("fake_layer", "gone", "x.gone", None)))
    try:
        tracer.op = "op1"
        worker = threading.Thread(target=lambda: mod.inner())
        mod.outer(lambda: (worker.start(), worker.join(), mod.inner()))
    finally:
        tracer.uninstall()
        del sys.modules["fake_layer"]
    assert tracer.absent == ["fake_layer.gone"]
    got = {(s.name, s.thread == threading.get_ident()): s for s in tracer.take()}
    root = got[("x.outer", True)]
    assert got[("x.inner", True)].parent == root.sid
    assert got[("x.inner", False)].parent == root.sid
    assert got[("x.inner", False)].op.startswith("op1/")
