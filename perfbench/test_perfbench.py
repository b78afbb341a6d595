"""Tests of the benchmark itself, on the q = 2 smoke scale.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_cache = {}


def smoke(workload, trace, seed=0):
    """Last stdout line of one smoke run, parsed (cached per arguments)."""
    key = (workload, trace, seed)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
             "--smoke"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=120, check=True)
        _cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _cache[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_appears_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _counters(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_repeat_exactly_at_a_fixed_seed(workload):
    first = _counters(smoke(workload, 1))
    _cache.pop((workload, 1, 0))
    assert _counters(smoke(workload, 1)) == first


def test_only_cover_build_consumes_the_seed():
    a = _counters(smoke("cover-q3k4", 1, seed=0))
    b = _counters(smoke("cover-q3k4", 1, seed=1))
    assert a["covering.samples_t"] == b["covering.samples_t"] == 606
    assert a["covering.family_sets"] != b["covering.family_sets"]
    assert a["covering.greedy_rounds"] == b["covering.greedy_rounds"] == 9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_generator_is_billed_only_inside_next():
    tracer = Tracer()

    def produce():
        for i in range(3):
            time.sleep(0.01)
            yield i

    wrapped = tracer.wrap("independence.produce", produce, None)
    with tracer.run(0, "cli"):
        for _ in wrapped():
            time.sleep(0.02)
    root, gen = tracer.nodes
    assert gen.parent is root and gen.calls == 1 and gen.items == 3
    assert 0.03 <= gen.busy < 0.05
    assert root.self_s >= 0.06
    assert abs(root.self_s + gen.self_s - root.busy) < 1e-9
