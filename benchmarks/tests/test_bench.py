"""Self-tests of the benchmark: its arithmetic, and a tiny run of each workload.

    python3 -m pytest benchmarks/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
import tracing  # noqa: E402


def test_open_loop_lag_hand_computed():
    # due 0, 10, 20, 30; service 5, 15, 2, 1
    # finish 5, 25 (starts at 10), 27 (waits for 25), 31 (starts at 30)
    lags = stats.open_loop_lag([0, 10, 20, 30], [5, 15, 2, 1])
    assert lags == [5, 15, 7, 1]


def test_open_loop_lag_backlog_accumulates():
    # service 2 per request arriving every 1: the backlog grows by 1 each time
    assert stats.open_loop_lag([1, 2, 3, 4], [2, 2, 2, 2]) == [2, 3, 4, 5]


def test_self_times_hand_computed():
    spans = [("a", 0.0, 10.0, -1, 0),   # children b (3) and c (4): self 3
             ("b", 1.0, 4.0, 0, 0),     # leaf: self 3
             ("c", 5.0, 9.0, 0, 0),     # child d (1): self 3
             ("d", 6.0, 7.0, 2, 0),     # leaf: self 1
             ("e", 11.0, 12.5, -1, 1)]  # separate root: self 1.5
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.5]


def test_tail_indices_pick_the_largest_quarter():
    assert stats.tail_indices([5, 1, 9, 3, 7, 2, 8, 4]) == [2, 6]
    assert stats.tail_indices(list(range(10))) == [7, 8, 9]  # a quarter, rounded up
    assert stats.tail_indices([4]) == [0]


def metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("trace_flag", [0, 1])
@pytest.mark.parametrize("workload", ["train", "decode", "stream"])
def test_smoke_run_emits_every_metric(workload, trace_flag):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace_flag), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = metric_names("per_layer" if trace_flag else "end_to_end")
    assert set(result["metrics"]) == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and value["unit"]
    if not trace_flag:
        assert all(v["value"] > 0 for v in result["metrics"].values())
