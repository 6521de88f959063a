"""The perf trajectory: BENCH_<workload>.json at the repository root holds one
record per change that ran the benchmark in paired runs against its parent.

A record names the change's PR, the parent commit it was paired against,
the workload, the benchmark seeds and the number of pairs. For each
end-to-end metric it gives the median over pairs of change / parent, the
pairs in which the change read better, and the parent's quartiles.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_KEYS = {"pr", "commit", "workload", "seeds", "pairs", "metrics"}
METRIC_KEYS = {"median_ratio", "pairs_better", "parent_quartiles"}


def test_every_bench_record_has_the_record_keys():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert {p.name for p in paths} >= {"BENCH_decode.json", "BENCH_stream.json",
                                       "BENCH_train.json"}
    for path in paths:
        records = json.loads(path.read_text())
        assert isinstance(records, list) and records, path.name
        for record in records:
            where = f"{path.name}, PR {record.get('pr')}"
            assert set(record) == RECORD_KEYS, where
            assert record["workload"] == path.stem.removeprefix("BENCH_"), where
            assert record["pairs"] >= 1 and record["seeds"], where
            assert record["metrics"], where
            for name, metric in record["metrics"].items():
                assert set(metric) == METRIC_KEYS, (where, name)
                assert 0 <= metric["pairs_better"] <= record["pairs"], (where, name)
                low, high = metric["parent_quartiles"]
                assert low <= high, (where, name)
