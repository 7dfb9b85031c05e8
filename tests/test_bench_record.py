"""BENCH_suite.json: the committed record of before/after benchmark medians."""

import json
import numbers
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("setup_s", "pass_cpu_s", "request_cpu_s_p50", "request_cpu_s_tail",
           "peak_rss_mb")


def _number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and v == v


def test_bench_record_parses_and_every_entry_has_the_five_metrics():
    doc = json.loads((ROOT / "BENCH_suite.json").read_text(encoding="utf-8"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(doc["metrics"]) == METRICS
    assert tuple(m["name"] for m in declared["end_to_end"]) == METRICS
    workloads = {w["name"] for w in declared["workloads"]}
    assert doc["entries"]
    for entry in doc["entries"]:
        where = entry["title"]
        assert entry["source"] in ("measured", "CHANGES.md"), where
        assert len(entry["parent"]) >= 7, where
        int(entry["parent"], 16)
        assert set(entry["workloads"]) == workloads, where
        host = entry["host"]
        measured = entry["source"] == "measured"
        if measured:
            assert all(host[k] is not None
                       for k in ("cpu_count", "numpy", "scipy", "probe_mean_s")), where
        if entry["claim"] is not None:
            assert entry["claim"]["workload"] in workloads, where
            assert entry["claim"]["metric"] in METRICS, where
        for name, w in entry["workloads"].items():
            assert isinstance(w["pairs"], int) and w["pairs"] > 0, (where, name)
            assert set(w["metrics"]) == set(METRICS), (where, name)
            for metric, m in w["metrics"].items():
                at = (where, name, metric)
                for side in ("parent", "change"):
                    stats = m[side]
                    assert _number(stats["median"]), at
                    for q in ("q1", "q3"):
                        assert stats[q] is None or _number(stats[q]), at
                    if measured:
                        assert stats["q1"] <= stats["median"] <= stats["q3"], at
                won = m["change_won"]
                assert won is None or 0 <= won <= w["pairs"], at
                assert won is not None or not measured, at
