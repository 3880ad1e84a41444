"""Tests of tools/bench_pair.py's pair statistics, without running a benchmark."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"


@pytest.fixture
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(parent, change):
    return {"parent": [{"metrics": m} for m in parent], "change": [{"metrics": m} for m in change]}


def test_traced_runs_give_per_layer_pairs(bench_pair):
    # a --trace 1 run reports per-layer metrics only; one that reads 0 has no ratio
    parent = [{"import.ms": 2.0, "export.ms": 3.0, "solve.ms": 0.0},
              {"import.ms": 2.5, "export.ms": 3.0, "solve.ms": 0.0}]
    change = [{"import.ms": 1.0, "export.ms": 3.3, "solve.ms": 0.0},
              {"import.ms": 2.0, "export.ms": 2.7, "solve.ms": 0.0}]
    pairs = bench_pair.pair_stats(runs(parent, change))
    assert sorted(pairs) == ["export.ms", "import.ms"]
    assert pairs["import.ms"]["ratios"] == [0.5, 0.8] and pairs["import.ms"]["won"] == 2
    assert pairs["export.ms"]["won"] == 1 and pairs["export.ms"]["pairs"] == 2


def test_untraced_runs_give_end_to_end_pairs(bench_pair):
    metrics = {"setup_s": 0.2, "cases_per_s": 100.0, "case_ms.p50": 5.0, "peak_rss_mb": 48.0}
    faster = dict(metrics, **{"cases_per_s": 120.0})
    pairs = bench_pair.pair_stats(runs([metrics] * 3, [faster] * 3))
    assert list(pairs) == ["setup_s", "cases_per_s", "case_ms.p50", "peak_rss_mb"]
    assert pairs["cases_per_s"]["won"] == 3 and pairs["setup_s"]["won"] == 0
