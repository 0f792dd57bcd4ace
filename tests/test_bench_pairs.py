"""The pair summary of tools/bench_pairs.py on canned run results; no
benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "work_per_s": "higher", "peak_rss_mb": "lower"}


def result(wall, work, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "work_per_s": {"value": work, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "untracked": {"value": 1.0, "unit": "1"},
    }}


PARENT = [result(2.0, 500.0, 180.0), result(2.4, 450.0, 180.0),
          result(1.8, 560.0, 181.0), result(2.2, 470.0, 180.0, failed=1)]
CHANGE = [result(0.7, 1600.0, 150.0), result(0.8, 1500.0, 181.0),
          result(0.6, 1700.0, 149.0), result(2.3, 1650.0, 148.0)]


def test_summary_medians_iqr_and_wins():
    summary = bench_pairs.summarize(PARENT, CHANGE, BETTER)
    assert summary["pairs"] == 4
    assert summary["failed_ops"] == {"parent": 1, "change": 0}
    assert set(summary["metrics"]) == set(BETTER)  # no direction, no summary
    wall = summary["metrics"]["wall_s"]
    assert wall["parent_median"] == pytest.approx(2.1)
    assert wall["parent_iqr"] == pytest.approx(2.25 - 1.95)
    assert wall["change_median"] == pytest.approx(0.75)
    assert wall["change_wins"] == "3/4"  # pair 4: 2.3 s is worse than 2.2 s
    assert not wall["claim_holds"]
    assert wall["parent_runs"] == [2.0, 2.4, 1.8, 2.2]
    work = summary["metrics"]["work_per_s"]
    assert work["change_wins"] == "4/4" and work["claim_holds"]
    assert work["unit"] == "1/s" and work["better"] == "higher"
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == "3/4"  # pair 2 is a loss, not a tie win


def test_claim_void_when_change_fails_more_operations():
    parent = [result(p["metrics"]["wall_s"]["value"], p["metrics"]["work_per_s"]["value"],
                     p["metrics"]["peak_rss_mb"]["value"]) for p in PARENT]
    change = CHANGE[:3] + [result(0.5, 1650.0, 148.0, failed=2)]
    summary = bench_pairs.summarize(parent, change, BETTER)
    assert summary["failed_ops"] == {"parent": 0, "change": 2}
    work = summary["metrics"]["work_per_s"]
    assert work["change_wins"] == "4/4" and not work["claim_holds"]
    # One failed parent operation against none: the claim stands.
    assert bench_pairs.summarize(PARENT, CHANGE, BETTER)["metrics"]["work_per_s"]["claim_holds"]


def test_claim_needs_gain_beyond_parent_iqr():
    parent = [result(1.0, 100.0 + 10 * k, 1.0) for k in range(10)]
    change = [result(1.0, p["metrics"]["work_per_s"]["value"] + 1.0, 1.0) for p in parent]
    work = bench_pairs.summarize(parent, change, BETTER)["metrics"]["work_per_s"]
    assert work["change_wins"] == "10/10"
    assert not work["claim_holds"]  # a 1/s gain inside a 45/s IQR
    wall = bench_pairs.summarize(parent, change, BETTER)["metrics"]["wall_s"]
    assert wall["change_wins"] == "0/10"  # equal values are no win


def test_mismatched_pairs_rejected():
    with pytest.raises(ValueError):
        bench_pairs.summarize(PARENT, CHANGE[:3], BETTER)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("0-3") == [0, 1, 2, 3]
    assert bench_pairs.parse_seeds("0-2,7") == [0, 1, 2, 7]
    assert bench_pairs.parse_seeds("5") == [5]


def test_run_once_reads_both_lines(tmp_path):
    """run_once on a stand-in run.py that prints canned lines."""
    (tmp_path / "mbbench").mkdir()
    env_line = {"env": {"nproc": 2, "git_commit": "abc"},
                "named": {"frame_latency_p50_ms": {"value": 0.4, "unit": "ms"},
                          "wall_s": {"value": 9.0, "unit": "s"}}}
    result_line = {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    (tmp_path / "mbbench" / "run.py").write_text(
        "import json\n"
        f"print(json.dumps({env_line!r}))\n"
        f"print(json.dumps({result_line!r}))\n")
    env, res = bench_pairs.run_once(tmp_path, "stream", 0, 40, 0)
    assert env == {"nproc": 2, "git_commit": "abc"}
    assert res["metrics"]["frame_latency_p50_ms"]["value"] == 0.4
    assert res["metrics"]["wall_s"]["value"] == 1.5  # the result line wins


def test_directions_from_benchmark_and_latencies():
    benchmark = {"end_to_end": [{"name": "wall_s", "better": "lower"}],
                 "per_layer": [{"name": "detect.detections", "better": "lower"}]}
    better = bench_pairs.metric_directions(benchmark)
    assert better["wall_s"] == "lower" and better["detect.detections"] == "lower"
    assert better["frame_latency_p99_ms"] == "lower"
