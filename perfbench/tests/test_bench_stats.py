import statistics

import pytest

import stats

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def make_set(run_s, rate=100.0, setup=None, failed=0, digest="d", seed0=0):
    runs = []
    for i, value in enumerate(run_s):
        runs.append({
            "workload": "w", "seed": seed0 + i, "correct": True,
            "attempted": 10, "failed": failed, "digest": digest,
            "metrics": {
                "run_s": {"value": value, "unit": "s"},
                "rate": {"value": rate + i * 0.01, "unit": "1/s"},
                "setup_s": {"value": (setup or run_s)[i], "unit": "s"},
            },
        })
    return runs


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0]
    q1, med, q3 = stats.quartiles(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[i] for i in (0, 2))
    assert med == statistics.median(values)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 3.0)


def test_worse_by_respects_direction():
    assert stats.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worse_by(10.0, 9.0, "higher") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        stats.worse_by(10.0, 9.0, "sideways")


def test_summarize_counts_runs_and_operations():
    entry = stats.summarize(make_set([1.0, 1.1, 0.9]))["w"]
    assert entry["attempted"] == 30 and entry["failed"] == 0 and entry["correct"]
    assert entry["metrics"]["run_s"]["n"] == 3
    assert entry["metrics"]["run_s"]["median"] == pytest.approx(1.0)


def test_compare_accepts_two_steady_sets():
    a = make_set([1.0, 1.01, 0.99, 1.0, 1.02])
    b = make_set([1.01, 1.0, 1.0, 0.99, 1.01])
    assert all(ok for ok, _ in stats.compare(a, b, SPEC))


def test_compare_rejects_drift_wide_spread_and_failure_share():
    a = make_set([1.0, 1.01, 0.99, 1.0, 1.02])
    slower = make_set([1.2, 1.21, 1.19, 1.2, 1.22])
    assert any(not ok and "second median" in m for ok, m in stats.compare(a, slower, SPEC))
    wide = make_set([0.7, 1.0, 1.3, 0.8, 1.2])
    assert any(not ok and "spread" in m for ok, m in stats.compare(a, wide, SPEC))
    failing = make_set([1.0, 1.01, 0.99, 1.0, 1.02], failed=1)
    assert any(not ok and "failed" in m for ok, m in stats.compare(a, failing, SPEC))


def test_compare_checks_setup_spread_and_drift_like_any_metric():
    a = make_set([1.0] * 5, setup=[0.2, 0.21, 0.2, 0.19, 0.2])
    wide = make_set([1.0] * 5, setup=[0.2, 0.5, 0.9, 0.3, 0.4])
    assert any(not ok and "setup_s" in m and "spread" in m
               for ok, m in stats.compare(a, wide, SPEC))
    slower = make_set([1.0] * 5, setup=[0.3, 0.31, 0.3, 0.29, 0.3])
    assert any(not ok and "setup_s" in m and "second median" in m
               for ok, m in stats.compare(a, slower, SPEC))


def test_compare_rejects_differing_digests_for_one_seed():
    a = make_set([1.0] * 5, digest="x")
    b = make_set([1.0] * 5, digest="y")
    assert any(not ok and "digests" in m for ok, m in stats.compare(a, b, SPEC))
    c = make_set([1.0] * 5, digest="y", seed0=10)
    assert all(ok for ok, _ in stats.compare(a, c, SPEC))
