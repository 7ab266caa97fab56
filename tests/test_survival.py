from __future__ import annotations

import math
import random
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from smellsurv.survival import (
    SurvivalCurve,
    compare_groups,
    kaplan_meier,
    log_rank,
    median_survival,
    restricted_mean,
    summarize,
)

from oracles import km_oracle, logrank_oracle, rmean_oracle, rmean_se_oracle


def survival_at(curve: SurvivalCurve, t: float) -> float:
    """S(t), right-continuous."""
    s = 1.0
    for p in curve:
        if p.time_days > t:
            break
        s = p.survival
    return s


def curve_rows(curve: SurvivalCurve):
    return [(p.time_days, p.n_at_risk, p.n_events, p.survival) for p in curve]


def assert_valid_curve(curve: SurvivalCurve):
    previous = 1.0
    last_time = -math.inf
    for p in curve:
        assert p.time_days > last_time
        assert 0.0 <= p.survival <= previous + 1e-15
        previous = p.survival
        last_time = p.time_days


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------

def test_all_censored_curve_stays_at_one():
    curve = kaplan_meier([(3, False), (7, False), (9, False)])
    assert all(p.survival == 1.0 for p in curve)
    assert curve[-1].time_days == 9


def test_event_then_censoring():
    curve = kaplan_meier([(5, True), (8, False)])
    assert curve_rows(curve) == [(5.0, 2, 1, 0.5), (8.0, 1, 0, 0.5)]
    assert survival_at(curve, 4.999) == 1.0
    assert survival_at(curve, 5) == 0.5


def test_tied_event_and_censoring_processed_event_first():
    # the subject censored at 2 is at risk for the event at 2, gone afterwards
    curve = kaplan_meier([(2, True), (2, False), (4, True)])
    expected = km_oracle([(2.0, True), (2.0, False), (4.0, True)])
    assert curve_rows(curve) == expected
    assert expected[0][3] == pytest.approx(2 / 3, abs=1e-15)
    assert expected[1][3] == 0.0


def test_tie_at_later_time():
    curve = kaplan_meier([(2, True), (4, True), (4, False)])
    assert curve_rows(curve)[0][3] == pytest.approx(2 / 3, abs=1e-15)
    assert curve_rows(curve)[1] == (4.0, 2, 1, pytest.approx(1 / 3, abs=1e-15))


def test_empty_input_gives_empty_curve():
    assert kaplan_meier([]) == ()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
        min_size=1,
        max_size=20,
    )
)
def test_km_matches_oracle(pairs):
    pairs = [(float(t), e) for t, e in pairs]
    curve = kaplan_meier(pairs)
    for got, want in zip(curve_rows(curve), km_oracle(pairs), strict=True):
        assert got[:3] == want[:3]
        assert abs(got[3] - want[3]) <= 1e-12
    assert_valid_curve(curve)


# ---------------------------------------------------------------------------
# median
# ---------------------------------------------------------------------------

def test_median_single_event():
    assert median_survival(kaplan_meier([(5, True)])) == 5


def test_median_na_when_curve_floors_above_half():
    # 3 events out of 8 leave the curve at 5/8 = 0.625
    pairs = [(1, True), (2, True), (3, True)] + [(10, False)] * 5
    curve = kaplan_meier(pairs)
    assert curve[-1].survival == pytest.approx(0.625, abs=1e-15)
    assert median_survival(curve) is None


def test_median_boundary_exactly_half_included():
    curve = kaplan_meier([(1418, True), (2000, False)])
    assert survival_at(curve, 1418) == 0.5
    assert median_survival(curve) == 1418


# ---------------------------------------------------------------------------
# restricted mean
# ---------------------------------------------------------------------------

def test_rmean_no_censoring_equals_arithmetic_mean():
    durations = [3.0, 11.0, 6.0, 9.0, 1.0]
    rmean, _ = restricted_mean(kaplan_meier([(d, True) for d in durations]))
    assert rmean == pytest.approx(sum(durations) / len(durations), abs=1e-12)


def test_rmean_hand_integrated_step():
    curve = kaplan_meier([(5, True), (8, False)])
    rmean, se = restricted_mean(curve)
    assert rmean == pytest.approx(6.5, abs=1e-12)
    # one event time: tail area 3 * 0.5, variance A^2 * 1/(2*1)
    assert se == pytest.approx(math.sqrt(1.5**2 * 0.5), abs=1e-12)


def test_rmean_degenerate_variance_skipped():
    rmean, se = restricted_mean(kaplan_meier([(5, True)]))
    assert (rmean, se) == (5.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=30), st.booleans()),
        min_size=1,
        max_size=15,
    )
)
def test_rmean_matches_oracle_integration(pairs):
    pairs = [(float(t), e) for t, e in pairs]
    curve = kaplan_meier(pairs)
    rmean, _ = restricted_mean(curve)
    assert rmean == pytest.approx(rmean_oracle(pairs, curve[-1].time_days), abs=1e-9)


def test_rmean_se_matches_oracle_on_random_curves():
    rng = random.Random(4242)
    # each edge case of the suffix-sum lookup must occur in some dataset
    seen = {"tie": 0, "event at 0": 0, "tau at an event": 0, "n == d": 0}
    checked = 0
    for _ in range(1200):
        size = rng.randint(1, 25)
        if rng.random() < 0.5:
            durations = [float(rng.randint(0, 12)) for _ in range(size)]
        else:
            durations = [round(rng.uniform(0, 40), 3) for _ in range(size)]
        pairs = [(d, rng.random() < 0.6) for d in durations]
        curve = kaplan_meier(pairs)
        times = sorted({t for t, _ in pairs if t > 0})
        if not times:
            continue
        tau = curve[-1].time_days

        rows = km_oracle(pairs)
        seen["tie"] += len(set(durations)) < len(durations)
        seen["event at 0"] += any(t == 0 and d for t, _, d, _ in rows)
        seen["tau at an event"] += any(t == tau and d for t, _, d, _ in rows)
        seen["n == d"] += any(t <= tau and d and d == n for t, n, d, _ in rows)

        rmean, se = restricted_mean(curve)
        assert rmean == pytest.approx(rmean_oracle(pairs, tau), rel=1e-9, abs=1e-12)
        assert math.isclose(se, rmean_se_oracle(pairs, tau), rel_tol=1e-9), (pairs, tau)
        checked += 1
    assert all(seen.values()), seen
    assert checked >= 1000


def test_rmean_is_linear_in_curve_points():
    curve = kaplan_meier([(float(i + 1), i % 3 != 0) for i in range(40_000)])
    assert len(curve) == 40_000
    start = time.perf_counter()
    restricted_mean(curve)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# log-rank
# ---------------------------------------------------------------------------

def test_identical_groups_statistic_zero_p_one():
    group = [(3, True), (5, False), (9, True)]
    result = log_rank(kaplan_meier(group), kaplan_meier(list(group)))
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_group_label_symmetry():
    a = [(1, True), (4, False), (6, True)]
    b = [(2, True), (3, True), (9, False)]
    r1 = log_rank(kaplan_meier(a), kaplan_meier(b))
    r2 = log_rank(kaplan_meier(b), kaplan_meier(a))
    assert r1.statistic == pytest.approx(r2.statistic, abs=1e-12)
    assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)


def test_separated_groups_frozen_oracle_values():
    a = [(1, True), (2, True), (3, True)]
    b = [(4, True), (5, True), (6, True)]
    result = log_rank(kaplan_meier(a), kaplan_meier(b))
    # frozen from the independent oracle
    assert result.statistic == pytest.approx(5.051660516605167, abs=1e-9)
    assert result.p_value == pytest.approx(0.024602349953641786, abs=1e-9)
    stat, p = logrank_oracle(a, b)
    assert result.statistic == pytest.approx(stat, abs=1e-9)
    assert result.p_value == pytest.approx(p, abs=1e-9)


def test_eventless_group_warns():
    result = log_rank(kaplan_meier([(5, True), (7, True)]), kaplan_meier([(6, False), (9, False)]))
    assert result.warning is not None


def test_no_events_is_undefined():
    result = log_rank(kaplan_meier([(5, False)]), kaplan_meier([(6, False)]))
    assert result == "test undefined: no events in the pooled data"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10), st.booleans()), min_size=1, max_size=12),
    st.lists(st.tuples(st.integers(0, 10), st.booleans()), min_size=1, max_size=12),
)
def test_logrank_matches_oracle(a, b):
    a = [(float(t), e) for t, e in a]
    b = [(float(t), e) for t, e in b]
    if not any(e for _, e in a + b):
        a = a + [(5.0, True)]
    result = log_rank(kaplan_meier(a), kaplan_meier(b))
    stat, p = logrank_oracle(a, b)
    assert result.statistic == pytest.approx(stat, abs=1e-9)
    assert result.p_value == pytest.approx(p, abs=1e-9)


def test_km_and_logrank_match_scipy():
    # a second oracle, written by others: scipy's product-limit sf and log-rank
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(2021)

    def sample():
        # whole days, so that events tie with each other and with censorings
        return [(float(rng.randint(1, 15)), rng.random() < 0.6) for _ in range(rng.randint(1, 25))]

    def censored(group):
        return stats.CensoredData(uncensored=[t for t, e in group if e], right=[t for t, e in group if not e])

    tests = 0
    for _ in range(200):
        a, b = sample(), sample()
        sf = stats.ecdf(censored(a)).sf
        for point in kaplan_meier(a):
            assert point.survival == pytest.approx(sf.evaluate(point.time_days), abs=1e-12)
        if not any(e for _, e in a + b):
            continue  # the test is undefined, and log_rank says so
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = stats.logrank(censored(a), censored(b))
        result = log_rank(kaplan_meier(a), kaplan_meier(b))
        if math.isnan(expected.statistic):
            # the pooled variance is 0, and so is O - E: scipy divides 0 by 0,
            # log_rank reads no difference
            assert (result.statistic, result.p_value) == (0.0, 1.0)
            continue
        # scipy's statistic is the signed z; its square is the chi-square
        assert result.statistic == pytest.approx(expected.statistic ** 2, rel=1e-9, abs=1e-12)
        assert result.p_value == pytest.approx(expected.pvalue, abs=1e-12)
        tests += 1
    assert tests > 150


# ---------------------------------------------------------------------------
# summaries and group comparison
# ---------------------------------------------------------------------------

def test_summarize_counts():
    summary = summarize(kaplan_meier([(d, True) for d in (1, 2, 3, 4, 5, 6)] + [(9, False)] * 4))
    assert (summary.found, summary.removed) == (10, 6)
    assert summary.pct_removed == pytest.approx(0.6)
    assert summary.removed <= summary.found


def test_summarize_zero_horizon_group():
    # instances first seen in the final snapshot have duration 0
    summary = summarize(kaplan_meier([(0, False), (0, False)]))
    assert (summary.rmean_days, summary.se_rmean) == (0.0, 0.0)
    assert summary.median_days is None


def test_compare_groups_by_scope():
    localized = [(10.0, True), (20.0, True), (30.0, True), (40.0, False)]
    scattered = [(2 * d, e) for d, e in localized]
    comparison = compare_groups({"localized": localized, "scattered": scattered}, "scope")
    assert comparison.partition == "scope"
    assert list(comparison.summaries) == ["localized", "scattered"]
    s_loc = comparison.summaries["localized"]
    s_sca = comparison.summaries["scattered"]
    assert s_sca.median_days == 2 * s_loc.median_days
    stat, p = logrank_oracle(localized, scattered)
    assert comparison.test.statistic == pytest.approx(stat, abs=1e-9)
    assert comparison.test.p_value == pytest.approx(p, abs=1e-9)


def test_compare_groups_by_timeframe():
    tf1 = [(d, True) for d in (5.0, 6.0, 7.0)]
    tf2 = [(d, False) for d in (50.0, 60.0)]
    comparison = compare_groups({"1": tf1, "2": tf2}, "timeframe")
    assert comparison.summaries["1"].removed == 3
    assert comparison.summaries["2"].removed == 0
    assert comparison.test.warning is not None


def test_compare_groups_keeps_the_label_order():
    # the first label is group A of the log-rank test
    a, b = [(5.0, True), (9.0, True)], [(7.0, True), (30.0, False)]
    forward = compare_groups({"1": a, "2": b}, "timeframe")
    backward = compare_groups({"2": b, "1": a}, "timeframe")
    assert list(backward.summaries) == list(backward.curves) == ["2", "1"]
    assert forward.test == log_rank(kaplan_meier(a), kaplan_meier(b))
    assert backward.test == log_rank(kaplan_meier(b), kaplan_meier(a))


def test_compare_groups_empty_group_named():
    localized = [(5.0, True)]
    comparison = compare_groups({"localized": localized, "scattered": []}, "scope")
    assert comparison.test == "empty group: scattered"
    assert comparison.summaries["scattered"] is None
    assert list(comparison.curves) == ["localized"]
    assert comparison.summaries["localized"] == summarize(kaplan_meier(localized))


def test_compare_groups_without_events_has_no_test():
    tf1 = [(d, False) for d in (5.0, 6.0)]
    tf2 = [(50.0, False)]
    comparison = compare_groups({"1": tf1, "2": tf2}, "timeframe")
    assert comparison.summaries == {"1": summarize(kaplan_meier(tf1)), "2": summarize(kaplan_meier(tf2))}
    assert comparison.test == "test undefined: no events in the pooled data"


def test_identical_groups_under_partition_p_one():
    pairs = [(5.0, True), (8.0, True)]
    comparison = compare_groups({"1": pairs, "2": list(pairs)}, "timeframe")
    assert comparison.test.p_value == 1.0
