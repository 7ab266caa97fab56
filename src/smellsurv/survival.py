"""Kaplan-Meier estimation, restricted means, and the two-group log-rank test.

``kaplan_meier`` consumes (duration, event observed) pairs and yields a
point at every distinct duration, so its curve is also the group's risk
table; the restricted mean and the log-rank test read that table. Tied
times follow the standard convention that events are processed before
censorings, i.e. subjects censored at t still count as at risk at t.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from typing import Iterable, Iterator, NamedTuple

# slack for detecting a survival level that is mathematically exact but was
# computed as a float product (e.g. 0.5 reached via 5/6 * 4/5 * 3/4)
_LEVEL_EPS = 1e-12


class CurvePoint(NamedTuple):
    time_days: float
    n_at_risk: int
    n_events: int
    survival: float


SurvivalCurve = tuple[CurvePoint, ...]


def kaplan_meier(pairs: Iterable[tuple[float, bool]]) -> SurvivalCurve:
    """Product-limit estimate over the distinct observed times.

    Every distinct duration contributes a point (censoring-only times keep
    the running level), so the curve doubles as a full risk table. Survival
    is 1 before the first point; no pairs give no points.
    """
    pairs = sorted(pairs)
    n = len(pairs)
    points = []
    s = 1.0
    i = 0
    while i < n:
        t = pairs[i][0]
        at_risk = n - i
        events = 0
        while i < n and pairs[i][0] == t:
            events += pairs[i][1]
            i += 1
        s *= 1.0 - events / at_risk
        points.append(CurvePoint(time_days=t, n_at_risk=at_risk, n_events=events, survival=s))
    return tuple(points)


def median_survival(curve: SurvivalCurve) -> float | None:
    """Smallest time where survival falls to 0.5 or below; None when the
    curve never gets there."""
    for p in curve:
        if p.survival <= 0.5 + _LEVEL_EPS:
            return p.time_days
    return None


def restricted_mean(curve: SurvivalCurve) -> tuple[float, float]:
    """Area under the survival step function on [0, tau], tau the curve's
    horizon, with its standard error from the Greenwood-style variance
    sum_i A_i^2 * d_i / (n_i * (n_i - d_i)) over event times t_i < tau,
    where A_i is the area under S on [t_i, tau] (terms with n_i == d_i are
    skipped). A zero horizon gives (0.0, 0.0).

    Runs in O(curve points): the first step segment starts at 0 and each
    point below tau starts the next one, so A_i is the suffix sum of the
    segment areas after segment i.
    """
    times = [p.time_days for p in curve]
    levels = [1.0] + [p.survival for p in curve[:-1]]
    areas = [(end - start) * level for start, end, level in zip([0.0, *times], times, levels)]
    tail_areas = list(accumulate(reversed(areas[1:])))[::-1]
    variance = 0.0
    # zip stops before the point at tau, whose A_i is 0
    for p, tail_area in zip(curve, tail_areas):
        if 0 < p.n_events < p.n_at_risk:
            variance += tail_area ** 2 * p.n_events / (p.n_at_risk * (p.n_at_risk - p.n_events))
    return sum(areas), math.sqrt(variance)


class GroupSummary(NamedTuple):
    found: int
    removed: int
    pct_removed: float
    median_days: float | None
    rmean_days: float
    se_rmean: float


def summarize(curve: SurvivalCurve) -> GroupSummary:
    """Found/removed counts plus median and restricted mean at the curve's
    own horizon; the counts are the first risk set and the events."""
    found = curve[0].n_at_risk
    removed = sum(p.n_events for p in curve)
    rmean, se = restricted_mean(curve)
    return GroupSummary(
        found=found,
        removed=removed,
        pct_removed=removed / found,
        median_days=median_survival(curve),
        rmean_days=rmean,
        se_rmean=se,
    )


class LogRankResult(NamedTuple):
    statistic: float
    p_value: float
    warning: str | None = None


def _risk_sets(points: SurvivalCurve, times: list[float]) -> Iterator[tuple[int, int]]:
    """(at risk, events) of one group at each of the ascending times: the
    at-risk count of its first point at or after t, and that point's events
    when it lies at t."""
    rest = chain(points, [CurvePoint(math.inf, 0, 0, 0.0)])  # nobody is at risk past the last point
    p = next(rest)
    for t in times:
        while p.time_days < t:
            p = next(rest)
        yield p.n_at_risk, p.n_events if p.time_days == t else 0


def log_rank(a: SurvivalCurve, b: SurvivalCurve) -> LogRankResult | str:
    """Two-group log-rank test over the groups' KM risk tables, or why it is undefined.

    At each distinct pooled event time, the expected events in group A follow
    the hypergeometric mean n_A * d / n with variance
    d * (n_A/n) * (1 - n_A/n) * (n - d) / (n - 1) (skipped when n == 1); the
    statistic (O_A - E_A)^2 / V is chi-square with 1 degree of freedom.
    """
    times = sorted({p.time_days for p in (*a, *b) if p.n_events})
    if not times:
        return "test undefined: no events in the pooled data"

    observed_a = 0
    expected_a = 0.0
    variance = 0.0
    for (n_a, d_a), (n_b, d_b) in zip(_risk_sets(a, times), _risk_sets(b, times)):
        n = n_a + n_b
        d = d_a + d_b
        observed_a += d_a
        expected_a += n_a * d / n
        if n > 1:
            share = n_a / n
            variance += d * share * (1.0 - share) * (n - d) / (n - 1)

    diff = observed_a - expected_a
    statistic = diff * diff / variance if variance > 0 else 0.0
    eventless = not any(p.n_events for p in a) or not any(p.n_events for p in b)
    return LogRankResult(
        statistic=statistic,
        p_value=math.erfc(math.sqrt(statistic / 2.0)),  # chi-square survival function, 1 df
        warning="a group has no observed events; the test is unreliable" if eventless else None,
    )


class GroupComparison(NamedTuple):
    """One two-way partition, analysed once.

    curves holds a KM curve for each non-empty group; an empty group's
    summary is None. test is the log-rank result, or why it is undefined.
    """

    partition: str
    curves: dict[str, SurvivalCurve]
    summaries: dict[str, GroupSummary | None]
    test: LogRankResult | str


def compare_groups(groups: dict[str, list[tuple[float, bool]]], partition: str) -> GroupComparison:
    """Curves, summaries and log-rank over two labelled groups of
    (duration, event observed) pairs, in label order.

    partition names the comparison, such as "scope" or "timeframe". An empty
    group or a pooled sample without events leaves the test undefined.
    """
    curves = {label: kaplan_meier(pairs) for label, pairs in groups.items() if pairs}
    summaries = {label: summarize(curves[label]) if label in curves else None for label in groups}
    empty = [label for label in groups if label not in curves]
    test = f"empty group: {empty[0]}" if empty else log_rank(*curves.values())
    return GroupComparison(partition=partition, curves=curves, summaries=summaries, test=test)
