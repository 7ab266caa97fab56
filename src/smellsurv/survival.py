"""Kaplan-Meier estimation, restricted means, and the two-group log-rank test.

All operations consume (duration, event_observed) pairs. A survival record's
censored flag means "removal observed", so it IS the event indicator. Tied
times follow the standard convention that events are processed before
censorings, i.e. subjects censored at t still count as at risk at t.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .tracking import SurvivalRecord

# slack for detecting a survival level that is mathematically exact but was
# computed as a float product (e.g. 0.5 reached via 5/6 * 4/5 * 3/4)
_LEVEL_EPS = 1e-12


class CurvePoint(NamedTuple):
    time_days: float
    n_at_risk: int
    n_events: int
    survival: float


class SurvivalCurve(NamedTuple):
    """Product-limit step function; survival is 1 before the first point."""

    points: tuple[CurvePoint, ...]
    tau: float


def kaplan_meier(pairs: Iterable[tuple[float, bool]]) -> SurvivalCurve:
    """Product-limit estimate over the distinct observed times.

    Every distinct duration contributes a point (censoring-only times keep
    the running level), so the curve doubles as a full risk table.
    """
    pairs = sorted(pairs)
    if not pairs:
        raise ValueError("no records")
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
        if events:
            s *= 1.0 - events / at_risk
        points.append(CurvePoint(time_days=t, n_at_risk=at_risk, n_events=events, survival=s))
    return SurvivalCurve(points=tuple(points), tau=points[-1].time_days)


def median_survival(curve: SurvivalCurve) -> float | None:
    """Smallest time where survival falls to 0.5 or below; None when the
    curve never gets there."""
    for p in curve.points:
        if p.survival <= 0.5 + _LEVEL_EPS:
            return p.time_days
    return None


def restricted_mean(curve: SurvivalCurve, tau: float | None = None) -> tuple[float, float]:
    """Area under the survival step function on [0, tau], with its standard
    error from the Greenwood-style variance
    sum_i A_i^2 * d_i / (n_i * (n_i - d_i)) over event times t_i <= tau,
    where A_i is the area under S on [t_i, tau] (terms with n_i == d_i are
    skipped).

    Runs in O(curve points): the step segments are built once, the area is
    their forward sum, and a suffix sum of the segment areas filled from the
    back gives each A_i by lookup, since every curve time below tau starts
    a segment (and A_i is 0 at tau itself).
    """
    if tau is None:
        tau = curve.tau
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if tau > curve.tau:
        raise ValueError(f"tau {tau} exceeds the observed horizon {curve.tau}")

    # step segments of S on [0, tau]
    prev_time = 0.0
    level = 1.0
    segments = []  # (start, end, level) covering [0, tau]
    for p in curve.points:
        if p.time_days >= tau:
            break
        if p.time_days > prev_time:
            segments.append((prev_time, p.time_days, level))
        prev_time = p.time_days
        level = p.survival
    if tau > prev_time:
        segments.append((prev_time, tau, level))
    area = sum((end - start) * lvl for start, end, lvl in segments)

    tail_area = [0.0] * len(segments)  # area under S from segment k's start to tau
    running = 0.0
    for k in range(len(segments) - 1, -1, -1):
        start, end, lvl = segments[k]
        running += (end - start) * lvl
        tail_area[k] = running

    variance = 0.0
    k = 0
    for p in curve.points:
        if p.time_days >= tau:
            break
        while segments[k][0] < p.time_days:
            k += 1
        if 0 < p.n_events < p.n_at_risk:
            variance += tail_area[k] ** 2 * p.n_events / (p.n_at_risk * (p.n_at_risk - p.n_events))
    return area, math.sqrt(variance)


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
    found = curve.points[0].n_at_risk
    removed = sum(p.n_events for p in curve.points)
    if curve.tau > 0:
        rmean, se = restricted_mean(curve)
    else:
        # every instance was first seen in the final snapshot: zero horizon
        rmean, se = 0.0, 0.0
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
    observed: tuple[int, int]
    expected: tuple[float, float]
    warning: str | None = None


def _chi2_sf_1df(x: float) -> float:
    return math.erfc(math.sqrt(x / 2.0))


def log_rank(pairs_a: Iterable[tuple[float, bool]], pairs_b: Iterable[tuple[float, bool]]) -> LogRankResult:
    """Two-group log-rank test.

    At each distinct pooled event time, the expected events in group A follow
    the hypergeometric mean n_A * d / n with variance
    d * (n_A/n) * (1 - n_A/n) * (n - d) / (n - 1) (skipped when n == 1); the
    statistic (O_A - E_A)^2 / V is chi-square with 1 degree of freedom.
    """
    pairs_a, pairs_b = list(pairs_a), list(pairs_b)
    if not pairs_a or not pairs_b:
        raise ValueError("both groups must be non-empty")

    durs_a = sorted(t for t, _ in pairs_a)
    durs_b = sorted(t for t, _ in pairs_b)
    events_a: dict[float, int] = {}
    events_b: dict[float, int] = {}
    for t, event in pairs_a:
        if event:
            events_a[t] = events_a.get(t, 0) + 1
    for t, event in pairs_b:
        if event:
            events_b[t] = events_b.get(t, 0) + 1
    event_times = sorted(set(events_a) | set(events_b))
    if not event_times:
        raise ValueError("test undefined: no events in the pooled data")

    observed_a = 0
    expected_a = 0.0
    variance = 0.0
    total_events = 0
    for t in event_times:
        n_a = len(durs_a) - bisect_left(durs_a, t)
        n_b = len(durs_b) - bisect_left(durs_b, t)
        n = n_a + n_b
        d_a = events_a.get(t, 0)
        d = d_a + events_b.get(t, 0)
        observed_a += d_a
        expected_a += n_a * d / n
        total_events += d
        if n > 1:
            share = n_a / n
            variance += d * share * (1.0 - share) * (n - d) / (n - 1)

    diff = observed_a - expected_a
    statistic = diff * diff / variance if variance > 0 else 0.0
    p_value = _chi2_sf_1df(statistic)
    warning = None
    if sum(events_a.values()) == 0 or sum(events_b.values()) == 0:
        warning = "a group has no observed events; the test is unreliable"
    return LogRankResult(
        statistic=statistic,
        p_value=p_value,
        observed=(observed_a, total_events - observed_a),
        expected=(expected_a, total_events - expected_a),
        warning=warning,
    )


class GroupComparison(NamedTuple):
    """One two-way partition, analysed once.

    curves holds a KM curve for each non-empty group; an empty group's
    summary is None. test is None exactly when error says why.
    """

    partition: str
    labels: tuple[str, str]
    curves: dict[str, SurvivalCurve]
    summaries: dict[str, GroupSummary | None]
    test: LogRankResult | None
    error: str | None


def compare_groups(records: list[SurvivalRecord], partition: str) -> GroupComparison:
    """Curves, summaries and log-rank over a two-way partition of the records.

    partition="scope" splits localized vs scattered; partition="timeframe"
    splits on the records' timeframe field, which for view 1 must already be
    the truncated sub-study records from assign_timeframes. An empty group
    or a pooled sample without events leaves the test undefined.
    """
    if partition == "scope":
        labels = ("localized", "scattered")
        group_of = lambda r: r.scope.value
    elif partition == "timeframe":
        labels = ("1", "2")
        group_of = lambda r: str(r.timeframe)
    else:
        raise ValueError(f"unknown partition {partition!r}")

    groups: dict[str, list[tuple[float, bool]]] = {label: [] for label in labels}
    for record in records:
        label = group_of(record)
        if label not in groups:
            raise ValueError(f"record outside partition {partition}: {label!r}")
        groups[label].append((record.duration_days, record.event_observed))

    curves = {label: kaplan_meier(groups[label]) for label in labels if groups[label]}
    summaries = {label: summarize(curves[label]) if label in curves else None for label in labels}
    test = error = None
    empty = [label for label in labels if label not in curves]
    if empty:
        error = f"empty group: {empty[0]}"
    else:
        try:
            test = log_rank(groups[labels[0]], groups[labels[1]])
        except ValueError as exc:
            error = str(exc)
    return GroupComparison(
        partition=partition,
        labels=labels,
        curves=curves,
        summaries=summaries,
        test=test,
        error=error,
    )
