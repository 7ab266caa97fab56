"""Per-version change rates of smell counts, size, and smell density.

The density of a version is total occurrences divided by logical lines of
code; its relative change between consecutive versions is the anomaly
signal, flagged against the +50% / +100% / -50% thresholds. A previous
count of zero maps to 0 (nothing appeared) or +infinity (smells appeared
out of nowhere, treated as the strongest increase).
"""

from __future__ import annotations

import math
from datetime import datetime
from typing import NamedTuple

from .tracking import History, SizeMetrics


def change_rate(prev: float, cur: float) -> float:
    """Relative change cur/prev - 1; 0 -> 0 gives 0.0, and 0 -> positive or a
    quotient of two counts past the float range gives +infinity."""
    if prev > 0:
        try:
            return cur / prev - 1.0
        except OverflowError:  # counts may hold 640 digits
            return math.inf
    return 0.0 if cur == 0 else math.inf


class DensityPoint(NamedTuple):
    version_id: str
    timestamp: datetime
    cs_count: int
    lloc: int
    rho: float
    delta_cs: float | None
    delta_lloc: float | None
    delta_rho: float | None


def density_series(history: History) -> list[DensityPoint]:
    """Per-version count, density, and consecutive change rates.

    The first version has no predecessor, so its deltas are undefined. The
    density change is the change rate of the integer cross products
    prev.cs * lloc -> cs * prev.lloc rather than of the two rounded
    densities: a version sitting exactly on a threshold (say counts 100 ->
    150 at constant size) then classifies exactly.
    """
    points: list[DensityPoint] = []
    for snap in history.snapshots:
        cs_count = len(snap.keys)
        lloc = snap.size.lloc
        if points:
            prev = points[-1]
            deltas = (
                change_rate(prev.cs_count, cs_count),
                change_rate(prev.lloc, lloc),
                change_rate(prev.cs_count * lloc, cs_count * prev.lloc),
            )
        else:
            deltas = (None, None, None)
        points.append(
            DensityPoint(
                version_id=snap.version_id,
                timestamp=snap.timestamp,
                cs_count=cs_count,
                lloc=lloc,
                rho=cs_count / lloc,
                delta_cs=deltas[0],
                delta_lloc=deltas[1],
                delta_rho=deltas[2],
            )
        )
    return points


class AnomalyThresholds(NamedTuple):
    """Flag limits on delta_rho; the CLI keeps down < 0 < up <= up2."""

    up: float = 0.5
    up2: float = 1.0
    down: float = -0.5


class AnomalyFlag(NamedTuple):
    version_id: str
    kind: str  # "increase_50", "increase_100" or "decrease_50"
    delta_rho: float


# the kinds flag_anomalies assigns that fail a gate: both increases
GATE_FAILING_KINDS = frozenset({"increase_50", "increase_100"})


def flag_anomalies(
    series: list[DensityPoint],
    thresholds: AnomalyThresholds = AnomalyThresholds(),
) -> list[AnomalyFlag]:
    """One flag per version whose density change crosses a threshold.

    Crossings are inclusive (a change of exactly +50% flags); an infinite
    increase counts as the strongest one. The first version is never
    flagged: it has no change rate.
    """
    flags = []
    for point in series:
        delta = point.delta_rho
        if delta is None:
            continue
        if delta >= thresholds.up2:
            kind = "increase_100"
        elif delta >= thresholds.up:
            kind = "increase_50"
        elif delta <= thresholds.down:
            kind = "decrease_50"
        else:
            continue
        flags.append(AnomalyFlag(version_id=point.version_id, kind=kind, delta_rho=delta))
    return flags


def metric_change_rates(history: History, split: datetime) -> dict[str, float | None]:
    """Size change between the last version at or before the split (the
    temporal midpoint) and the last version overall, one d_<metric> per
    SizeMetrics field. A rate is None when the metric is missing at either
    endpoint."""
    start = [snap for snap in history.snapshots if snap.timestamp <= split][-1].size
    end = history.snapshots[-1].size
    return {
        f"d_{m}": None if a is None or b is None else change_rate(a, b)
        for m, a, b in zip(SizeMetrics._fields, start, end)
    }
