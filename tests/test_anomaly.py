from __future__ import annotations

import math
import random
import re
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings, strategies as st

from smellsurv.anomaly import (
    AnomalyThresholds,
    DensityPoint,
    change_rate,
    density_series,
    flag_anomalies,
    metric_change_rates,
)
from smellsurv.ingest import History, SizeMetrics, VersionSnapshot
from smellsurv.svgplot import threshold_chart
from smellsurv.tracking import InstanceKey, split_instant

from conftest import ts


def make_history(counts, llocs, locs=None, classes=None, app="demo"):
    snapshots = []
    for i, (count, lloc) in enumerate(zip(counts, llocs)):
        snapshots.append(
            VersionSnapshot(
                version_id=f"v{i + 1}",
                timestamp=ts(30 * i),
                keys=tuple(InstanceKey("ExcessiveMethodLength", "src/a.php", f"e{j}", 0) for j in range(count)),
                size=SizeMetrics(
                    lloc=lloc,
                    loc=locs[i] if locs else None,
                    classes=classes[i] if classes else None,
                ),
            )
        )
    return History(app_name=app, snapshots=tuple(snapshots))


def point(version, delta_rho):
    return DensityPoint(
        version_id=version, timestamp=ts(0), cs_count=1, lloc=1000,
        rho=0.001, delta_cs=delta_rho, delta_lloc=0.0, delta_rho=delta_rho,
    )


# ---------------------------------------------------------------------------
# change_rate
# ---------------------------------------------------------------------------

def test_change_rate_basic_arithmetic():
    assert change_rate(100, 150) == 0.5
    assert change_rate(200, 100) == -0.5
    assert change_rate(46753, 46753) == 0.0


def test_change_rate_zero_previous():
    assert change_rate(0, 0) == 0.0
    assert math.isinf(change_rate(0, 7))


def test_change_rate_past_the_float_range_is_infinite():
    # counts may hold 640 digits, so their quotient can pass the float range
    assert change_rate(1, 10**400) == math.inf
    assert change_rate(1, int("9" * 640)) == math.inf
    assert change_rate(10**400, 1) == -1.0


# ---------------------------------------------------------------------------
# density series
# ---------------------------------------------------------------------------

def test_density_series_spec_arithmetic():
    history = make_history([100, 130], [50_000, 52_000])
    series = density_series(history)
    assert series[0].rho == pytest.approx(0.002, abs=1e-15)
    assert (series[0].delta_cs, series[0].delta_lloc, series[0].delta_rho) == (None, None, None)
    assert series[1].rho == pytest.approx(0.0025, abs=1e-15)
    assert series[1].delta_cs == pytest.approx(0.3, abs=1e-12)
    assert series[1].delta_lloc == pytest.approx(0.04, abs=1e-12)
    assert series[1].delta_rho == pytest.approx(0.25, abs=1e-12)


def test_constant_series_has_zero_deltas():
    history = make_history([7, 7, 7], [4000, 4000, 4000])
    series = density_series(history)
    assert [(p.delta_cs, p.delta_lloc, p.delta_rho) for p in series[1:]] == [(0.0, 0.0, 0.0)] * 2


def test_density_identity_on_random_series():
    rng = random.Random(99)
    counts = [rng.randint(0, 400) for _ in range(50)]
    llocs = [rng.randint(1000, 2000) for _ in range(50)]
    series = density_series(make_history(counts, llocs))
    for p in series[1:]:
        if p.delta_cs is None or math.isinf(p.delta_cs):
            continue
        assert p.delta_rho == pytest.approx(
            (1 + p.delta_cs) / (1 + p.delta_lloc) - 1, abs=1e-12
        )


def test_uniform_scaling_behaviour():
    rng = random.Random(31)
    counts = [rng.randint(1, 50) for _ in range(12)]
    llocs = [rng.randint(1000, 2000) for _ in range(12)]
    base = density_series(make_history(counts, llocs))
    lloc_scaled = density_series(make_history(counts, [4 * l for l in llocs]))
    both_scaled = density_series(make_history([3 * c for c in counts], [3 * l for l in llocs]))
    for b, ls, bs in zip(base, lloc_scaled, both_scaled):
        assert ls.rho == pytest.approx(b.rho / 4, rel=1e-12)
        assert bs.rho == pytest.approx(b.rho, rel=1e-12)
        if b.delta_rho is not None:
            # scaling either or both inputs uniformly leaves the change rate alone
            assert ls.delta_rho == pytest.approx(b.delta_rho, abs=1e-12)
            assert bs.delta_rho == pytest.approx(b.delta_rho, abs=1e-12)
            assert ls.delta_lloc == pytest.approx(b.delta_lloc, abs=1e-12)


def test_a_version_exactly_on_a_threshold_flags_it():
    # counts 100 -> 150 at constant size is exactly +50%; at lloc 7 the two
    # rounded densities give a ratio just under 1.5
    assert (150 / 7) / (100 / 7) - 1 < 0.5
    series = density_series(make_history([100, 150], [7, 7]))
    assert series[1].delta_rho == 0.5
    assert [(f.version_id, f.kind) for f in flag_anomalies(series)] == [("v2", "increase_50")]


def test_a_density_rise_past_the_float_range_is_infinite():
    series = density_series(make_history([1, 1], [10**400, 1]))
    assert (series[1].delta_cs, series[1].delta_lloc, series[1].delta_rho) == (0.0, -1.0, math.inf)
    assert [f.kind for f in flag_anomalies(series)] == ["increase_100"]


def test_smells_appearing_from_zero():
    history = make_history([0, 7], [1000, 1000])
    series = density_series(history)
    assert math.isinf(series[1].delta_cs)
    assert math.isinf(series[1].delta_rho)


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

def test_flag_classification():
    series = [point("v1", None), point("v2", 0.6), point("v3", 1.2), point("v4", -0.49), point("v5", -0.6)]
    flags = flag_anomalies(series)
    assert [(f.version_id, f.kind) for f in flags] == [
        ("v2", "increase_50"),
        ("v3", "increase_100"),
        ("v5", "decrease_50"),
    ]


def test_flag_boundaries_inclusive():
    series = [point("v1", None), point("a", 0.5), point("b", 1.0), point("c", -0.5)]
    kinds = {f.version_id: f.kind for f in flag_anomalies(series)}
    assert kinds == {
        "a": "increase_50",
        "b": "increase_100",
        "c": "decrease_50",
    }


def test_infinite_increase_is_strongest_flag():
    flags = flag_anomalies([point("v1", None), point("v2", math.inf)])
    assert [f.kind for f in flags] == ["increase_100"]


def test_first_version_never_flagged():
    assert flag_anomalies([point("v1", None)]) == []


def test_quiet_series_has_no_flags():
    series = [point("v1", None)] + [point(f"v{i}", d) for i, d in enumerate([0.49, -0.49, 0.2, 0.0], start=2)]
    assert flag_anomalies(series) == []


deltas = st.one_of(
    st.none(),
    st.floats(min_value=-1.0, max_value=4.0, allow_nan=False),
    st.just(math.inf),
)


@settings(max_examples=100, deadline=None)
@given(
    series=st.lists(deltas, min_size=1, max_size=30),
    up=st.floats(min_value=0.05, max_value=1.0),
    raise_by=st.floats(min_value=0.0, max_value=1.0),
    down=st.floats(min_value=-1.0, max_value=-0.05),
    lower_by=st.floats(min_value=0.0, max_value=1.0),
)
def test_flag_monotonicity_under_threshold_changes(series, up, raise_by, down, lower_by):
    points = [point("v0", None)] + [point(f"v{i + 1}", d) for i, d in enumerate(series)]
    base = AnomalyThresholds(up=up, up2=max(2.0, up), down=down)
    stricter = AnomalyThresholds(up=up + raise_by, up2=max(2.0, up + raise_by), down=down - lower_by)

    def increases(thresholds):
        return {f.version_id for f in flag_anomalies(points, thresholds) if f.kind != "decrease_50"}

    def decreases(thresholds):
        return {f.version_id for f in flag_anomalies(points, thresholds) if f.kind == "decrease_50"}

    assert increases(stricter) <= increases(base)
    assert decreases(stricter) <= decreases(base)


# ---------------------------------------------------------------------------
# metric change rates
# ---------------------------------------------------------------------------

def test_table_style_change_rates():
    history = make_history(
        [5, 5, 5],
        [40_000, 46_753, 66_364],
        locs=[190_000, 204_496, 301_748],
        classes=[100, 225, 1174],
    )
    # v2 is the last snapshot at or before the split, v3 the last overall
    rates = metric_change_rates(history, split_instant(history))
    assert round(rates["d_lloc"], 2) == 0.42
    assert round(rates["d_classes"], 2) == 4.22
    assert round(rates["d_loc"], 2) == 0.48


def test_missing_optional_metrics_are_unavailable_not_fatal():
    history = make_history([5, 5], [1000, 1200])
    rates = metric_change_rates(history, split_instant(history))
    assert rates["d_loc"] is None
    assert rates["d_classes"] is None
    assert rates["d_lloc"] == pytest.approx(0.2)


def test_identical_endpoints_give_zero_rates():
    history = make_history([5, 5], [1000, 1000], locs=[2000, 2000], classes=[10, 10])
    rates = metric_change_rates(history, split_instant(history))
    assert (rates["d_loc"], rates["d_lloc"], rates["d_classes"]) == (0.0, 0.0, 0.0)


BIG = sys.float_info.max


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.just(math.inf), st.floats(-1.0, BIG)), max_size=5),
    st.floats(-BIG, 0.0, exclude_max=True),
    st.floats(0.0, BIG, exclude_min=True),
    st.floats(0.0, BIG, exclude_min=True),
)
@example([math.inf, 0.1], -0.5, 1e308, 1.7e308)
@example([1.5e308, math.inf], -0.5, 0.5, 1.0)  # a finite rate this large comes from llocs past 1e308
@example([-1.0, math.inf], -BIG, BIG, BIG)
def test_every_number_the_threshold_chart_writes_is_finite(rates, down, up, up2):
    # any thresholds the CLI accepts: finite, down < 0 < up <= up2
    up, up2 = sorted((up, up2))
    chart = ET.fromstring("".join(threshold_chart([None, *rates], AnomalyThresholds(up, up2, down), "x")))
    for element in chart.iter():
        for value in element.attrib.values():
            assert all(math.isfinite(float(n)) for n in re.findall(r"[-+]?(?:[0-9.]+|nan|inf)", value))
        if element.text != "inf":  # the marker above an infinite rate
            assert not re.search("nan|inf", element.text or "")
