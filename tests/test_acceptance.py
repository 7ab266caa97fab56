"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rP to see them when green)."""

from __future__ import annotations

import csv
import filecmp
import math
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smellsurv.anomaly import AnomalyThresholds, change_rate, density_series, flag_anomalies
from smellsurv.cli import EXIT_OK, main
from smellsurv.ingest import History, SizeMetrics, VersionSnapshot
from smellsurv.report import analyze_history
from smellsurv.rules import RULES, scope_of
from smellsurv.survival import kaplan_meier, log_rank, median_survival, restricted_mean, summarize
from smellsurv.tracking import InstanceKey, TrackingOptions, build_survival_records

from conftest import history_from_bits, ts
from oracles import km_oracle, logrank_oracle, records_oracle
from test_anomaly import make_history

TRIAPP = Path(__file__).parent / "data" / "triapp"


def report(criterion: str, ok: bool = True):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------
# 1. oracle equivalence for the survival statistics
# ---------------------------------------------------------------------------

def test_criterion_1_survival_oracle_equivalence():
    rng = random.Random(1958)
    started = time.monotonic()
    for _ in range(1000):
        n_a = rng.randint(1, 20)
        n_b = rng.randint(1, 20)

        def draw(n):
            out = []
            for _ in range(n):
                if rng.random() < 0.5:
                    t = float(rng.randint(0, 100))  # integer times force ties
                else:
                    t = rng.uniform(0.0, 100.0)
                out.append((t, rng.random() < 0.6))
            return out

        group_a = draw(n_a)
        group_b = draw(n_b)
        if not any(e for _, e in group_a + group_b):
            group_a[0] = (group_a[0][0], True)

        for pairs in (group_a, group_b, group_a + group_b):
            curve = kaplan_meier(pairs)
            oracle_rows = km_oracle(pairs)
            assert len(curve) == len(oracle_rows)
            for p, (t, n, d, s) in zip(curve, oracle_rows):
                assert p.time_days == t and p.n_at_risk == n and p.n_events == d
                assert abs(p.survival - s) <= 1e-12

        result = log_rank(kaplan_meier(group_a), kaplan_meier(group_b))
        stat, p_value = logrank_oracle(group_a, group_b)
        assert abs(result.statistic - stat) <= 1e-9
        assert abs(result.p_value - p_value) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report("1 (survival statistics match brute-force oracles, 1000 datasets)")


# ---------------------------------------------------------------------------
# 2. tracking round-trip against the bitstring oracle
# ---------------------------------------------------------------------------

def _random_walk_bits(rng: random.Random, length: int) -> str:
    state = rng.random() < 0.4
    bits = []
    for _ in range(length):
        if rng.random() < 0.25:
            state = not state
        bits.append("1" if state else "0")
    return "".join(bits)


@pytest.fixture(scope="module")
def big_synthetic():
    rng = random.Random(20_26)
    n_versions, n_keys = 100, 1000
    days = sorted(rng.sample(range(0, 5000), n_versions))
    bits_by_key = {f"K{i:04d}": _random_walk_bits(rng, n_versions) for i in range(n_keys)}
    history = history_from_bits(bits_by_key, days=[float(d) for d in days])
    return history, bits_by_key, [ts(float(d)) for d in days]


def test_criterion_2_tracking_round_trip(big_synthetic):
    history, bits_by_key, timestamps = big_synthetic
    started = time.monotonic()
    for gap_tolerance in (0, 1, 2):
        records = build_survival_records(history, TrackingOptions(gap_tolerance=gap_tolerance))
        expected = []
        for key, bits in bits_by_key.items():
            for first, last, censored, duration in records_oracle(bits, timestamps, gap_tolerance):
                expected.append((key, first, censored, duration))
        expected.sort()
        got = sorted(
            (r.key.entity_path, int(r.first_version[1:]) - 1, r.censored, r.duration_days)
            for r in records
        )
        assert got == expected  # found count, removal flags, and every duration
        found = len(records)
        removed = sum(r.censored for r in records)
        assert found == len(expected)
        assert removed == sum(1 for _, _, censored, _ in expected if censored)
        assert removed / found == pytest.approx(
            sum(1 for _, _, c, _ in expected if c) / len(expected), abs=0
        )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report("2 (bitstring round-trip, 100 versions x 1000 keys, gaps 0/1/2)")


# ---------------------------------------------------------------------------
# 3. censoring convention
# ---------------------------------------------------------------------------

def test_criterion_3_censoring_convention(big_synthetic):
    history, bits_by_key, _ = big_synthetic
    final_version = history.snapshots[-1].version_id
    for gap_tolerance in (0, 1, 2):
        records = build_survival_records(history, TrackingOptions(gap_tolerance=gap_tolerance))
        alive_keys = {r.key.entity_path for r in records if r.censored == 0}
        present_final = {key for key, bits in bits_by_key.items() if bits[-1] == "1"}
        assert alive_keys == present_final
        for r in records:
            if r.censored == 0:
                assert r.last_present_version == final_version
                assert r.end_date is None
            else:
                assert r.end_date is not None
    report("3 (censored=0 exactly for keys present in the final snapshot)")


# ---------------------------------------------------------------------------
# 4. anomaly arithmetic
# ---------------------------------------------------------------------------

def test_criterion_4_anomaly_arithmetic():
    rng = random.Random(451)
    for _ in range(20):
        counts = [rng.randint(0, 400) for _ in range(50)]
        llocs = [rng.randint(1000, 2000) for _ in range(50)]
        series = density_series(make_history(counts, llocs))
        for p in series[1:]:
            if p.delta_cs is None or math.isinf(p.delta_cs):
                continue
            identity = (1 + p.delta_cs) / (1 + p.delta_lloc) - 1
            assert abs(p.delta_rho - identity) <= 1e-12

    # boundary grid, constant lloc so delta_rho == delta_cs exactly
    grid = [
        (150, "increase_50"),   # +0.50 exactly
        (199, "increase_50"),   # +0.99
        (200, "increase_100"),  # +1.00 exactly
        (320, "increase_100"),  # +2.20
        (149, None),                      # +0.49
        (51, None),                       # -0.49
        (50, "decrease_50"),    # -0.50 exactly
        (20, "decrease_50"),    # -0.80
        (100, None),                      # 0
    ]
    for cur, expected_kind in grid:
        series = density_series(make_history([100, cur], [1000, 1000]))
        flags = flag_anomalies(series)
        kinds = [f.kind for f in flags]
        assert kinds == ([expected_kind] if expected_kind else []), f"100 -> {cur}"
    # smells out of nowhere: strongest increase
    flags = flag_anomalies(density_series(make_history([0, 3], [1000, 1000])))
    assert [f.kind for f in flags] == ["increase_100"]
    report("4 (density identity to 1e-12 and threshold grid incl. +/-0.5, 1.0)")


# ---------------------------------------------------------------------------
# 5. published change-rate spot check
# ---------------------------------------------------------------------------

def test_criterion_5_change_rate_spot_check():
    assert round(change_rate(46_753, 66_364), 2) == 0.42
    assert round(change_rate(225, 1174), 2) == 4.22
    report("5 (published LLOC and class change rates reproduced)")


# ---------------------------------------------------------------------------
# 6. external dataset reproduction (optional)
# ---------------------------------------------------------------------------

DATASET_ENV = "SMELLSURV_DATASET"


def _load_external_records(directory: Path):
    """Best-effort reader for the published per-app survival CSVs: looks for
    duration, censoring, and smell/type columns by name."""
    duration_names = {"duration", "duration_days", "time", "days", "survival"}
    censor_names = {"censored", "censor", "status", "event"}
    type_names = {"type", "scope", "smelltype"}
    out = []
    for path in sorted(directory.glob("*.csv")):
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            cols = {name.lower().strip(): name for name in reader.fieldnames or []}
            dur = next((cols[n] for n in cols if n in duration_names), None)
            cen = next((cols[n] for n in cols if n in censor_names), None)
            typ = next((cols[n] for n in cols if n in type_names), None)
            if dur is None or cen is None:
                continue
            for row in reader:
                try:
                    duration = float(row[dur])
                    event = int(float(row[cen]))
                except (TypeError, ValueError):
                    continue
                scope = (row.get(typ) or "").strip().lower() if typ else ""
                out.append((duration, event == 1, scope))
    return out


def test_criterion_6_external_dataset_reproduction():
    directory = os.environ.get(DATASET_ENV)
    if not directory:
        pytest.skip(
            f"external dataset not available; set {DATASET_ENV} to its directory "
            "(criteria 1-4 stand in for this check)"
        )
    rows = _load_external_records(Path(directory))
    assert rows, "no survival rows recognized in the dataset directory"
    pooled = [(d, e) for d, e, _ in rows]
    summary = summarize(kaplan_meier(pooled))
    assert summary.found == 5757
    assert summary.removed == 3447
    assert round(summary.pct_removed, 2) == 0.60
    assert abs(summary.median_days - 1458) <= 1
    localized = [(d, e) for d, e, s in rows if "local" in s]
    scattered = [(d, e) for d, e, s in rows if "scatter" in s]
    if localized and scattered:
        assert abs(median_survival(kaplan_meier(localized)) - 1418) <= 1
        assert abs(median_survival(kaplan_meier(scattered)) - 1812) <= 1
    report("6 (published dataset reproduction)")


# ---------------------------------------------------------------------------
# 7. invariant suite (>= 200 random cases each)
# ---------------------------------------------------------------------------

pair_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
    min_size=1,
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(a=pair_lists, b=pair_lists)
def test_criterion_7a_logrank_rank_invariance(a, b):
    a = [(float(t), e) for t, e in a]
    b = [(float(t), e) for t, e in b]
    if not any(e for _, e in a + b):
        a = a + [(3.0, True)]
    base = log_rank(kaplan_meier(a), kaplan_meier(b))
    for transform in (lambda t: t * t, lambda t: math.log1p(t)):
        mapped = log_rank(
            kaplan_meier([(transform(t), e) for t, e in a]),
            kaplan_meier([(transform(t), e) for t, e in b]),
        )
        assert abs(mapped.statistic - base.statistic) <= 1e-9
        assert abs(mapped.p_value - base.p_value) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    pairs=pair_lists,
    scale=st.floats(min_value=0.01, max_value=1000.0, allow_nan=False),
)
def test_criterion_7b_scale_equivariance(pairs, scale):
    pairs = [(float(t), e) for t, e in pairs]
    scaled = [(t * scale, e) for t, e in pairs]
    base_curve = kaplan_meier(pairs)
    scaled_curve = kaplan_meier(scaled)

    base_median = median_survival(base_curve)
    scaled_median = median_survival(scaled_curve)
    if base_median is None:
        assert scaled_median is None
    else:
        assert scaled_median == base_median * scale

    if base_curve[-1].time_days > 0:
        base_rmean, _ = restricted_mean(base_curve)
        scaled_rmean, _ = restricted_mean(scaled_curve)
        assert math.isclose(scaled_rmean, base_rmean * scale, rel_tol=1e-9, abs_tol=1e-9)

    assert summarize(base_curve).pct_removed == summarize(scaled_curve).pct_removed


@settings(max_examples=200, deadline=None)
@given(pairs=pair_lists)
def test_criterion_7c_curve_validity(pairs):
    curve = kaplan_meier([(float(t), e) for t, e in pairs])
    level = 1.0
    last_time = -1.0
    for p in curve:
        assert p.time_days > last_time
        assert 0.0 <= p.survival <= 1.0
        assert p.survival <= level + 1e-15
        level = p.survival
        last_time = p.time_days


deltas = st.one_of(
    st.none(),
    st.floats(min_value=-1.0, max_value=4.0, allow_nan=False),
    st.just(math.inf),
)


@settings(max_examples=200, deadline=None)
@given(
    series=st.lists(deltas, min_size=1, max_size=40),
    up=st.floats(min_value=0.05, max_value=1.0),
    raise_by=st.floats(min_value=0.0, max_value=1.0),
    down=st.floats(min_value=-1.0, max_value=-0.05),
    lower_by=st.floats(min_value=0.0, max_value=1.0),
)
def test_criterion_7d_flag_monotonicity(series, up, raise_by, down, lower_by):
    from test_anomaly import point

    points = [point("v0", None)] + [point(f"v{i + 1}", d) for i, d in enumerate(series)]
    base = AnomalyThresholds(up=up, up2=max(2.0, up), down=down)
    stricter = AnomalyThresholds(up=up + raise_by, up2=max(2.0, up + raise_by), down=down - lower_by)
    base_flags = flag_anomalies(points, base)
    strict_flags = flag_anomalies(points, stricter)

    def split(flags):
        ups = {f.version_id for f in flags if f.kind != "decrease_50"}
        downs = {f.version_id for f in flags if f.kind == "decrease_50"}
        return ups, downs

    base_up, base_down = split(base_flags)
    strict_up, strict_down = split(strict_flags)
    assert strict_up <= base_up
    assert strict_down <= base_down


def test_criterion_7_report():
    report("7 (rank invariance, scale equivariance, curve validity, flag monotonicity)")


# ---------------------------------------------------------------------------
# 8. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_8_analyze_is_byte_deterministic(tmp_path):
    out_dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out in out_dirs:
        code = main([
            "analyze", "--manifest", str(TRIAPP / "manifest.csv"),
            "--formats", "csv,json,svg", "--out", str(out),
        ])
        assert code == EXIT_OK
    first = sorted(p.relative_to(out_dirs[0]) for p in out_dirs[0].rglob("*") if p.is_file())
    second = sorted(p.relative_to(out_dirs[1]) for p in out_dirs[1].rglob("*") if p.is_file())
    assert first == second and first
    for rel in first:
        assert filecmp.cmp(out_dirs[0] / rel, out_dirs[1] / rel, shallow=False), f"{rel} differs"
        assert (out_dirs[0] / rel).read_bytes() == (out_dirs[1] / rel).read_bytes()
    report("8 (byte-identical bundles across consecutive runs)")


# ---------------------------------------------------------------------------
# 9. calibration of the scope and timeframe tests, end to end
# ---------------------------------------------------------------------------

CALIBRATION_RUNS = 400


def _simulated_history(rng: random.Random, hazard, versions: int = 60, burn_in: int = 40) -> History:
    """A History of `versions` versions 14 days apart, from 20 slots per rule.
    An empty slot gains a new key with probability 0.05 per version; a key
    aged `age` versions is gone at the next version with probability
    hazard(scope, age). The slots run for `burn_in` versions before the first
    snapshot, so the keys present there are aged 0 to `burn_in` versions."""
    present = [[] for _ in range(versions)]
    stay_empty = math.log(0.95)
    serial = 0
    for rule in RULES:
        scope = scope_of(rule)
        for _ in range(20):
            step = int(math.log(1.0 - rng.random()) / stay_empty)  # the slot's first birth
            while step < burn_in + versions:
                key = InstanceKey(rule, "src/a.php", f"k{serial}", 0)
                serial += 1
                age = 0
                while step < burn_in + versions:
                    if step >= burn_in:
                        present[step - burn_in].append(key)
                    step += 1
                    if rng.random() < hazard(scope, age):
                        break
                    age += 1
                step += int(math.log(1.0 - rng.random()) / stay_empty)  # empty until the next birth
    snapshots = [
        VersionSnapshot(f"v{i}", ts(14.0 * i), tuple(keys), SizeMetrics(lloc=1000)) for i, keys in enumerate(present)
    ]
    return History("simulated", tuple(snapshots))


def _rejections(seed: int, hazard, without_first: bool = False) -> Counter:
    """Of CALIBRATION_RUNS simulated histories, how many each test rejects at
    p < 0.05; with without_first, also the timeframe test once every record
    present at the first version is left out ("timeframe_late")."""
    rng = random.Random(seed)
    rejected = Counter()
    for _ in range(CALIBRATION_RUNS):
        history = _simulated_history(rng, hazard)
        bundle = analyze_history(history)
        rejected["scope"] += bundle.scope.test.p_value < 0.05
        rejected["timeframe"] += bundle.timeframe.test.p_value < 0.05
        if without_first:
            first = set(history.snapshots[0].keys)
            late = tuple(s._replace(keys=tuple(k for k in s.keys if k not in first)) for s in history.snapshots)
            late_bundle = analyze_history(history._replace(snapshots=late))
            rejected["timeframe_late"] += late_bundle.timeframe.test.p_value < 0.05
    return rejected


def _within(count: int, rate: float) -> bool:
    """count of CALIBRATION_RUNS lies within 4 binomial standard deviations of rate."""
    spread = 4 * math.sqrt(CALIBRATION_RUNS * rate * (1 - rate))
    return abs(count - CALIBRATION_RUNS * rate) <= spread


# Each rate below was fixed before this criterion's seeds were first run: the
# nominal 5% where a test is calibrated, else the rate of 2,000 histories
# drawn from another seed (79.0% scope power; under the age-dependent hazard,
# 44.0% timeframe and 6.8% scope rejections). A count must lie within 4
# standard deviations of its rate; power only needs to reach that bound.

def test_criterion_9a_both_tests_are_calibrated_under_a_constant_hazard():
    rejected = _rejections(91, lambda scope, age: 0.1)
    assert _within(rejected["scope"], 0.05), rejected
    assert _within(rejected["timeframe"], 0.05), rejected
    report(f"9a (constant hazard: scope and timeframe reject {rejected['scope']} and"
           f" {rejected['timeframe']} of {CALIBRATION_RUNS} at p < 0.05)")


def test_criterion_9b_the_scope_test_finds_a_planted_difference():
    rejected = _rejections(92, lambda scope, age: 0.07 if scope == "scattered" else 0.1)
    spread = 4 * math.sqrt(CALIBRATION_RUNS * 0.79 * 0.21)
    assert rejected["scope"] >= CALIBRATION_RUNS * 0.79 - spread, rejected
    report(f"9b (scattered 0.07 against localized 0.1: scope rejects {rejected['scope']} of {CALIBRATION_RUNS})")


def test_criterion_9c_left_truncation_alone_moves_the_timeframe_test():
    # a hazard that falls with age and never with calendar time: the records
    # present at the first version are older than they are dated, so the
    # timeframe test rejects far above 5% with them and is calibrated without
    rejected = _rejections(93, lambda scope, age: 0.6 / (1 + age), without_first=True)
    assert _within(rejected["timeframe"], 0.44), rejected
    assert _within(rejected["timeframe_late"], 0.05), rejected
    assert _within(rejected["scope"], 0.068), rejected
    report(f"9c (age-dependent hazard: timeframe rejects {rejected['timeframe']} of {CALIBRATION_RUNS},"
           f" {rejected['timeframe_late']} without the records present at the first version)")
