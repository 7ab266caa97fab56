from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smellsurv.anomaly import AnomalyFlag, AnomalyThresholds, DensityPoint
from smellsurv.ingest import History, PmdParseResult, SizeMetrics, VersionSnapshot, _ManifestRow, parse_pmd_report
from smellsurv.report import analyze_history
from smellsurv.rules import RULES, CodeEntity, SmellRule
from smellsurv.survival import CurvePoint, GroupComparison, GroupSummary, LogRankResult
from smellsurv.tracking import (
    InstanceKey,
    TrackingOptions,
    apply_rename_heuristic,
    assign_keys,
    assign_timeframes,
    build_survival_records,
    split_instant,
)

from conftest import history_from_bits, occurrence, record, ts
from oracles import records_oracle, rename_pairs_oracle, survival_records_oracle


def key_of(records, entity_path):
    matches = [r for r in records if r.key.entity_path == entity_path]
    assert matches, f"no record for {entity_path}"
    return matches


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def test_distinct_entities_get_distinct_keys():
    keys = assign_keys([occurrence(entity_path="A/m1"), occurrence(entity_path="A/m2")])
    assert keys[0] != keys[1]
    assert {k.ordinal for k in keys} == {0}


def parsed_keys(*violations: str) -> list[InstanceKey]:
    """Keys of a one-file PMD report holding the given violation elements."""
    doc = f'<pmd><file name="a.php">{"".join(violations)}</file></pmd>'
    return assign_keys(parse_pmd_report(doc.encode()).occurrences)


def test_line_shift_keeps_key():
    before = parsed_keys('<violation beginline="100" endline="220" rule="ExcessiveMethodLength" class="A" method="m1"/>')
    after = parsed_keys('<violation beginline="130" endline="250" rule="ExcessiveMethodLength" class="A" method="m1"/>')
    assert before == after


def test_ordinals_follow_line_order():
    # the parser lists violations in line order, whatever the document's order,
    # so m's ordinals count from its violation at line 10
    keys = parsed_keys(
        '<violation beginline="200" endline="260" rule="ExcessiveMethodLength" class="A" method="m"/>',
        '<violation beginline="100" endline="160" rule="ExcessiveMethodLength" class="A" method="n"/>',
        '<violation beginline="10" endline="60" rule="ExcessiveMethodLength" class="A" method="m"/>',
    )
    assert [(k.entity_path, k.ordinal) for k in keys] == [("A/m", 0), ("A/n", 0), ("A/m", 1)]


def test_assign_keys_fields():
    keys = assign_keys([occurrence(rule="NumberOfChildren", file="x.php", entity_path="C")] * 3)
    assert keys[2] == InstanceKey("NumberOfChildren", "x.php", "C", 2)
    assert hash(keys[2]) == hash(InstanceKey("NumberOfChildren", "x.php", "C", 2))


def k(rule="ExcessiveClassLength", file="old.php", entity="C", ordinal=0):
    return InstanceKey(rule, file, entity, ordinal)


SNAPSHOT = VersionSnapshot("v1", ts(0), (k(),), SizeMetrics(lloc=10))
LATER_SNAPSHOT = VersionSnapshot("v2", ts(10), (), SizeMetrics(lloc=10))
POINT = CurvePoint(time_days=10.0, n_at_risk=2, n_events=1, survival=0.5)

# one value of each immutable value type, and one of its fields
VALUES = [
    (CodeEntity("class", "C", "c.php"), "loc"),
    (InstanceKey("NumberOfChildren", "x.php", "C", 0), "ordinal"),
    (SizeMetrics(lloc=10), "lloc"),
    (SNAPSHOT, "version_id"),
    (History("demo", (SNAPSHOT, LATER_SNAPSHOT)), "snapshots"),
    (PmdParseResult([], Counter()), "occurrences"),
    (_ManifestRow(2, "v1", ts(0), SizeMetrics(lloc=10), Path("r.xml")), "row"),
    (SmellRule("NumberOfChildren", 15), "threshold"),
    (TrackingOptions(), "gap_tolerance"),
    (record(5, True), "end_date"),
    (POINT, "survival"),
    (GroupSummary(2, 1, 0.5, 10.0, 7.5, 2.5), "found"),
    (LogRankResult(1.0, 0.3), "p_value"),
    (GroupComparison("scope", {}, {}, "empty group: localized"), "test"),
    (DensityPoint("v1", ts(0), 1, 10, 0.1, None, None, None), "rho"),
    (AnomalyThresholds(), "up"),
    (AnomalyFlag("v2", "increase_50", 0.6), "kind"),
    (analyze_history(history_from_bits({"A/m": "110"}, days=[0, 10, 20])), "records"),
]
VALUE_IDS = [type(value).__name__ for value, _ in VALUES]


@pytest.mark.parametrize("value, field", VALUES, ids=VALUE_IDS)
def test_value_types_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 1)


@pytest.mark.parametrize("value, field", VALUES, ids=VALUE_IDS)
def test_value_types_carry_no_instance_dict(value, field):
    # a subclass of a NamedTuple without __slots__ = () gets a __dict__ per instance
    with pytest.raises(AttributeError):
        value.extra = 1


# ---------------------------------------------------------------------------
# survival records
# ---------------------------------------------------------------------------

def test_never_removed_key_is_censored_zero():
    history = history_from_bits({"A/m": "111"}, days=[0, 40, 100])
    records = build_survival_records(history)
    assert len(records) == 1
    r = records[0]
    assert r.censored == 0
    assert r.end_date is None
    assert r.duration_days == 100.0
    assert (r.first_version, r.last_present_version) == ("v1", "v3")


def test_removed_key_dated_at_first_absent_version():
    history = history_from_bits({"A/m": "110"}, days=[0, 40, 100])
    r = build_survival_records(history)[0]
    assert r.censored == 1
    assert r.end_date == ts(100)
    assert r.duration_days == 100.0
    assert r.last_present_version == "v2"


def test_gap_tolerance_bridges_one_version_hole():
    history = history_from_bits({"A/m": "10111"}, days=[0, 10, 20, 30, 40])
    strict = build_survival_records(history, TrackingOptions(gap_tolerance=0))
    assert [(r.first_version, r.censored, r.duration_days) for r in strict] == [
        ("v1", 1, 10.0),
        ("v3", 0, 20.0),
    ]
    bridged = build_survival_records(history, TrackingOptions(gap_tolerance=1))
    assert [(r.first_version, r.censored, r.duration_days) for r in bridged] == [("v1", 0, 40.0)]


def test_trailing_gap_within_tolerance_still_counts_as_removal():
    history = history_from_bits({"A/m": "110"}, days=[0, 10, 20])
    records = build_survival_records(history, TrackingOptions(gap_tolerance=2))
    assert [(r.censored, r.duration_days) for r in records] == [(1, 20.0)]


def test_disjoint_lives_make_multiple_records():
    history = history_from_bits({"A/m": "1100110"}, days=[0, 10, 20, 30, 40, 50, 60])
    records = build_survival_records(history)
    assert [(r.first_version, r.last_present_version, r.censored) for r in records] == [
        ("v1", "v2", 1),
        ("v5", "v6", 1),
    ]


# ---------------------------------------------------------------------------
# rename heuristic
# ---------------------------------------------------------------------------

def test_rename_pairs_on_matching_rule_and_entity():
    pairs = apply_rename_heuristic({k(file="old.php")}, {k(file="new.php")})
    assert pairs == [(k(file="old.php"), k(file="new.php"))]


def test_no_pair_on_rule_mismatch():
    removed = {k(rule="ExcessiveClassLength", file="a.php")}
    added = {k(rule="NumberOfChildren", file="b.php")}
    assert apply_rename_heuristic(removed, added) == []


def test_no_pair_on_empty_entity_path():
    assert apply_rename_heuristic({k(entity="")}, {k(entity="", file="new.php")}) == []


def test_two_removals_one_addition_smallest_file_wins():
    removed = {k(file="zzz.php"), k(file="aaa.php")}
    added = {k(file="new.php")}
    pairs = apply_rename_heuristic(removed, added)
    assert pairs == [(k(file="aaa.php"), k(file="new.php"))]


# few rules, files, entity paths and ordinals, so that keys often compete
rename_keys = st.builds(
    InstanceKey,
    st.sampled_from(RULES[:3]),
    st.sampled_from(["a.php", "b.php", "c.php"]),
    st.sampled_from(["", "A", "B/m"]),
    st.integers(min_value=0, max_value=2),
)


@settings(max_examples=300, deadline=None)
@given(removed=st.sets(rename_keys, max_size=12), added=st.sets(rename_keys, max_size=12))
def test_rename_pairs_match_the_brute_force_oracle(removed, added):
    assert sorted(apply_rename_heuristic(removed, added)) == sorted(rename_pairs_oracle(removed, added))


def test_rename_splices_instance_across_file_move():
    history = history_from_bits(
        {"unused": "111"}, days=[0, 50, 120], rule="ExcessiveMethodLength"
    )
    # rebuild by hand: class C long in old.php for v1-v2, then in new.php for v3
    def snap(version, day, file):
        return VersionSnapshot(version, ts(day), (k(file=file),), SizeMetrics(lloc=1000))

    history = History("renamed", (snap("v1", 0, "old.php"), snap("v2", 50, "old.php"), snap("v3", 120, "new.php")))
    plain = build_survival_records(history)
    assert [(r.key.file, r.censored) for r in plain] == [("new.php", 0), ("old.php", 1)]
    spliced = build_survival_records(history, TrackingOptions(rename_heuristic=True))
    assert len(spliced) == 1
    r = spliced[0]
    assert (r.key.file, r.censored, r.duration_days) == ("old.php", 0, 120.0)
    assert (r.first_version, r.last_present_version) == ("v1", "v3")


def history_from_placed_bits(bits_by_place: dict[tuple[str, str, str], str]) -> History:
    """History in which the key of rule at (file, entity path) is present in
    version i exactly when its bit string has '1' at i."""
    n_versions = len(next(iter(bits_by_place.values())))
    return History(
        "placed",
        tuple(
            VersionSnapshot(
                f"v{i + 1}",
                ts(10.0 * i),
                tuple(k(rule, file, entity) for (file, entity, rule), bits in bits_by_place.items() if bits[i] == "1"),
                SizeMetrics(lloc=1000),
            )
            for i in range(n_versions)
        ),
    )


def test_rename_onto_a_gap_bridged_key_leaves_the_removal():
    # new.php::C is absent in v2 only, bridged by gap_tolerance=1; when
    # old.php::C disappears as new.php::C returns, the pair looks like a
    # rename, but new.php::C keeps its own run and old.php::C is removed
    rule = "ExcessiveClassLength"
    history = history_from_placed_bits({
        ("old.php", "C", rule): "1100",
        ("new.php", "C", rule): "1011",
    })
    records = build_survival_records(history, TrackingOptions(gap_tolerance=1, rename_heuristic=True))
    assert [(r.key.file, r.first_version, r.last_present_version, r.censored, r.duration_days) for r in records] == [
        ("new.php", "v1", "v4", 0, 30.0),
        ("old.php", "v1", "v2", 1, 20.0),
    ]


@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.text(alphabet="01", min_size=6, max_size=6), min_size=1, max_size=12),
    gap_tolerance=st.integers(min_value=0, max_value=2),
)
def test_rename_heuristic_is_inert_when_no_entity_changes_file(bits, gap_tolerance):
    # entity E<i> always lives in the same file, so no removal can pair
    # with an addition in a different file
    history = history_from_placed_bits({
        (f"f{i % 3}.php", f"E{i}", RULES[i % 2]): b for i, b in enumerate(bits)
    })
    plain = build_survival_records(history, TrackingOptions(gap_tolerance=gap_tolerance))
    renamed = build_survival_records(
        history, TrackingOptions(gap_tolerance=gap_tolerance, rename_heuristic=True)
    )
    assert renamed == plain


@st.composite
def churning_histories(draw):
    """Histories of 1-10 versions over keys in 2-3 files, so that keys
    vanish, return across gaps and move between files."""
    files = ["a.php", "b.php", "c.php"][: draw(st.integers(min_value=2, max_value=3))]
    pool = st.builds(
        InstanceKey,
        st.sampled_from(RULES[:2]),
        st.sampled_from(files),
        st.sampled_from(["", "A", "B/m"]),
        st.integers(min_value=0, max_value=1),
    )
    versions = draw(st.lists(st.sets(pool, max_size=8), min_size=1, max_size=10))
    steps = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=len(versions), max_size=len(versions)))
    return History("churn", tuple(
        VersionSnapshot(f"v{i + 1}", ts(sum(steps[: i + 1])), tuple(sorted(keys)), SizeMetrics(lloc=1000))
        for i, keys in enumerate(versions)
    ))


@settings(max_examples=500, deadline=None)
@given(
    history=churning_histories(),
    gap_tolerance=st.integers(min_value=0, max_value=3),
    rename_heuristic=st.booleans(),
)
def test_records_match_the_eager_tracking_oracle(history, gap_tolerance, rename_heuristic):
    options = TrackingOptions(gap_tolerance=gap_tolerance, rename_heuristic=rename_heuristic)
    assert build_survival_records(history, options) == survival_records_oracle(history, gap_tolerance, rename_heuristic)


@pytest.mark.parametrize("rename_heuristic", [False, True])
def test_build_survival_records_holds_each_version_as_a_list(rename_heuristic):
    # 100 versions of about 2,000 keys each; tracking over the keys themselves
    # holds about 5 bytes per key in a version, and any per-version copy of
    # the history, even as a list of int ids, about 14 or more
    keys = [InstanceKey("ExcessiveMethodLength", f"src/f{i % 50}.php", f"C{i}/m", 0) for i in range(2400)]
    snapshots = tuple(
        VersionSnapshot(
            version_id=f"v{v}",
            timestamp=ts(7 * v),
            keys=tuple(key for i, key in enumerate(keys) if (i + v) % 200 < 190 and i < 2000 + 4 * v),
            size=SizeMetrics(lloc=10_000),
        )
        for v in range(100)
    )
    history = History(app_name="synthetic", snapshots=snapshots)
    tracemalloc.start()
    try:
        records = build_survival_records(history, TrackingOptions(rename_heuristic=rename_heuristic))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 3348
    assert peak < 10 * sum(len(snap.keys) for snap in snapshots)


# ---------------------------------------------------------------------------
# timeframes
# ---------------------------------------------------------------------------

def test_split_instant_is_temporal_midpoint():
    history = history_from_bits({"A/m": "11"}, days=[0, 100])
    assert split_instant(history) == ts(50)


def test_timeframe_views():
    # split at day 50; E1 born day 0 removed day 80 (after split), E2 born day 60
    history = history_from_bits({"E1": "1110", "E2": "0011"}, days=[0, 30, 60, 100])
    records = build_survival_records(history)
    truncated, late = assign_timeframes(records, history)
    assert [r.key.entity_path for r in (truncated, late)] == ["E1", "E2"]
    assert truncated.censored == 0
    assert truncated.end_date is None
    assert truncated.duration_days == 50.0
    assert truncated.timeframe == 1
    assert late is records[1]
    assert late.timeframe == 2
    assert late.duration_days == 40.0


def test_removal_before_split_stays_observed_in_view1():
    history = history_from_bits({"E1": "1100"}, days=[0, 10, 40, 100])
    records = build_survival_records(history)
    assert assign_timeframes(records, history) == records
    assert [(r.censored, r.duration_days, r.timeframe) for r in records] == [(1, 40.0, 1)]


def test_record_born_exactly_at_split_goes_to_view2():
    history = history_from_bits({"E1": "1001", "E2": "0101"}, days=[0, 50, 80, 100])
    records = build_survival_records(history)
    views = assign_timeframes(records, history)
    # E2's first run starts at day 50 == split
    assert [(r.first_date, r.timeframe) for r in views if r.key.entity_path == "E2"] == [(ts(50), 2), (ts(100), 2)]


def test_empty_records_make_empty_views():
    history = history_from_bits({"E1": "00"}, days=[0, 10])
    assert assign_timeframes([], history) == []


# ---------------------------------------------------------------------------
# oracle comparison and conservation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gap_tolerance", [0, 1, 2])
def test_records_match_bitstring_oracle(gap_tolerance):
    rng = random.Random(20240 + gap_tolerance)
    days = sorted(rng.sample(range(0, 3000), 40))
    bits_by_key = {
        f"K{i:03d}": "".join(rng.choice("01") for _ in range(40)) for i in range(60)
    }
    history = history_from_bits(bits_by_key, days=[float(d) for d in days])
    records = build_survival_records(history, TrackingOptions(gap_tolerance=gap_tolerance))
    version_index = {f"v{i + 1}": i for i in range(40)}
    timestamps = [ts(float(d)) for d in days]

    got = sorted(
        (r.key.entity_path, version_index[r.first_version], version_index[r.last_present_version],
         r.censored, r.duration_days)
        for r in records
    )
    expected = sorted(
        (key, first, last, censored, duration)
        for key, bits in bits_by_key.items()
        for first, last, censored, duration in records_oracle(bits, timestamps, gap_tolerance)
    )
    assert got == expected


def test_conservation_against_raw_counts():
    rng = random.Random(7)
    bits_by_key = {f"K{i}": "".join(rng.choice("01") for _ in range(25)) for i in range(30)}
    history = history_from_bits(bits_by_key, days=[float(3 * i) for i in range(25)])
    records = build_survival_records(history)
    version_index = {f"v{i + 1}": i for i in range(25)}
    for v, snap in enumerate(history.snapshots):
        open_at_v = sum(
            1
            for r in records
            if version_index[r.first_version] <= v <= version_index[r.last_present_version]
        )
        assert open_at_v == len(snap.keys)


@settings(max_examples=100, deadline=None)
@given(
    bits=st.text(alphabet="01", min_size=2, max_size=24),
    gap_tolerance=st.integers(min_value=0, max_value=3),
)
def test_single_key_runs_equal_oracle(bits, gap_tolerance):
    history = history_from_bits({"K": bits}, days=[float(7 * i) for i in range(len(bits))])
    records = build_survival_records(history, TrackingOptions(gap_tolerance=gap_tolerance))
    timestamps = [ts(float(7 * i)) for i in range(len(bits))]
    expected = records_oracle(bits, timestamps, gap_tolerance)
    got = [
        (int(r.first_version[1:]) - 1, int(r.last_present_version[1:]) - 1, r.censored, r.duration_days)
        for r in records
    ]
    assert sorted(got) == sorted(expected)
    # the removal convention: censored=0 exactly when present in the final snapshot
    for r in records:
        if r.censored == 0:
            assert bits[-1] == "1" and r.last_present_version == f"v{len(bits)}"
    # durations never run backwards, in the whole study or in either timeframe view
    for r in records + assign_timeframes(records, history):
        assert r.duration_days >= 0
        assert r.end_date is None or r.end_date > r.first_date
