"""The version model (a History of VersionSnapshots, each holding the keys
of its report's occurrences), and turning its key sets into survival records.

An instance is identified by (rule, file, entity path, ordinal); the ordinal
separates multiple same-rule occurrences in one entity and is assigned by
line order within each version, so pure line shifts do not break identity.
A file or class rename DOES break identity and shows up as one removal plus
one addition; the optional rename heuristic re-joins such pairs.

A key seen at version index idx continues its latest run, last present at
index last, when idx - last <= gap_tolerance + 1, and starts a new one
otherwise; a run's end is read off its last index once all are read.

Lifetime bookkeeping follows the removal convention: censored=1 means the
instance disappeared (the event was observed, dated at the first version
where it is absent), censored=0 means it is still present in the final
snapshot. An event is end_date being set, read here alone: the statistics get
(duration, event observed) pairs from assign_scopes and assign_timeframes.
"""

from __future__ import annotations

from datetime import datetime
from typing import NamedTuple

from .rules import RULES, Occurrence, _RULE_ORDER, scope_of


class InstanceKey(NamedTuple):
    rule: str
    file: str
    entity_path: str
    ordinal: int


class SizeMetrics(NamedTuple):
    lloc: int
    loc: int | None = None
    classes: int | None = None


class VersionSnapshot(NamedTuple):
    """One version: the instance key of each occurrence in its report."""

    version_id: str
    timestamp: datetime
    keys: tuple[InstanceKey, ...]
    size: SizeMetrics


class History(NamedTuple):
    """Snapshots of one application, ordered by strictly increasing timestamp."""

    app_name: str
    snapshots: tuple[VersionSnapshot, ...]


class TrackingOptions(NamedTuple):
    gap_tolerance: int = 0  # >= 0: the CLI refuses any other
    rename_heuristic: bool = False


class SurvivalRecord(NamedTuple):
    """One run of presence; end_date is set exactly when its removal was
    observed, so censored is read from it."""

    key: InstanceKey
    first_version: str
    first_date: datetime
    last_present_version: str
    end_date: datetime | None
    duration_days: float

    @property
    def censored(self) -> int:
        return 0 if self.end_date is None else 1


def assign_keys(occurrences: list[Occurrence], known: dict | None = None) -> list[InstanceKey]:
    """Keys for one version's occurrences, parallel to the input list.

    Ordinals count up from 0 within each (rule, file, entity_path) group, in
    list order. The loaders list a group in line order: ascending begin_line,
    then end_line, with occurrences without line info first, in document
    order.

    One ``known`` table passed for many versions maps each key to itself,
    so each key is built once and every version that holds it shares that
    object. The plain (rule, file, entity_path, ordinal) tuple looked up
    equals and hashes like its key.
    """
    known = {} if known is None else known
    counts: dict[Occurrence, int] = {}
    keys = []
    for group in occurrences:
        ordinal = counts.get(group, 0)
        counts[group] = ordinal + 1
        key = known.get(group + (ordinal,))
        if key is None:
            key = InstanceKey(*group, ordinal)
            known[key] = key
        keys.append(key)
    return keys


def apply_rename_heuristic(
    removed_keys: set[InstanceKey],
    added_keys: set[InstanceKey],
) -> list[tuple[InstanceKey, InstanceKey]]:
    """Pair removals with additions that look like renames in one transition.

    A pair needs equal rule, equal non-empty entity path, and differing
    files. Matching is greedy and deterministic: additions are handled in
    (file, entity_path, ordinal) order and each takes the candidate removal
    with the lexicographically smallest (file, ordinal); every key is
    matched at most once.
    """
    # a key sorts by (rule, file, entity_path, ordinal): removals that share
    # (rule, entity_path) sort by (file, ordinal), and the additions of one
    # rule, which alone compete for them, by (file, entity_path, ordinal)
    by_identity: dict[tuple[str, str], list[InstanceKey]] = {}
    for key in removed_keys:
        if key.entity_path:
            by_identity.setdefault((key.rule, key.entity_path), []).append(key)
    for candidates in by_identity.values():
        candidates.sort()

    pairs = []
    for added in sorted(added_keys):
        candidates = by_identity.get((added.rule, added.entity_path), ())
        match = next((c for c in candidates if c.file != added.file), None)
        if match is None:
            continue
        candidates.remove(match)
        pairs.append((match, added))
    return pairs


def _days_between(start: datetime, end: datetime) -> float:
    return (end - start).total_seconds() / 86400.0


def split_instant(history: History) -> datetime:
    """Temporal midpoint of the observation span: first timestamp plus half
    the distance to the last."""
    first = history.snapshots[0].timestamp
    last = history.snapshots[-1].timestamp
    return first + (last - first) / 2


def build_survival_records(
    history: History,
    options: TrackingOptions = TrackingOptions(),
) -> list[SurvivalRecord]:
    """Decompose each key's presence across versions into survival records.

    Each maximal run of presence (bridging absences of at most gap_tolerance
    consecutive versions) yields one record: a key seen at version index idx
    continues its latest run, last present at index last, exactly when
    idx - last <= gap_tolerance + 1. A key that disappears and returns beyond
    the tolerance starts a new record. A run that ends before the last
    snapshot is an observed removal (censored=1) dated at the first version
    where the key is absent; a run alive in the final snapshot is censored=0
    and measured to the last observation date.
    """
    snapshots = history.snapshots
    final_idx = len(snapshots) - 1
    reach = options.gap_tolerance + 1

    # a run is [the key it was born under, first index, last present index];
    # latest maps a key to the last run it belonged to, live or not
    latest: dict[InstanceKey, list] = {}
    runs: list[list] = []
    # the rename heuristic builds each version's set once and keeps the last one
    previous = set(snapshots[0].keys) if options.rename_heuristic else None
    for idx, snap in enumerate(snapshots):
        if idx > 0 and options.rename_heuristic:
            current = set(snap.keys)
            for old, new in apply_rename_heuristic(previous - current, current - previous):
                # old was present in the last version, so its run is live; a
                # live, gap-bridged run of new keeps its identity instead and
                # the removal stays a removal
                run = latest.get(new)
                if run is None or idx - run[2] > reach:
                    latest[new] = latest.pop(old)
            previous = current

        for key in snap.keys:
            run = latest.get(key)
            if run is None or idx - run[2] > reach:
                runs.append([key, idx, idx])
                latest[key] = runs[-1]
            else:
                run[2] = idx

    final = snapshots[final_idx].timestamp
    records = []
    for key, first_idx, last_idx in runs:
        first = snapshots[first_idx]
        # a run absent from the final snapshot was removed, dated at its first absence
        end_date = snapshots[last_idx + 1].timestamp if last_idx < final_idx else None
        records.append(
            SurvivalRecord(
                key=key,
                first_version=first.version_id,
                first_date=first.timestamp,
                last_present_version=snapshots[last_idx].version_id,
                end_date=end_date,
                duration_days=_days_between(first.timestamp, end_date or final),
            )
        )

    records.sort(key=lambda r: (r.key.file, r.key.entity_path, _RULE_ORDER[r.key.rule], r.key.ordinal, r.first_date))
    return records


def assign_scopes(records: list[SurvivalRecord]) -> dict[str, list[tuple[float, bool]]]:
    """Each record's (duration, event observed) pair under its rule's scope,
    in input order; the scopes come in rule order, so the first rule's is
    log-rank's group A."""
    scopes: dict[str, list[tuple[float, bool]]] = {scope_of(rule): [] for rule in RULES}
    for r in records:
        scopes[scope_of(r.key.rule)].append((r.duration_days, r.end_date is not None))
    return scopes


def timeframe_of(first_date: datetime, split: datetime) -> str:
    """Timeframe of a record born at first_date: "1" before the split, "2" at or after it."""
    return "1" if first_date < split else "2"


def assign_timeframes(records: list[SurvivalRecord], split: datetime) -> dict[str, list[tuple[float, bool]]]:
    """Split records at the split instant into two sub-study views of
    (duration, event observed) pairs, in input order.

    Timeframe "1" holds records born before the split, re-censored as if the
    study ended there: a removal observed after the split (or never) becomes
    censored=0 with its duration measured to the split, and one dated at the
    split stays observed. Timeframe "2" holds records born at or after the
    split, unchanged.
    """
    views: dict[str, list[tuple[float, bool]]] = {"1": [], "2": []}
    for r in records:
        side = timeframe_of(r.first_date, split)
        if side == "2" or (r.end_date is not None and r.end_date <= split):
            views[side].append((r.duration_days, r.end_date is not None))
        else:
            views["1"].append((_days_between(r.first_date, split), False))
    return views
