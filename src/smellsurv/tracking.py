"""Keying each version, and turning per-version key sets into survival records.

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
snapshot. The statistics read an observed event as end_date being set.
"""

from __future__ import annotations

from datetime import datetime
from typing import TYPE_CHECKING, NamedTuple

from .rules import Occurrence, _RULE_ORDER

if TYPE_CHECKING:  # ingest imports this module to key each report
    from .ingest import History


class InstanceKey(NamedTuple):
    rule: str
    file: str
    entity_path: str
    ordinal: int


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
    timeframe: int

    @property
    def censored(self) -> int:
        return 0 if self.end_date is None else 1


def assign_keys(occurrences: list[Occurrence], strings: dict | None = None) -> list[InstanceKey]:
    """Keys for one version's occurrences, parallel to the input list.

    Ordinals count up from 0 within each (rule, file, entity_path) group, in
    list order. The loaders list a group in line order: ascending begin_line,
    then end_line, with occurrences without line info first, in document
    order.

    One ``strings`` dict passed for many versions maps each key to itself,
    so each key is built once and every version that holds it shares that
    object. The plain (rule, file, entity_path, ordinal) tuple looked up
    equals and hashes like its key; its int last field never equals the str
    or None last field of the attribute tuples that ``parse_pmd_report``
    keeps in the same dict, and a tuple never equals a str.
    """
    known = {} if strings is None else strings
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
    split = split_instant(history)
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
                timeframe=1 if first.timestamp < split else 2,
            )
        )

    records.sort(key=lambda r: (r.key.file, r.key.entity_path, _RULE_ORDER[r.key.rule], r.key.ordinal, r.first_date))
    return records


def assign_timeframes(records: list[SurvivalRecord], history: History) -> list[SurvivalRecord]:
    """Split records at the temporal midpoint into two sub-study views.

    Timeframe 1 holds records born before the split, re-censored as if the
    study ended there: a removal observed after the split (or never) becomes
    censored=0 with duration measured to the split. Timeframe 2 holds records
    born at or after the split, unchanged. Both come back in one list, in
    input order.
    """
    split = split_instant(history)
    return [
        r if r.first_date >= split or (r.end_date is not None and r.end_date <= split)
        else r._replace(end_date=None, duration_days=_days_between(r.first_date, split))
        for r in records
    ]
