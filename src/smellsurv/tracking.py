"""Keying each version, and turning per-version key sets into survival records.

An instance is identified by (rule, file, entity path, ordinal); the ordinal
separates multiple same-rule occurrences in one entity and is assigned by
line order within each version, so pure line shifts do not break identity.
A file or class rename DOES break identity and shows up as one removal plus
one addition; the optional rename heuristic re-joins such pairs.

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


def assign_keys(occurrences: list[Occurrence]) -> list[InstanceKey]:
    """Keys for one version's occurrences, parallel to the input list.

    Ordinals count up from 0 within each (rule, file, entity_path) group, in
    list order. The loaders list a group in line order: ascending begin_line,
    then end_line, with occurrences without line info first, in document
    order.
    """
    counts: dict[Occurrence, int] = {}
    keys = []
    for group in occurrences:
        ordinal = counts.get(group, 0)
        counts[group] = ordinal + 1
        keys.append(InstanceKey(*group, ordinal))
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
        candidates = by_identity.get((added.rule, added.entity_path))
        if not candidates:
            continue
        match = next((c for c in candidates if c.file != added.file), None)
        if match is None:
            continue
        candidates.remove(match)
        pairs.append((match, added))
    return pairs


class _Run:
    """One open run of presence; key is the key it was born under."""

    __slots__ = ("key", "first_idx", "last_present_idx")

    def __init__(self, key: InstanceKey, first_idx: int, last_present_idx: int):
        self.key = key
        self.first_idx = first_idx
        self.last_present_idx = last_present_idx


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
    consecutive versions) yields one record. A run that ends before the last
    snapshot is an observed removal (censored=1) dated at the first version
    where the key is absent; a run alive in the final snapshot is censored=0
    and measured to the last observation date. A key that disappears and
    returns beyond the tolerance starts a new record.
    """
    snapshots = history.snapshots
    split = split_instant(history)
    final_idx = len(snapshots) - 1

    records: list[SurvivalRecord] = []

    def close_run(run: _Run) -> None:
        # a run absent from the final snapshot was removed, dated at its first absence
        first = snapshots[run.first_idx]
        end_date = snapshots[run.last_present_idx + 1].timestamp if run.last_present_idx < final_idx else None
        duration = _days_between(first.timestamp, end_date or snapshots[final_idx].timestamp)
        records.append(
            SurvivalRecord(
                key=run.key,
                first_version=first.version_id,
                first_date=first.timestamp,
                last_present_version=snapshots[run.last_present_idx].version_id,
                end_date=end_date,
                duration_days=duration,
                timeframe=1 if first.timestamp < split else 2,
            )
        )

    open_runs: dict[InstanceKey, _Run] = {}
    # the rename heuristic builds each version's set once and keeps the last one
    previous = set(snapshots[0].keys) if options.rename_heuristic else None
    for idx, snap in enumerate(snapshots):
        if idx > 0 and options.rename_heuristic:
            current = set(snap.keys)
            for old, new in apply_rename_heuristic(previous - current, current - previous):
                run = open_runs.get(old)
                # new may already carry a gap-bridged run of its own;
                # that run keeps its identity and the removal stays a removal
                if run is None or new in open_runs:
                    continue
                open_runs[new] = open_runs.pop(old)
            previous = current

        for key in snap.keys:
            run = open_runs.get(key)
            if run is None:
                open_runs[key] = _Run(key, idx, idx)
            else:
                run.last_present_idx = idx

        expired = [key for key, run in open_runs.items() if idx - run.last_present_idx > options.gap_tolerance]
        for key in expired:
            close_run(open_runs.pop(key))

    for run in open_runs.values():
        close_run(run)

    records.sort(
        key=lambda r: (
            r.key.file,
            r.key.entity_path,
            _RULE_ORDER[r.key.rule],
            r.key.ordinal,
            r.first_date,
        )
    )
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
