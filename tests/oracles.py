"""Independent brute-force oracles the test suite checks the package against.

Everything here is deliberately written from the definitions, by full scans,
sharing no code with the package.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from collections import Counter
from typing import NamedTuple

from smellsurv.errors import ReportParseError


def km_oracle(pairs: list[tuple[float, bool]]) -> list[tuple[float, int, int, float]]:
    """Product-limit curve by definition.

    At every distinct observed time t: n = #{duration >= t} (so subjects
    censored at t still count, i.e. events are processed before censorings),
    d = #(events at t), and the survival level multiplies by (1 - d/n).
    Returns (time, n_at_risk, n_events, survival) rows.
    """
    rows = []
    s = 1.0
    for t in sorted({t for t, _ in pairs}):
        n = sum(1 for u, _ in pairs if u >= t)
        d = sum(1 for u, e in pairs if u == t and e)
        if d:
            s = s * (1.0 - d / n)
        rows.append((t, n, d, s))
    return rows


def logrank_oracle(
    group_a: list[tuple[float, bool]],
    group_b: list[tuple[float, bool]],
) -> tuple[float, float]:
    """Two-group log-rank statistic and p-value from the defining sums."""
    pooled_event_times = sorted(
        {t for t, e in group_a if e} | {t for t, e in group_b if e}
    )
    observed = 0.0
    expected = 0.0
    variance = 0.0
    for t in pooled_event_times:
        n_a = sum(1 for u, _ in group_a if u >= t)
        n_b = sum(1 for u, _ in group_b if u >= t)
        n = n_a + n_b
        d_a = sum(1 for u, e in group_a if u == t and e)
        d_b = sum(1 for u, e in group_b if u == t and e)
        d = d_a + d_b
        observed += d_a
        expected += n_a * d / n
        if n > 1:
            variance += d * (n_a / n) * (1.0 - n_a / n) * (n - d) / (n - 1)
    if variance > 0:
        statistic = (observed - expected) ** 2 / variance
    else:
        statistic = 0.0
    return statistic, math.erfc(math.sqrt(statistic / 2.0))


def rmean_oracle(pairs: list[tuple[float, bool]], tau: float) -> float:
    """Area under the product-limit curve on [0, tau] by fine-grained
    rectangle summation over the step boundaries."""
    rows = km_oracle(pairs)
    boundaries = [0.0] + [t for t, _, _, _ in rows if t < tau] + [tau]
    area = 0.0
    for left, right in zip(boundaries, boundaries[1:]):
        level = 1.0
        for t, _, _, s in rows:
            if t <= left:
                level = s
        area += (right - left) * level
    return area


def rmean_se_oracle(pairs: list[tuple[float, bool]], tau: float) -> float:
    """Standard error of the restricted mean on [0, tau] from its defining
    sum: for each event time t <= tau with d < n, the area A under the
    product-limit curve on [t, tau], integrated by full scan, contributes
    A^2 * d / (n * (n - d)) to the variance."""
    rows = km_oracle(pairs)
    variance = 0.0
    for t, n, d, _ in rows:
        if t > tau or d == 0 or d == n:
            continue
        boundaries = [t] + [u for u, _, _, _ in rows if t < u < tau] + [tau]
        tail = 0.0
        for left, right in zip(boundaries, boundaries[1:]):
            level = 1.0
            for u, _, _, s in rows:
                if u <= left:
                    level = s
            tail += (right - left) * level
        variance += tail * tail * d / (n * (n - d))
    return math.sqrt(variance)


def presence_runs(bits: str, gap_tolerance: int) -> list[tuple[int, int]]:
    """Maximal presence runs over a 0/1 string, bridging internal absences
    of at most gap_tolerance versions. Returns (first_idx, last_present_idx)
    pairs."""
    present = [i for i, b in enumerate(bits) if b == "1"]
    if not present:
        return []
    runs = []
    start = prev = present[0]
    for i in present[1:]:
        if i - prev - 1 <= gap_tolerance:
            prev = i
        else:
            runs.append((start, prev))
            start = prev = i
    runs.append((start, prev))
    return runs


def records_oracle(
    bits: str,
    timestamps: list,
    gap_tolerance: int,
) -> list[tuple[int, int, int, float]]:
    """Expected survival records for one key's presence string.

    Returns (first_idx, last_present_idx, censored, duration_days) rows.
    A run whose last presence is the final version is still alive
    (censored=0, measured to the final timestamp); any other run was removed
    (censored=1, dated at the version right after its last presence).
    """
    final = len(bits) - 1
    rows = []
    for start, last in presence_runs(bits, gap_tolerance):
        if last == final:
            censored = 0
            end = timestamps[final]
        else:
            censored = 1
            end = timestamps[last + 1]
        duration = (end - timestamps[start]).total_seconds() / 86400.0
        rows.append((start, last, censored, duration))
    return rows


# rule -> (metric field, entity kinds), in the declaration order that orders
# one entity's occurrences
RULE_DEFINITIONS = {
    "ExcessiveMethodLength": ("loc", {"method", "function"}),
    "ExcessiveClassLength": ("loc", {"class"}),
    "ExcessiveParameterList": ("parameter_count", {"method", "function"}),
    "DepthOfInheritance": ("depth_of_inheritance", {"class"}),
    "CouplingBetweenObjects": ("coupling", {"class"}),
    "NumberOfChildren": ("children_count", {"class"}),
}


def rules_oracle(entities: list[dict], thresholds: dict[str, float]) -> list[tuple[str, str, str]]:
    """(file, entity_path, rule) of every entity and rule where the rule
    applies to the entity's kind and the metric is strictly above the
    threshold, sorted by file, entity path and rule declaration order.

    Entities are code-model objects: "kind", "name", "file", an optional
    "parent" and optional metric fields that default to 0.
    """
    order = list(RULE_DEFINITIONS)
    fired = []
    for entity in entities:
        path = f"{entity['parent']}/{entity['name']}" if entity.get("parent") else entity["name"]
        for rule, threshold in thresholds.items():
            metric, kinds = RULE_DEFINITIONS[rule]
            if entity["kind"] in kinds and entity.get(metric, 0) > threshold:
                fired.append((entity["file"], path, order.index(rule), rule))
    return [(file, path, rule) for file, path, _, rule in sorted(fired)]


class Violation(NamedTuple):
    """One violation as the oracles read it: its (rule, file, entity_path)
    group and its lines."""

    rule: str
    file: str
    entity_path: str
    begin_line: int | None = None
    end_line: int | None = None


def pmd_report_oracle(document: bytes, strip_prefix: str | None = None) -> tuple[list[Violation], Counter]:
    """A PMD report read through a whole ElementTree, as the package once did.

    Only the rule ids and the error type come from the package. Returns the
    sorted violations and the per-rule count of skipped ones, or raises
    ReportParseError (with the byte offset of a malformed document, computed
    from expat's line and column: lines break at CR LF, CR and LF, and a
    column counts characters).
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, column = exc.position
        text = document.decode("utf-8", "surrogateescape")
        line_starts = [0] + [m.end() for m in re.finditer(r"\r\n?|\n", text)]
        offset = len(text[: line_starts[line - 1] + column].encode("utf-8", "surrogateescape"))
        raise ReportParseError(f"malformed at byte offset {offset}: {exc.msg}", byte_offset=offset) from exc

    def local_name(tag: str) -> str:
        return tag.rsplit("}", 1)[-1]

    def normalize(path: str) -> str:
        unified = path.replace("\\", "/")
        if strip_prefix:
            prefix = strip_prefix.replace("\\", "/")
            if not prefix.endswith("/"):
                prefix += "/"
            if unified.startswith(prefix):
                return unified[len(prefix):]
            if unified == prefix[:-1]:
                return ""
        return unified

    if local_name(root.tag) != "pmd":
        raise ReportParseError(f"expected root element 'pmd', found {root.tag!r}")
    order = list(RULE_DEFINITIONS)
    occurrences = []
    skipped = Counter()
    for file_el in root:
        if local_name(file_el.tag) != "file":
            continue
        file_path = normalize(file_el.get("name", ""))
        for violation in file_el:
            if local_name(violation.tag) != "violation":
                continue
            rule = violation.get("rule", "")
            if rule not in RULE_DEFINITIONS:
                skipped[rule] += 1
                continue
            parts = [violation.get(attr) for attr in ("package", "class", "method", "function")]
            begin, end = violation.get("beginline"), violation.get("endline")
            try:
                # a line is 1 to 640 of the ten ASCII digits, nothing around them
                if not all(re.fullmatch("[0-9]{1,640}", line) for line in (begin, end) if line is not None):
                    raise ValueError
                begin_line = int(begin) if begin is not None else None
                end_line = int(end) if end is not None else None
            except ValueError:
                raise ReportParseError(f"bad lines {begin!r}, {end!r} in {file_path!r}") from None
            if begin_line is not None and end_line is not None and begin_line > end_line:
                raise ReportParseError(f"lines {begin_line} > {end_line} in {file_path!r}")
            occurrences.append(
                Violation(rule, file_path, "/".join(p for p in parts if p), begin_line, end_line)
            )
    occurrences.sort(
        key=lambda o: (
            o.file,
            o.begin_line if o.begin_line is not None else -1,
            o.end_line if o.end_line is not None else -1,
            order.index(o.rule),
            o.entity_path,
        )
    )
    return occurrences, skipped


def keys_oracle(occurrences: list[Violation]) -> list[tuple]:
    """(rule, file, entity_path, ordinal) of each violation, parallel to the
    input, as the package once keyed a version: within each (rule, file,
    entity_path) group, ordinals follow ascending begin_line, then end_line,
    where a missing line sorts as -1 and ties keep input order."""
    groups: dict[tuple, list[int]] = {}
    for idx, occ in enumerate(occurrences):
        groups.setdefault((occ.rule, occ.file, occ.entity_path), []).append(idx)
    ordinals = [0] * len(occurrences)
    for members in groups.values():
        members.sort(
            key=lambda i: (
                -1 if occurrences[i].begin_line is None else occurrences[i].begin_line,
                -1 if occurrences[i].end_line is None else occurrences[i].end_line,
            )
        )
        for ordinal, i in enumerate(members):
            ordinals[i] = ordinal
    return [(occ.rule, occ.file, occ.entity_path, ordinal) for occ, ordinal in zip(occurrences, ordinals)]


def rename_pairs_oracle(removed: set[tuple], added: set[tuple]) -> list[tuple[tuple, tuple]]:
    """(removed, added) rename pairs of (rule, file, entity_path, ordinal)
    keys, by the heuristic's definition: additions are taken in (file,
    entity_path, ordinal) order, and each takes the not yet taken removal of
    equal rule and equal non-empty entity path in another file that has the
    smallest (file, ordinal)."""
    taken = set()
    pairs = []
    for addition in sorted(added, key=lambda a: (a[1], a[2], a[3])):
        rule, file, entity_path, _ = addition
        if not entity_path:
            continue
        candidates = [
            r for r in removed
            if r not in taken and r[0] == rule and r[2] == entity_path and r[1] != file
        ]
        if candidates:
            match = min(candidates, key=lambda r: (r[1], r[3]))
            taken.add(match)
            pairs.append((match, addition))
    return pairs


def survival_records_oracle(history, gap_tolerance: int, rename_heuristic: bool) -> list[tuple]:
    """Survival records of a history by the eager loop the package once ran.

    Every key opens a run [born key, first index, last present index]. With
    rename_heuristic, before version i is read, each (old, new) pair that
    rename_pairs_oracle finds between versions i-1 and i hands old's open run
    to new, unless new already has an open run. After version i is read,
    every run absent for more than gap_tolerance versions is closed. A run
    closed before the final version is a removal dated at the version after
    its last presence; any other is measured to the final timestamp.
    Returns (key, first_version, first_date, last_present_version, end_date,
    duration_days, timeframe) tuples, sorted by file, entity path, rule
    declaration order, ordinal and first date.
    """
    snapshots = history.snapshots
    start, final = snapshots[0].timestamp, snapshots[-1].timestamp
    split = start + (final - start) / 2
    final_idx = len(snapshots) - 1
    records = []

    def close(key, first_idx, last_idx):
        first = snapshots[first_idx]
        end_date = snapshots[last_idx + 1].timestamp if last_idx < final_idx else None
        duration = ((end_date or final) - first.timestamp).total_seconds() / 86400.0
        records.append((
            key, first.version_id, first.timestamp, snapshots[last_idx].version_id,
            end_date, duration, 1 if first.timestamp < split else 2,
        ))

    open_runs = {}
    for idx, snap in enumerate(snapshots):
        if idx > 0 and rename_heuristic:
            previous, current = set(snapshots[idx - 1].keys), set(snap.keys)
            for old, new in rename_pairs_oracle(previous - current, current - previous):
                if old in open_runs and new not in open_runs:
                    open_runs[new] = open_runs.pop(old)
        for key in snap.keys:
            if key in open_runs:
                open_runs[key][2] = idx
            else:
                open_runs[key] = [key, idx, idx]
        for key in [key for key, run in open_runs.items() if idx - run[2] > gap_tolerance]:
            close(*open_runs.pop(key))
    for run in open_runs.values():
        close(*run)
    order = list(RULE_DEFINITIONS)
    return sorted(records, key=lambda r: (r[0][1], r[0][2], order.index(r[0][0]), r[0][3], r[2]))
