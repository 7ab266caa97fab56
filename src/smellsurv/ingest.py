"""Loading a project's version timeline into an immutable history.

Inputs are a manifest CSV naming one row per analyzed version (timestamp,
violation report, size metrics) plus the per-version reports themselves,
either PMD-format XML or a code-model JSON file that gets run through the
threshold rules.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import ManifestError, ReportParseError, SmellSurvError
from .rules import (
    RuleId,
    SmellOccurrence,
    SmellRule,
    _RULE_ORDER,
    _code_model_entities,
    default_ruleset,
    evaluate_rules,
    load_code_model,
)

MANIFEST_COLUMNS = ("app", "version", "timestamp", "report_path", "lloc")
MANIFEST_OPTIONAL_COLUMNS = ("loc", "classes")


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Bare dates and naive date-times are taken as UTC midnight / UTC.
    """
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    moment = datetime.fromisoformat(cleaned)
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


@dataclass(frozen=True)
class SizeMetrics:
    lloc: int
    loc: int | None = None
    classes: int | None = None

    def __post_init__(self):
        if self.lloc < 1:
            raise ValueError(f"lloc must be >= 1, got {self.lloc}")


@dataclass(frozen=True)
class VersionSnapshot:
    version_id: str
    timestamp: datetime
    occurrences: tuple[SmellOccurrence, ...]
    size: SizeMetrics

    def __post_init__(self):
        for occ in self.occurrences:
            if occ.version_id != self.version_id:
                raise ValueError(
                    f"occurrence tagged {occ.version_id!r} placed in snapshot {self.version_id!r}"
                )


@dataclass(frozen=True)
class History:
    """Snapshots of one application, ordered by strictly increasing timestamp."""

    app_name: str
    snapshots: tuple[VersionSnapshot, ...]

    def __post_init__(self):
        seen = set()
        for snap in self.snapshots:
            if snap.version_id in seen:
                raise ValueError(f"duplicate version id {snap.version_id!r}")
            seen.add(snap.version_id)
        for a, b in zip(self.snapshots, self.snapshots[1:]):
            if not a.timestamp < b.timestamp:
                raise ValueError(
                    f"timestamps not strictly increasing: {a.version_id} !< {b.version_id}"
                )


def normalize_path(path: str, strip_prefix: str | None = None) -> str:
    """Unify separators to '/' and drop a configured leading prefix."""
    unified = path.replace("\\", "/")
    if strip_prefix:
        prefix = strip_prefix.replace("\\", "/")
        if not prefix.endswith("/"):
            prefix += "/"
        if unified.startswith(prefix):
            unified = unified[len(prefix):]
        elif unified == prefix[:-1]:
            unified = ""
    return unified


@dataclass
class PmdParseResult:
    occurrences: list[SmellOccurrence]
    skipped: Counter = field(default_factory=Counter)

    @property
    def skipped_count(self) -> int:
        return sum(self.skipped.values())


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _byte_offset(document: bytes, line: int, column: int) -> int:
    lines = document.split(b"\n")
    return sum(len(l) + 1 for l in lines[: line - 1]) + column


def parse_pmd_report(
    document: bytes | str,
    version_id: str,
    strip_prefix: str | None = None,
) -> PmdParseResult:
    """Extract occurrences of the six rules from a PMD-format XML report.

    Violations of other rules are skipped and counted. Entity paths are
    composed from the package/class/method/function attributes when present;
    identity degrades to file+line when they are absent. An empty report is
    an empty result, not an error.
    """
    data = document.encode("utf-8") if isinstance(document, str) else document
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        offset = _byte_offset(data, line, column)
        raise ReportParseError(
            f"malformed PMD XML at byte offset {offset} (line {line}, column {column}): {exc.msg}",
            byte_offset=offset,
        ) from exc
    if _local_name(root.tag) != "pmd":
        raise ReportParseError(f"expected root element 'pmd', found {root.tag!r}")

    known = {rid.value: rid for rid in RuleId}
    result = PmdParseResult(occurrences=[])
    for file_el in root:
        if _local_name(file_el.tag) != "file":
            continue
        file_path = normalize_path(file_el.get("name", ""), strip_prefix)
        for violation in file_el:
            if _local_name(violation.tag) != "violation":
                continue
            rule_name = violation.get("rule", "")
            rule = known.get(rule_name)
            if rule is None:
                result.skipped[rule_name] += 1
                continue
            parts = [
                violation.get(attr)
                for attr in ("package", "class", "method", "function")
            ]
            entity_path = "/".join(p for p in parts if p)
            begin = violation.get("beginline")
            end = violation.get("endline")
            try:
                result.occurrences.append(
                    SmellOccurrence(
                        rule=rule,
                        file=file_path,
                        entity_path=entity_path,
                        version_id=version_id,
                        begin_line=int(begin) if begin is not None else None,
                        end_line=int(end) if end is not None else None,
                    )
                )
            except ValueError:
                raise ReportParseError(
                    f"violation of {rule_name} in {file_path!r}: beginline {begin!r}"
                    f" and endline {end!r} must be integers, beginline <= endline"
                ) from None
    result.occurrences.sort(
        key=lambda o: (
            o.file,
            o.begin_line if o.begin_line is not None else -1,
            o.end_line if o.end_line is not None else -1,
            _RULE_ORDER[o.rule],
            o.entity_path,
        )
    )
    return result


def _load_report_file(
    path: Path,
    version_id: str,
    rules: list[SmellRule],
    strip_prefix: str | None,
) -> list[SmellOccurrence]:
    """Dispatch on report flavor: PMD XML or code-model JSON.

    Extension decides (.xml vs .json); anything else is sniffed by its first
    non-blank byte.
    """
    suffix = path.suffix.lower()
    if suffix == ".json":
        entities = load_code_model(path)
    else:
        data = path.read_bytes()
        if suffix == ".xml" or data.lstrip()[:1] == b"<":
            try:
                return parse_pmd_report(data, version_id, strip_prefix).occurrences
            except ReportParseError as exc:
                raise ReportParseError(f"PMD report {path}: {exc}", byte_offset=exc.byte_offset) from exc
        entities = _code_model_entities(data, path)
    occurrences = evaluate_rules(entities, rules, version_id)
    if strip_prefix is None:
        return occurrences
    return [
        SmellOccurrence(
            rule=o.rule,
            file=normalize_path(o.file, strip_prefix),
            entity_path=o.entity_path,
            version_id=o.version_id,
            begin_line=o.begin_line,
            end_line=o.end_line,
        )
        for o in occurrences
    ]


def _parse_manifest_rows(table: str) -> list[tuple[int, dict[str, str]]]:
    reader = csv.reader(io.StringIO(table))
    try:
        header = next(reader)
    except StopIteration:
        raise ManifestError("manifest is empty", row=1) from None
    header = [h.strip() for h in header]
    required = list(MANIFEST_COLUMNS)
    if header[: len(required)] != required:
        raise ManifestError(
            f"manifest header must start with {','.join(required)}, got {','.join(header)}",
            row=1,
        )
    extras = header[len(required):]
    for col in extras:
        if col not in MANIFEST_OPTIONAL_COLUMNS:
            raise ManifestError(f"unknown manifest column {col!r}", row=1)
    rows = []
    for i, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != len(header):
            raise ManifestError(
                f"expected {len(header)} fields, got {len(record)}", row=i
            )
        rows.append((i, dict(zip(header, record))))
    return rows


@dataclass(frozen=True)
class _ManifestRow:
    """A checked manifest row: everything about a version but its report's contents."""

    row: int
    version_id: str
    timestamp: datetime
    size: SizeMetrics
    report_path: Path


def _check_row(row_no: int, row: dict[str, str], base_dir: Path) -> _ManifestRow:
    version_id = row["version"].strip()
    if not version_id:
        raise ManifestError("empty version id", row=row_no)
    try:
        timestamp = parse_timestamp(row["timestamp"])
    except ValueError as exc:
        raise ManifestError(f"bad timestamp {row['timestamp']!r}: {exc}", row=row_no) from exc
    try:
        lloc = int(row["lloc"])
    except ValueError as exc:
        raise ManifestError(f"bad lloc {row['lloc']!r}", row=row_no) from exc
    if lloc <= 0:
        raise ManifestError(f"lloc must be positive, got {lloc} (density undefined)", row=row_no)

    def optional_int(col: str) -> int | None:
        raw = row.get(col, "").strip()
        if not raw:
            return None
        try:
            return int(raw)
        except ValueError as exc:
            raise ManifestError(f"bad {col} {raw!r}", row=row_no) from exc

    size = SizeMetrics(lloc=lloc, loc=optional_int("loc"), classes=optional_int("classes"))
    report_path = Path(row["report_path"].strip())
    if not report_path.is_absolute():
        report_path = base_dir / report_path
    try:
        report_path.stat()
    except OSError as exc:
        raise ManifestError(f"report file unreadable: {exc}", row=row_no) from exc
    return _ManifestRow(row_no, version_id, timestamp, size, report_path)


def _check_manifest(table: str, base_dir: Path) -> dict[str, list[_ManifestRow]]:
    """Every row checked, grouped by app and sorted by timestamp; no report is read."""
    per_app: dict[str, list[tuple[int, dict[str, str]]]] = {}
    for row_no, row in _parse_manifest_rows(table):
        app = row["app"].strip()
        if not app or app in (".", "..") or "/" in app or "\\" in app:
            raise ManifestError(f"app name {app!r} is not one path component", row=row_no)
        per_app.setdefault(app, []).append((row_no, row))

    checked = {}
    for app, app_rows in per_app.items():
        seen: dict[str, int] = {}
        entries = []
        for row_no, row in app_rows:
            version_id = row["version"].strip()
            if version_id in seen:
                raise ManifestError(
                    f"duplicate version id {version_id!r} for app {app!r}"
                    f" (first seen on row {seen[version_id]})",
                    row=row_no,
                )
            seen[version_id] = row_no
            entries.append(_check_row(row_no, row, base_dir))
        entries.sort(key=lambda e: e.timestamp)
        for a, b in zip(entries, entries[1:]):
            if not a.timestamp < b.timestamp:
                raise ManifestError(
                    f"app {app!r}: timestamps not strictly increasing: {a.version_id} !< {b.version_id}",
                    row=b.row,
                )
        checked[app] = entries
    return checked


def _snapshot_from_row(
    entry: _ManifestRow,
    rules: list[SmellRule],
    strip_prefix: str | None,
) -> VersionSnapshot:
    """Read one checked row's report; every error carries the row."""
    try:
        occurrences = _load_report_file(entry.report_path, entry.version_id, rules, strip_prefix)
    except OSError as exc:
        raise ManifestError(f"report file unreadable: {exc}", row=entry.row) from exc
    except SmellSurvError as exc:
        exc.row = entry.row
        raise
    return VersionSnapshot(
        version_id=entry.version_id,
        timestamp=entry.timestamp,
        occurrences=tuple(occurrences),
        size=entry.size,
    )


def load_manifests(
    table: str,
    base_dir: str | Path = ".",
    rules: list[SmellRule] | None = None,
    strip_prefix: str | None = None,
    latest: int | None = None,
) -> list[History]:
    """Load every application named in a manifest, one History each.

    Rows may arrive in any order; snapshots are sorted by timestamp.
    Duplicate version ids, unparseable timestamps, non-positive lloc, and
    missing or unreadable report files are fatal, reported with their row
    number. Every row is checked and every report file must exist; with
    ``latest``, only each app's ``latest`` most recent reports are read and
    its History holds just those versions.
    """
    if rules is None:
        rules = default_ruleset()
    checked = _check_manifest(table, Path(base_dir))
    return [
        History(
            app_name=app,
            snapshots=tuple(
                _snapshot_from_row(entry, rules, strip_prefix)
                for entry in (entries[-latest:] if latest else entries)
            ),
        )
        for app, entries in checked.items()
    ]


def load_manifest(
    table: str,
    base_dir: str | Path = ".",
    rules: list[SmellRule] | None = None,
    strip_prefix: str | None = None,
) -> History:
    """Load a single-application manifest. Errors if several apps are named."""
    histories = load_manifests(table, base_dir, rules, strip_prefix)
    if not histories:
        raise ManifestError("manifest names no versions")
    if len(histories) > 1:
        names = ", ".join(sorted(h.app_name for h in histories))
        raise ManifestError(f"manifest names several apps ({names}); load them with load_manifests")
    return histories[0]


def history_to_json(history: History) -> str:
    """Serialize a History to a JSON document (inverse of history_from_json)."""
    doc = {
        "app": history.app_name,
        "snapshots": [
            {
                "version": snap.version_id,
                "timestamp": snap.timestamp.isoformat(),
                "size": {
                    "lloc": snap.size.lloc,
                    "loc": snap.size.loc,
                    "classes": snap.size.classes,
                },
                "occurrences": [
                    {
                        "rule": occ.rule.value,
                        "file": occ.file,
                        "entity_path": occ.entity_path,
                        "begin_line": occ.begin_line,
                        "end_line": occ.end_line,
                    }
                    for occ in snap.occurrences
                ],
            }
            for snap in history.snapshots
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def history_from_json(document: str) -> History:
    doc = json.loads(document)
    snapshots = []
    for snap in doc["snapshots"]:
        version_id = snap["version"]
        occurrences = tuple(
            SmellOccurrence(
                rule=RuleId(occ["rule"]),
                file=occ["file"],
                entity_path=occ["entity_path"],
                version_id=version_id,
                begin_line=occ["begin_line"],
                end_line=occ["end_line"],
            )
            for occ in snap["occurrences"]
        )
        snapshots.append(
            VersionSnapshot(
                version_id=version_id,
                timestamp=parse_timestamp(snap["timestamp"]),
                occurrences=occurrences,
                size=SizeMetrics(
                    lloc=snap["size"]["lloc"],
                    loc=snap["size"]["loc"],
                    classes=snap["size"]["classes"],
                ),
            )
        )
    return History(app_name=doc["app"], snapshots=tuple(snapshots))
