"""Loading a project's version timeline into an immutable history.

Inputs are a manifest CSV naming one row per analyzed version (timestamp,
violation report, size metrics) plus the per-version reports themselves,
either PMD-format XML or a code-model JSON file that gets run through the
threshold rules.
"""

from __future__ import annotations

import csv
import io
import re
import stat
from collections import Counter
from collections.abc import Iterator
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple
from xml.parsers import expat

from .errors import ManifestError, ReportParseError, SmellSurvError
from .rules import (
    RULES,
    Occurrence,
    SmellRule,
    _RULE_ORDER,
    _code_model_entities,
    evaluate_rules,
    load_code_model,
)
from .tracking import InstanceKey, assign_keys

MANIFEST_COLUMNS = ("app", "version", "timestamp", "report_path", "lloc")
MANIFEST_OPTIONAL_COLUMNS = ("loc", "classes")
# 640 is sys.int_info.str_digits_check_threshold, the lowest digit limit int() can be set
# to, so int() reads every count under any setting
COUNT_DIGITS = 640


def _count(text: str) -> int | None:
    """The value of a count, 1 to COUNT_DIGITS ASCII decimal digits, else None."""
    return int(text) if len(text) <= COUNT_DIGITS and text.isascii() and text.isdigit() else None


# YYYY-MM-DD[(T| )HH[:MM[:SS[.fff|.ffffff]]][Z|±HH:MM[:SS]]], read alike by fromisoformat from
# 3.10 on. A zone needs a time and has no fraction: fromisoformat reads "2020-01-01+01:00" as
# 01:00, and a zone of "+00:00:00.500000" as UTC.
_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:[Zz]|[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2})?)?)?"
)


def parse_timestamp(text: str) -> datetime:
    """Parse a _TIMESTAMP, around optional whitespace, into an aware UTC
    datetime. Bare dates and naive date-times are taken as UTC midnight / UTC.
    """
    cleaned = text.strip()
    if not _TIMESTAMP.fullmatch(cleaned):
        raise ValueError("not YYYY-MM-DD[THH[:MM[:SS[.ffffff]]][Z|±HH:MM[:SS]]]")
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    moment = datetime.fromisoformat(cleaned)
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


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


class PmdParseResult(NamedTuple):
    occurrences: list[Occurrence]
    skipped: Counter

    @property
    def skipped_count(self) -> int:
        return sum(self.skipped.values())


def _malformed(offset: int, line: int, column: int, message: str) -> ReportParseError:
    return ReportParseError(
        f"malformed PMD XML at byte offset {offset} (line {line}, column {column}): {message}",
        byte_offset=offset,
    )


class _LocalNames(dict):
    """Expat name, "uri}local" or bare -> its local part, split once per name."""

    def __missing__(self, name: str) -> str:
        local = self[name] = name.rpartition("}")[2]
        return local


def parse_pmd_report(
    document: bytes,
    strip_prefix: str | None = None,
    strings: dict[str, str] | None = None,
) -> PmdParseResult:
    """Extract occurrences of the six rules from a PMD-format XML report.

    Only ``file`` children of the ``pmd`` root and ``violation`` children of
    a ``file`` are read, in any namespace. Violations of other rules are
    skipped and counted. Entity paths are composed from the
    package/class/method/function attributes when present; identity degrades
    to file+line when they are absent. An empty report is an empty result,
    not an error.

    One ``strings`` dict passed for many reports keeps one copy of each file
    name and entity path, and joins each entity path once: it maps a str to
    itself and a (package, class, method, function) attribute tuple to its
    path. The tuple holds only str and None, so it never equals a str or an
    InstanceKey (whose last field is an int), which ``assign_keys`` keeps in
    the same dict.
    """
    strings = {} if strings is None else strings
    intern, joined = strings.setdefault, strings.get
    rules = _RULE_ORDER
    local = _LocalNames()
    rows = []
    skipped = Counter()
    # a wrong root or a bad violation is raised only once the whole document
    # is known to be well-formed, so a malformed one always names its offset
    problems = []
    depth = 0
    file_path = None  # the current depth-2 element's path; None unless it is a file

    def start_element(name, attrs):
        nonlocal depth, file_path
        depth += 1
        if depth == 3:
            if file_path is None or local[name] != "violation":
                return
            rule_name = attrs.get("rule", "")
            order = rules.get(rule_name)
            if order is None:
                skipped[rule_name] += 1
                return
            # a line is a count; a missing one reads as -1, which orders
            # before every line and never against another
            begin = attrs.get("beginline")
            end = attrs.get("endline")
            b = -1 if begin is None else _count(begin)
            e = -1 if end is None else _count(end)
            if b is None or e is None or -1 < e < b:
                problems.append(
                    f"violation of {rule_name} in {file_path!r}: beginline {begin!r}"
                    f" and endline {end!r} must be 1 to {COUNT_DIGITS} decimal digits, beginline <= endline"
                )
                return
            parts = (attrs.get("package"), attrs.get("class"), attrs.get("method"), attrs.get("function"))
            entity_path = joined(parts)
            if entity_path is None:
                entity_path = "/".join(filter(None, parts))
                entity_path = strings[parts] = intern(entity_path, entity_path)
            # lines order each group for its ordinals; rows that tie on all five
            # fields give equal occurrences, so how a tie falls cannot change the list
            rows.append((file_path, b, e, order, entity_path))
        elif depth == 2:
            file_path = None
            if local[name] == "file":
                path = normalize_path(attrs.get("name", ""), strip_prefix)
                file_path = intern(path, path)
        elif depth == 1 and local[name] != "pmd":
            tag = "{" + name if "}" in name else name
            problems.append(f"expected root element 'pmd', found {tag!r}")

    def end_element(name):
        nonlocal depth
        depth -= 1

    def unread_entity(message):
        line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber
        raise _malformed(parser.CurrentByteIndex, line, column, f"{message}: line {line}, column {column}")

    parser = expat.ParserCreate(namespace_separator="}")
    declaration = {}  # expat reports the declared encoding before Python's codecs are asked for it
    parser.XmlDeclHandler = lambda version, encoding, standalone: declaration.update(encoding=encoding)
    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    # expat skips an undeclared entity under an external DTD and leaves an
    # external one unread; either is an error in a report (parameter entities
    # are never read, so only general ones get here)
    parser.SkippedEntityHandler = lambda name, is_parameter: unread_entity(f"undefined entity &{name};")
    parser.ExternalEntityRefHandler = lambda context, base, system_id, public_id: unread_entity(
        f"external entity {system_id!r} is not read"
    )
    try:
        parser.Parse(document, False)
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        # expat gives -1 for an empty document, where there is no byte to point at
        raise _malformed(max(parser.ErrorByteIndex, 0), exc.lineno, exc.offset, str(exc)) from None
    except (LookupError, ValueError) as exc:  # a codec expat cannot use; UnicodeError is a ValueError
        raise ReportParseError(f"declared encoding {declaration.get('encoding')!r} cannot be read: {exc}") from None
    finally:
        # unread_entity holds the parser that holds these two handlers; dropping
        # them frees the parser, its rows and closures on return, not at a GC pass
        parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = None
    if problems:
        raise ReportParseError(problems[0])
    rows.sort()
    return PmdParseResult([(RULES[order], file, entity_path) for file, _, _, order, entity_path in rows], skipped)


def _manifest_rows(path: Path) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield each data row of the manifest at path, as the line it starts on
    and its cells by column name. Every error names the file; one that has a
    line (a bad byte, a NUL, a bad CSV record) carries it as the row."""
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ManifestError(f"manifest {path} unreadable: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ManifestError(f"manifest {path} is not UTF-8: byte {exc.start}: {exc.reason}", row=line) from exc
    except ValueError as exc:  # a NUL byte in the path
        raise ManifestError(f"manifest {path} unreadable: {exc}") from exc
    # csv refuses a NUL only before Python 3.11, so it is refused here, on every version
    nul = data.find(b"\0")
    if nul >= 0:
        raise ManifestError(f"manifest {path} holds a NUL: byte {nul}", row=data.count(b"\n", 0, nul) + 1)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ManifestError(f"manifest {path} is empty", row=1)
        header = [h.strip() for h in header]
        required = list(MANIFEST_COLUMNS)
        if header[: len(required)] != required:
            raise ManifestError(
                f"manifest {path}: header must start with {','.join(required)}, got {','.join(header)}",
                row=1,
            )
        for i, col in enumerate(header[len(required):], len(required)):
            if col in header[:i]:
                raise ManifestError(f"manifest {path}: column {col!r} named twice", row=1)
            if col not in MANIFEST_OPTIONAL_COLUMNS:
                raise ManifestError(f"manifest {path}: unknown column {col!r}", row=1)
        start = reader.line_num + 1  # the line the next record starts on
        for record in reader:
            if any(cell.strip() for cell in record):
                if len(record) != len(header):
                    raise ManifestError(f"expected {len(header)} fields, got {len(record)}", row=start)
                yield start, dict(zip(header, record))
            start = reader.line_num + 1
    except csv.Error as exc:  # an over-long field
        raise ManifestError(f"manifest {path} is not valid CSV: {exc}", row=reader.line_num) from exc


class _ManifestRow(NamedTuple):
    """A checked manifest row: everything about a version but its report's contents."""

    row: int
    version_id: str
    timestamp: datetime
    size: SizeMetrics
    report_path: Path


def _check_row(row_no: int, row: dict[str, str], version_id: str, base_dir: Path) -> _ManifestRow:
    if not version_id:
        raise ManifestError("empty version id", row=row_no)
    try:
        timestamp = parse_timestamp(row["timestamp"])
    except (ValueError, OverflowError) as exc:  # overflow: out of range once in UTC
        raise ManifestError(f"bad timestamp {row['timestamp']!r}: {exc}", row=row_no) from exc
    counts = {}
    for col in SizeMetrics._fields:  # lloc is required, an empty loc or classes is None
        raw = row.get(col, "").strip()
        if raw or col == "lloc":
            counts[col] = _count(raw)
            if counts[col] is None:
                raise ManifestError(f"{col} must be 1 to {COUNT_DIGITS} decimal digits, got {raw!r}", row=row_no)
    if counts["lloc"] == 0:
        raise ManifestError("lloc must be positive, got 0 (density undefined)", row=row_no)
    size = SizeMetrics(**counts)
    report_path = Path(row["report_path"].strip())
    if not report_path.is_absolute():
        report_path = base_dir / report_path
    try:
        mode = report_path.stat().st_mode
    except OSError as exc:
        raise ManifestError(f"report file unreadable: {exc}", row=row_no) from exc
    if not stat.S_ISREG(mode):  # a FIFO or a device would be read without end, a directory not at all
        raise ManifestError(f"report file {report_path} is not a regular file", row=row_no)
    return _ManifestRow(row_no, version_id, timestamp, size, report_path)


def _snapshot_from_row(
    entry: _ManifestRow,
    rules: list[SmellRule],
    strip_prefix: str | None,
    strings: dict,
) -> VersionSnapshot:
    """Read and key one checked row's report; every error carries the row.

    The extension picks the flavor: .xml is PMD XML, .json a code model that
    goes through the rules; anything else is sniffed by its first non-blank
    byte.
    """
    path = entry.report_path
    suffix = path.suffix.lower()
    try:
        data = b"" if suffix == ".json" else path.read_bytes()  # the code-model loader reads a .json
        if suffix == ".xml" or data.lstrip()[:1] == b"<":
            occurrences = parse_pmd_report(data, strip_prefix, strings).occurrences
        else:
            entities = load_code_model(path) if suffix == ".json" else _code_model_entities(data, path)
            if strip_prefix is not None:
                # before the rules run, so that names merged here sort and key as one file
                entities = [e._replace(file=normalize_path(e.file, strip_prefix)) for e in entities]
            occurrences = evaluate_rules(entities, rules)
    except OSError as exc:
        raise ManifestError(f"report file unreadable: {exc}", row=entry.row) from exc
    except ReportParseError as exc:  # only the PMD parser raises one
        raise ReportParseError(f"PMD report {path}: {exc}", row=entry.row, byte_offset=exc.byte_offset) from exc
    except SmellSurvError as exc:
        exc.row = entry.row
        raise
    keys = assign_keys(occurrences, strings)  # a key present in many versions is one object
    return VersionSnapshot(entry.version_id, entry.timestamp, tuple(keys), entry.size)


def load_manifests(
    path: str | Path,
    rules: list[SmellRule],
    strip_prefix: str | None = None,
    latest: int | None = None,
) -> list[History]:
    """Load every application named in the manifest at path, one History
    each, in app-name order; report paths are relative to the manifest's
    directory.

    Rows may arrive in any order; snapshots are sorted by timestamp. Rows are
    checked in file order, and every row before any report is read:
    duplicate version ids, unparseable timestamps, an lloc, loc or classes
    that is not a count, a zero lloc, and missing or unreadable report
    files are fatal, reported with their row number. With ``latest``, only
    each app's ``latest`` most recent reports are read and its History
    holds just those versions.
    """
    path = Path(path)
    per_app: dict[str, dict[str, _ManifestRow]] = {}
    for row_no, row in _manifest_rows(path):
        app = row["app"].strip()
        if not app or app in (".", "..") or "/" in app or "\\" in app:
            raise ManifestError(f"app name {app!r} is not one path component", row=row_no)
        versions = per_app.setdefault(app, {})
        version_id = row["version"].strip()
        if version_id in versions:
            raise ManifestError(
                f"duplicate version id {version_id!r} for app {app!r}"
                f" (first seen on row {versions[version_id].row})",
                row=row_no,
            )
        versions[version_id] = _check_row(row_no, row, version_id, path.parent)
    if not per_app:
        raise ManifestError(f"manifest {path} names no versions")

    checked = {}
    for app, versions in per_app.items():
        entries = sorted(versions.values(), key=lambda e: e.timestamp)
        for a, b in zip(entries, entries[1:]):
            if not a.timestamp < b.timestamp:
                raise ManifestError(
                    f"app {app!r}: timestamps not strictly increasing: {a.version_id} !< {b.version_id}",
                    row=b.row,
                )
        checked[app] = entries[-latest:] if latest else entries
    strings: dict = {}  # one copy of each file name, entity path and key, shared by every report
    return [
        History(app, tuple(_snapshot_from_row(entry, rules, strip_prefix, strings) for entry in entries))
        for app, entries in sorted(checked.items())
    ]
