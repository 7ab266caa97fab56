"""Emitters for the analysis outputs: tables (CSV), machine-readable
summaries (JSON), and optional SVG charts.

Each table's cells are formatted once, by its row builder; CSV and JSON are two
renderings of those cells. Orderings and number formats are fixed (two decimals
for day values, six significant digits for probabilities and rates).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from . import svgplot
from .anomaly import (
    AnomalyFlag,
    AnomalyThresholds,
    DensityPoint,
    density_series,
    flag_anomalies,
    metric_change_rates,
)
from .ingest import History
from .rules import RULES, Occurrence, scope_of
from .survival import (
    GroupComparison,
    GroupSummary,
    SurvivalCurve,
    compare_groups,
    kaplan_meier,
)
from .tracking import (
    SurvivalRecord,
    TrackingOptions,
    _days_between,
    assign_timeframes,
    build_survival_records,
    split_instant,
)

FORMATS = ("csv", "json", "svg")

BUNDLE_FILES = frozenset({  # every name write_bundle can write into an app directory, in any format
    "records.csv", "lifelines.csv", "counts_by_rule.csv", "density.csv", "anomalies.csv", "km_all.csv", "bundle.json",
    "summary_scope.csv", "summary_timeframe.csv", "km_scope.csv", "km_timeframe.csv", "logrank_scope.json",
    "logrank_timeframe.json", "anomalies.json", "km_scope.svg", "km_timeframe.svg", "lifelines.svg", "density.svg",
})

Table = tuple[list[str], Iterable[list[str]]]  # a header and rows of formatted cells, read once

# how a cell reads back as a JSON value: text stays a string, a count is an
# int ("" is null), and any other cell is a number through json_number
TEXT_COLUMNS = frozenset({"version", "timestamp", "rule", "scope", "file", "entity_path", "kind", "group"})
COUNT_COLUMNS = frozenset({"found", "removed", "cs_count", "lloc"})


def fmt_days(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def fmt_prob(value: float) -> str:
    return f"{value:.6g}"


def fmt_rate(value: float | None) -> str:
    if value is None:
        return ""
    return "inf" if math.isinf(value) else fmt_prob(value)


def json_number(text: str) -> float | str | None:
    """A formatted cell as a JSON value: the cell's digits read back, so the
    CSV and JSON outputs round alike; "" is null and "inf" stays a string."""
    if not text:
        return None
    return text if text == "inf" else float(text)


def _json_value(column: str, cell: str):
    if column in TEXT_COLUMNS:
        return cell
    if column in COUNT_COLUMNS:
        return int(cell) if cell else None
    return json_number(cell)


def _json_rows(table: Table) -> list[dict]:
    header, rows = table
    return [{column: _json_value(column, cell) for column, cell in zip(header, row)} for row in rows]


def _csv_cell(cell: str) -> str:
    # RFC 4180, as csv.writer quotes on 3.13 (3.10-3.12 leave a CR bare, and
    # 3.10 refuses a NUL): a cell holding a comma, a quote or a line break is
    # quoted, its quotes doubled; anything else, NUL included, is written bare
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_chunks(table: Table, size: int = 512) -> Iterator[str]:
    """The table's CSV text, `size` lines at a time, each line ending in "\n".
    A line is its cells joined by commas unless a cell needs quoting, which
    shows in a chunk as an extra comma or line break, or as a quote or CR;
    such a chunk is joined again, cell by cell. csv.writer's one other rule,
    that a row of one empty cell is written '""', never applies: every table
    has at least three columns."""
    header, rows = table
    commas = len(header) - 1
    lines = chain([header], rows)
    while chunk := list(islice(lines, size)):
        text = "\n".join(map(",".join, chunk)) + "\n"
        if text.count(",") != commas * len(chunk) or text.count("\n") != len(chunk) or '"' in text or "\r" in text:
            text = "".join([",".join(map(_csv_cell, row)) + "\n" for row in chunk])
        yield text


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_line(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _write(path: Path, chunks: Iterable[str]) -> None:
    # a table is written a chunk at a time, never held as one text
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


# ---------------------------------------------------------------------------
# occurrence documents (detect subcommand)
# ---------------------------------------------------------------------------

OCCURRENCE_HEADER = ["version", "rule", "scope", "file", "entity_path"]


def _occurrence_table(version_id: str, occurrences: list[Occurrence]) -> Table:
    rows = [[version_id, rule, scope_of(rule), file, entity_path] for rule, file, entity_path in occurrences]
    return OCCURRENCE_HEADER, rows


def write_occurrences(version_id: str, occurrences: list[Occurrence], out_dir: Path, formats: set[str]) -> None:
    """Write detect's occurrences.csv and/or occurrences.json into out_dir."""
    table = _occurrence_table(version_id, occurrences)
    if "csv" in formats:
        _write(out_dir / "occurrences.csv", _csv_chunks(table))
    if "json" in formats:
        _write(out_dir / "occurrences.json", [_json_text(_json_rows(table))])


# ---------------------------------------------------------------------------
# survival records and summaries
# ---------------------------------------------------------------------------

RECORDS_HEADER = [
    "app",
    "rule",
    "scope",
    "key",
    "first_version",
    "first_date",
    "last_present_version",
    "end_date",
    "censored",
    "duration_days",
    "timeframe",
]


def _record_table(app: str, records: list[SurvivalRecord]) -> Table:
    dates = {None: ""}  # each distinct date formatted once
    for r in records:
        for date in (r.first_date, r.end_date):
            if date not in dates:
                dates[date] = date.isoformat()
    rows = [
        [
            app,
            r.key.rule,
            scope_of(r.key.rule),
            f"{r.key.file}::{r.key.entity_path}::{r.key.ordinal}",
            r.first_version,
            dates[r.first_date],
            r.last_present_version,
            dates[r.end_date],
            str(r.censored),
            fmt_days(r.duration_days),
            str(r.timeframe),
        ]
        for r in records
    ]
    return RECORDS_HEADER, rows


def _project(table: Table, columns: list[str]) -> Table:
    """The table cut down to the named columns, in their order; each row is
    cut as it is read."""
    header, rows = table
    picks = [header.index(column) for column in columns]
    return columns, ([row[i] for i in picks] for row in rows)


def _summary_cells(summary: GroupSummary | None) -> list[str]:
    if summary is None:  # degenerate group: no data to summarize
        return ["0", "0", "", "", "", ""]
    return [
        str(summary.found),
        str(summary.removed),
        fmt_prob(summary.pct_removed),
        fmt_days(summary.median_days),
        fmt_days(summary.rmean_days),
        fmt_days(summary.se_rmean),
    ]


def _summary_table(comparison: GroupComparison) -> Table:
    rows = [[label] + _summary_cells(summary) for label, summary in comparison.summaries.items()]
    return ["group", "found", "removed", "pct_removed", "median_days", "rmean_days", "se_rmean"], rows


def _summaries_json(comparison: GroupComparison) -> dict:
    docs = {}
    for doc in _json_rows(_summary_table(comparison)):
        label = doc.pop("group")
        if comparison.summaries[label] is None:  # degenerate group: its counts only
            doc = {"found": 0, "removed": 0, "no_data": True}
        docs[label] = doc
    return docs


CURVE_HEADER = ["time_days", "n_at_risk", "n_events", "survival"]


def _curve_table(curve: SurvivalCurve) -> Table:
    rows = [[fmt_days(p.time_days), str(p.n_at_risk), str(p.n_events), fmt_prob(p.survival)] for p in curve]
    return CURVE_HEADER, rows


def _grouped_curve_table(comparison: GroupComparison) -> Table:
    rows = [[label] + row for label, curve in comparison.curves.items() for row in _curve_table(curve)[1]]
    return ["group"] + CURVE_HEADER, rows


def _logrank_json(comparison: GroupComparison):
    test = comparison.test
    if isinstance(test, str):
        return {"error": test}
    doc = {"statistic": json_number(fmt_prob(test.statistic)), "p_value": json_number(fmt_prob(test.p_value))}
    if test.warning:
        doc["warning"] = test.warning
    return doc


# ---------------------------------------------------------------------------
# per-version tables
# ---------------------------------------------------------------------------

def _counts_by_rule_table(history: History) -> Table:
    rows = []
    for snap in history.snapshots:
        counts = Counter([key.rule for key in snap.keys])
        stamp = snap.timestamp.isoformat()
        rows.extend([snap.version_id, stamp, rule, str(counts[rule])] for rule in RULES)
    return ["version", "timestamp", "rule", "count"], rows


def _density_table(series: list[DensityPoint]) -> Table:
    rows = [
        [
            p.version_id,
            p.timestamp.isoformat(),
            str(p.cs_count),
            str(p.lloc),
            fmt_rate(p.rho),
            fmt_rate(p.delta_cs),
            fmt_rate(p.delta_lloc),
            fmt_rate(p.delta_rho),
        ]
        for p in series
    ]
    return ["version", "timestamp", "cs_count", "lloc", "rho", "delta_cs", "delta_lloc", "delta_rho"], rows


def _flag_table(flags: list[AnomalyFlag]) -> Table:
    return ["version", "kind", "delta_rho"], [[f.version_id, f.kind, fmt_rate(f.delta_rho)] for f in flags]


# ---------------------------------------------------------------------------
# the analyze bundle
# ---------------------------------------------------------------------------

class AnalysisBundle(NamedTuple):
    """Everything cmd_analyze derives from one application's history, each
    part computed once; write_bundle only formats it."""

    history: History
    thresholds: AnomalyThresholds
    records: list[SurvivalRecord]
    km_all: SurvivalCurve
    scope: GroupComparison
    timeframe: GroupComparison
    series: list[DensityPoint]
    flags: list[AnomalyFlag]
    rates: dict[str, float | None]

    @property
    def app(self) -> str:
        return self.history.app_name


def analyze_history(
    history: History,
    options: TrackingOptions = TrackingOptions(),
    thresholds: AnomalyThresholds = AnomalyThresholds(),
) -> AnalysisBundle:
    records = build_survival_records(history, options)
    series = density_series(history)
    return AnalysisBundle(
        history=history,
        thresholds=thresholds,
        records=records,
        km_all=kaplan_meier([(r.duration_days, r.end_date is not None) for r in records]),
        scope=compare_groups(records, "scope"),
        timeframe=compare_groups(assign_timeframes(records, history), "timeframe"),
        series=series,
        flags=flag_anomalies(series, thresholds),
        rates=metric_change_rates(history),
    )


def write_bundle(bundle: AnalysisBundle, out_dir: Path, formats: set[str]) -> list[Path]:
    """Write one application's output files under out_dir/<app>/, in place."""
    app_dir = Path(out_dir) / bundle.app
    app_dir.mkdir(parents=True, exist_ok=True)
    comparisons = (bundle.scope, bundle.timeframe)
    written: list[Path] = []

    def emit(name: str, chunks: Iterable[str]) -> None:
        _write(app_dir / name, chunks)
        written.append(app_dir / name)

    if "csv" in formats:
        records = _record_table(bundle.app, bundle.records)
        emit("records.csv", _csv_chunks(records))
        emit("lifelines.csv", _csv_chunks(_project(records, ["rule", "key", "first_date", "end_date"])))
        emit("counts_by_rule.csv", _csv_chunks(_counts_by_rule_table(bundle.history)))
        emit("density.csv", _csv_chunks(_density_table(bundle.series)))
        emit("anomalies.csv", _csv_chunks(_flag_table(bundle.flags)))
        emit("km_all.csv", _csv_chunks(_curve_table(bundle.km_all)))
        for c in comparisons:
            emit(f"summary_{c.partition}.csv", _csv_chunks(_summary_table(c)))
            emit(f"km_{c.partition}.csv", _csv_chunks(_grouped_curve_table(c)))
            emit(f"logrank_{c.partition}.json", [_json_line(_logrank_json(c))])

    if "json" in formats:
        emit("anomalies.json", [_json_text({
            "app": bundle.app,
            "thresholds": bundle.thresholds._asdict(),
            "density": _json_rows(_density_table(bundle.series)),
            "flags": _json_rows(_flag_table(bundle.flags)),
        })])
        emit("bundle.json", [_bundle_json(bundle)])

    if "svg" in formats:
        for c in comparisons:
            series = [
                (label, [(p.time_days, p.survival) for p in curve])
                for label, curve in c.curves.items()
            ]
            emit(f"km_{c.partition}.svg", [svgplot.step_chart(series, f"{bundle.app}: survival by {c.partition}")])
        origin = bundle.history.snapshots[0].timestamp
        starts = [(_days_between(origin, r.first_date), r) for r in bundle.records]
        segments = sorted((start, start + r.duration_days, r.end_date is None) for start, r in starts)
        emit("lifelines.svg", [svgplot.lifeline_chart(segments, f"{bundle.app}: smell lifelines")])
        rates = [p.delta_rho for p in bundle.series]
        emit("density.svg", [svgplot.threshold_chart(rates, bundle.thresholds, f"{bundle.app}: smell density change")])

    return written


def _bundle_json(bundle: AnalysisBundle) -> str:
    history = bundle.history
    doc = {
        "app": bundle.app,
        "versions": len(history.snapshots),
        "observation": {
            "start": history.snapshots[0].timestamp.isoformat(),
            "end": history.snapshots[-1].timestamp.isoformat(),
            "split_instant": split_instant(history).isoformat(),
        },
        "records": len(bundle.records),
        "metric_change_rates": {name: json_number(fmt_rate(rate)) for name, rate in bundle.rates.items()},
        "anomaly_flags": _json_rows(_flag_table(bundle.flags)),
    }
    for c in (bundle.scope, bundle.timeframe):
        doc[c.partition] = {
            "summaries": _summaries_json(c),
            "logrank": _logrank_json(c),
        }
    return _json_text(doc)
