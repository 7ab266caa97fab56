"""Emitters for the analysis outputs: tables (CSV), machine-readable
summaries (JSON), and optional SVG charts.

Each table's cells are formatted once, by its row builder; CSV and JSON are two
renderings of those cells. Orderings and number formats are fixed (two decimals
for day values, six significant digits for probabilities and rates).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from datetime import datetime
from itertools import chain, islice, tee
from typing import Iterable, Iterator, NamedTuple

from .anomaly import (
    AnomalyFlag,
    AnomalyThresholds,
    DensityPoint,
    density_series,
    flag_anomalies,
    metric_change_rates,
)
from .rules import RULES, Occurrence, scope_of
from .survival import (
    GroupComparison,
    GroupSummary,
    SurvivalCurve,
    compare_groups,
    kaplan_meier,
)
from .tracking import (
    History,
    SurvivalRecord,
    TrackingOptions,
    _days_between,
    assign_scopes,
    assign_timeframes,
    build_survival_records,
    split_instant,
    timeframe_of,
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


def _json_text(doc, indent: int | None = 2) -> str:
    import json
    return json.dumps(doc, indent=indent, sort_keys=True) + "\n"


def _write(path: str, chunks: Iterable[str]) -> None:
    # a table is written a chunk at a time, never held as one text
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _write_with_cut(path: str, cut_path: str, table: Table, columns: list[str]) -> None:
    """Write the table to path and its named columns to cut_path in one pass
    over its rows, each chunk of rows to both files before the next is formatted."""
    header, rows = table
    picks = [header.index(column) for column in columns]
    rows, cut_rows = tee(rows)
    chunks = zip(_csv_chunks((header, rows)), _csv_chunks((columns, ([row[i] for i in picks] for row in cut_rows))))
    with open(path, "w", encoding="utf-8", newline="") as fh, open(cut_path, "w", encoding="utf-8", newline="") as cut:
        for chunk, cut_chunk in chunks:
            fh.write(chunk)
            cut.write(cut_chunk)


# ---------------------------------------------------------------------------
# occurrence documents (detect subcommand)
# ---------------------------------------------------------------------------

OCCURRENCE_HEADER = ["version", "rule", "scope", "file", "entity_path"]


def _occurrence_table(version_id: str, occurrences: list[Occurrence]) -> Table:
    rows = [[version_id, rule, scope_of(rule), file, entity_path] for rule, file, entity_path in occurrences]
    return OCCURRENCE_HEADER, rows


def write_occurrences(version_id: str, occurrences: list[Occurrence], out_dir: str, formats: set[str]) -> None:
    """Write detect's occurrences.csv and/or occurrences.json into out_dir."""
    table = _occurrence_table(version_id, occurrences)
    if "csv" in formats:
        _write(os.path.join(out_dir, "occurrences.csv"), _csv_chunks(table))
    if "json" in formats:
        _write(os.path.join(out_dir, "occurrences.json"), [_json_text(_json_rows(table))])


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
LIFELINE_COLUMNS = ["rule", "key", "first_date", "end_date"]


def _record_table(bundle: AnalysisBundle, dates: dict) -> Table:
    rows = (
        [
            bundle.app,
            r.key.rule,
            scope_of(r.key.rule),
            f"{r.key.file}::{r.key.entity_path}::{r.key.ordinal}",
            r.first_version,
            dates[r.first_date],
            r.last_present_version,
            dates[r.end_date],
            str(r.censored),
            fmt_days(r.duration_days),
            timeframe_of(r.first_date, bundle.split),
        ]
        for r in bundle.records
    )
    return RECORDS_HEADER, rows


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

def _counts_by_rule_table(history: History, dates: dict) -> Table:
    counted = ((s.version_id, dates[s.timestamp], Counter([k.rule for k in s.keys])) for s in history.snapshots)
    rows = ([version, stamp, rule, str(counts[rule])] for version, stamp, counts in counted for rule in RULES)
    return ["version", "timestamp", "rule", "count"], rows


def _density_table(series: list[DensityPoint], dates: dict) -> Table:
    rows = [
        [
            p.version_id,
            dates[p.timestamp],
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
    split: datetime  # the timeframe split, the temporal midpoint
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
    split = split_instant(history)
    scope = assign_scopes(records)
    series = density_series(history)
    return AnalysisBundle(
        history=history,
        thresholds=thresholds,
        split=split,
        records=records,
        km_all=kaplan_meier(chain(*scope.values())),
        scope=compare_groups(scope, "scope"),
        timeframe=compare_groups(assign_timeframes(records, split), "timeframe"),
        series=series,
        flags=flag_anomalies(series, thresholds),
        rates=metric_change_rates(history, split),
    )


def write_bundle(bundle: AnalysisBundle, out_dir: str, formats: set[str]) -> list[str]:
    """Write one application's output files under out_dir/<app>/, in place."""
    app_dir = os.path.join(out_dir, bundle.app)
    os.makedirs(app_dir, exist_ok=True)
    comparisons = (bundle.scope, bundle.timeframe)
    # each formatted once, for every format; a date is a version's timestamp, or None for a record still open
    dates = {s.timestamp: s.timestamp.isoformat() for s in bundle.history.snapshots} | {None: ""}
    density, flags = _density_table(bundle.series, dates), _flag_table(bundle.flags)
    written: list[str] = []

    def emit(name: str, chunks: Iterable[str]) -> None:
        written.append(os.path.join(app_dir, name))
        _write(written[-1], chunks)

    if "csv" in formats:
        records, lifelines = os.path.join(app_dir, "records.csv"), os.path.join(app_dir, "lifelines.csv")
        _write_with_cut(records, lifelines, _record_table(bundle, dates), LIFELINE_COLUMNS)
        written += [records, lifelines]
        emit("counts_by_rule.csv", _csv_chunks(_counts_by_rule_table(bundle.history, dates)))
        emit("density.csv", _csv_chunks(density))
        emit("anomalies.csv", _csv_chunks(flags))
        emit("km_all.csv", _csv_chunks(_curve_table(bundle.km_all)))
        for c in comparisons:
            emit(f"summary_{c.partition}.csv", _csv_chunks(_summary_table(c)))
            emit(f"km_{c.partition}.csv", _csv_chunks(_grouped_curve_table(c)))
            emit(f"logrank_{c.partition}.json", [_json_text(_logrank_json(c), indent=None)])

    if "json" in formats:
        flag_rows = _json_rows(flags)
        emit("anomalies.json", [_json_text({
            "app": bundle.app,
            "thresholds": bundle.thresholds._asdict(),
            "density": _json_rows(density),
            "flags": flag_rows,
        })])
        emit("bundle.json", [_bundle_json(bundle, flag_rows)])

    if "svg" in formats:
        from . import svgplot  # only a run that draws charts loads it
        for c in comparisons:
            emit(f"km_{c.partition}.svg", svgplot.step_chart(c.curves, f"{bundle.app}: survival by {c.partition}"))
        origin = bundle.history.snapshots[0].timestamp
        starts = ((_days_between(origin, r.first_date), r) for r in bundle.records)
        segments = sorted((start, start + r.duration_days, not r.censored) for start, r in starts)
        emit("lifelines.svg", svgplot.lifeline_chart(segments, f"{bundle.app}: smell lifelines"))
        rates = [p.delta_rho for p in bundle.series]
        emit("density.svg", svgplot.threshold_chart(rates, bundle.thresholds, f"{bundle.app}: smell density change"))

    return written


def _bundle_json(bundle: AnalysisBundle, flag_rows: list[dict]) -> str:
    history = bundle.history
    doc = {
        "app": bundle.app,
        "versions": len(history.snapshots),
        "observation": {
            "start": history.snapshots[0].timestamp.isoformat(),
            "end": history.snapshots[-1].timestamp.isoformat(),
            "split_instant": bundle.split.isoformat(),
        },
        "records": len(bundle.records),
        "metric_change_rates": {name: json_number(fmt_rate(rate)) for name, rate in bundle.rates.items()},
        "anomaly_flags": flag_rows,
    }
    for c in (bundle.scope, bundle.timeframe):
        doc[c.partition] = {
            "summaries": _summaries_json(c),
            "logrank": _logrank_json(c),
        }
    return _json_text(doc)
