"""Emitters for the analysis outputs: tables (CSV), machine-readable
summaries (JSON), and optional SVG charts.

All writers are deterministic: fixed orderings, fixed number formatting
(two decimals for day values, six significant digits for probabilities and
rates), and atomic write-then-rename file creation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from . import svgplot
from .anomaly import (
    AnomalyFlag,
    AnomalyThresholds,
    ChangeRates,
    DensityPoint,
    density_series,
    flag_anomalies,
    metric_change_rates,
)
from .ingest import History
from .rules import RuleId, SmellOccurrence, scope_of
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
    assign_timeframes,
    build_survival_records,
    split_instant,
)

FORMATS = ("csv", "json", "svg")


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


def write_atomic(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(content, encoding="utf-8", newline="")
    os.replace(tmp, path)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_line(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# occurrence documents (detect subcommand)
# ---------------------------------------------------------------------------

OCCURRENCE_HEADER = ["version", "rule", "scope", "file", "entity_path", "begin_line", "end_line"]


def _occurrence_docs(occurrences: list[SmellOccurrence]) -> list[dict]:
    return [
        {
            "version": occ.version_id,
            "rule": occ.rule.value,
            "scope": scope_of(occ.rule).value,
            "file": occ.file,
            "entity_path": occ.entity_path,
            "begin_line": occ.begin_line,
            "end_line": occ.end_line,
        }
        for occ in occurrences
    ]


def occurrences_csv(occurrences: list[SmellOccurrence]) -> str:
    rows = [
        ["" if doc[k] is None else str(doc[k]) for k in OCCURRENCE_HEADER]
        for doc in _occurrence_docs(occurrences)
    ]
    return _csv_text(OCCURRENCE_HEADER, rows)


def occurrences_json(occurrences: list[SmellOccurrence]) -> str:
    return _json_text(_occurrence_docs(occurrences))


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


def records_csv(app: str, records: list[SurvivalRecord]) -> str:
    rows = [
        [
            app,
            r.key.rule.value,
            r.scope.value,
            r.key.location(),
            r.first_version,
            r.first_date.isoformat(),
            r.last_present_version,
            "" if r.end_date is None else r.end_date.isoformat(),
            str(r.censored),
            fmt_days(r.duration_days),
            str(r.timeframe),
        ]
        for r in records
    ]
    return _csv_text(RECORDS_HEADER, rows)


def lifelines_csv(records: list[SurvivalRecord]) -> str:
    rows = [
        [
            r.key.rule.value,
            r.key.location(),
            r.first_date.isoformat(),
            "" if r.end_date is None else r.end_date.isoformat(),
        ]
        for r in records
    ]
    return _csv_text(["rule", "key", "first_date", "end_date"], rows)


SUMMARY_HEADER = ["group", "found", "removed", "pct_removed", "median_days", "rmean_days", "se_rmean"]


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


def _summary_json(summary: GroupSummary | None):
    if summary is None:
        return {"found": 0, "removed": 0, "no_data": True}
    doc = {"found": summary.found, "removed": summary.removed}
    stats = _summary_cells(summary)[2:]
    doc.update((name, json_number(cell)) for name, cell in zip(SUMMARY_HEADER[3:], stats))
    return doc


def summary_csv(comparison: GroupComparison) -> str:
    rows = [[label] + _summary_cells(comparison.summaries[label]) for label in comparison.labels]
    return _csv_text(SUMMARY_HEADER, rows)


CURVE_HEADER = ["time_days", "n_at_risk", "n_events", "survival"]


def _curve_rows(curve: SurvivalCurve) -> list[list[str]]:
    return [
        [fmt_days(p.time_days), str(p.n_at_risk), str(p.n_events), fmt_prob(p.survival)]
        for p in curve.points
    ]


def curve_csv(curve: SurvivalCurve | None) -> str:
    return _csv_text(CURVE_HEADER, _curve_rows(curve) if curve else [])


def grouped_curves_csv(comparison: GroupComparison) -> str:
    rows = [[label] + row for label, curve in comparison.curves.items() for row in _curve_rows(curve)]
    return _csv_text(["group"] + CURVE_HEADER, rows)


def _logrank_json(comparison: GroupComparison):
    test = comparison.test
    if test is None:
        return {"error": comparison.error}
    doc = {"statistic": json_number(fmt_prob(test.statistic)), "p_value": json_number(fmt_prob(test.p_value))}
    if test.warning:
        doc["warning"] = test.warning
    return doc


# ---------------------------------------------------------------------------
# per-version tables
# ---------------------------------------------------------------------------

def counts_by_rule_csv(history: History) -> str:
    rows = []
    for snap in history.snapshots:
        counts = {rid: 0 for rid in RuleId}
        for occ in snap.occurrences:
            counts[occ.rule] += 1
        for rid in RuleId:
            rows.append([snap.version_id, snap.timestamp.isoformat(), rid.value, str(counts[rid])])
    return _csv_text(["version", "timestamp", "rule", "count"], rows)


def density_csv(series: list[DensityPoint]) -> str:
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
    return _csv_text(
        ["version", "timestamp", "cs_count", "lloc", "rho", "delta_cs", "delta_lloc", "delta_rho"],
        rows,
    )


def anomalies_csv(flags: list[AnomalyFlag]) -> str:
    rows = [[f.version_id, f.kind.value, fmt_rate(f.delta_rho)] for f in flags]
    return _csv_text(["version", "kind", "delta_rho"], rows)


def _flags_json(flags: list[AnomalyFlag]):
    return [
        {"version": f.version_id, "kind": f.kind.value, "delta_rho": json_number(fmt_rate(f.delta_rho))}
        for f in flags
    ]


def anomaly_report_json(
    app: str,
    series: list[DensityPoint],
    flags: list[AnomalyFlag],
    thresholds: AnomalyThresholds,
) -> str:
    return _json_text(
        {
            "app": app,
            "thresholds": {"up": thresholds.up, "up2": thresholds.up2, "down": thresholds.down},
            "density": [
                {
                    "version": p.version_id,
                    "timestamp": p.timestamp.isoformat(),
                    "cs_count": p.cs_count,
                    "lloc": p.lloc,
                    "rho": json_number(fmt_rate(p.rho)),
                    "delta_cs": json_number(fmt_rate(p.delta_cs)),
                    "delta_lloc": json_number(fmt_rate(p.delta_lloc)),
                    "delta_rho": json_number(fmt_rate(p.delta_rho)),
                }
                for p in series
            ],
            "flags": _flags_json(flags),
        }
    )


# ---------------------------------------------------------------------------
# the analyze bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisBundle:
    """Everything cmd_analyze derives from one application's history, each
    part computed once; write_bundle only formats it."""

    history: History
    thresholds: AnomalyThresholds
    records: list[SurvivalRecord]
    km_all: SurvivalCurve | None  # None when there are no records
    scope: GroupComparison
    timeframe: GroupComparison
    series: list[DensityPoint]
    flags: list[AnomalyFlag]
    rates: ChangeRates

    @property
    def app(self) -> str:
        return self.history.app_name


def analyze_history(
    history: History,
    options: TrackingOptions | None = None,
    thresholds: AnomalyThresholds | None = None,
) -> AnalysisBundle:
    if thresholds is None:
        thresholds = AnomalyThresholds()
    records = build_survival_records(history, options)
    view1, view2 = assign_timeframes(records, history)
    series = density_series(history)
    return AnalysisBundle(
        history=history,
        thresholds=thresholds,
        records=records,
        km_all=kaplan_meier(records) if records else None,
        scope=compare_groups(records, "scope"),
        timeframe=compare_groups(view1 + view2, "timeframe"),
        series=series,
        flags=flag_anomalies(series, thresholds),
        rates=metric_change_rates(history),
    )


def write_bundle(bundle: AnalysisBundle, out_dir: Path, formats: set[str]) -> list[Path]:
    """Write one application's output files under out_dir/<app>/."""
    app_dir = Path(out_dir) / bundle.app
    comparisons = (bundle.scope, bundle.timeframe)
    written: list[Path] = []

    def emit(name: str, content: str) -> None:
        path = app_dir / name
        write_atomic(path, content)
        written.append(path)

    if "csv" in formats:
        emit("records.csv", records_csv(bundle.app, bundle.records))
        emit("lifelines.csv", lifelines_csv(bundle.records))
        emit("counts_by_rule.csv", counts_by_rule_csv(bundle.history))
        emit("density.csv", density_csv(bundle.series))
        emit("anomalies.csv", anomalies_csv(bundle.flags))
        emit("km_all.csv", curve_csv(bundle.km_all))
        for c in comparisons:
            emit(f"summary_{c.partition}.csv", summary_csv(c))
            emit(f"km_{c.partition}.csv", grouped_curves_csv(c))
            emit(f"logrank_{c.partition}.json", _json_line(_logrank_json(c)))

    if "json" in formats:
        emit("anomalies.json", anomaly_report_json(bundle.app, bundle.series, bundle.flags, bundle.thresholds))
        emit("bundle.json", _bundle_json(bundle))

    if "svg" in formats:
        for c in comparisons:
            series = [
                (label, [(p.time_days, p.survival) for p in curve.points])
                for label, curve in c.curves.items()
            ]
            emit(f"km_{c.partition}.svg", svgplot.step_chart(series, f"{bundle.app}: survival by {c.partition}"))
        origin = bundle.history.snapshots[0].timestamp
        segments = sorted(
            (
                (r.first_date - origin).total_seconds() / 86400.0,
                (r.first_date - origin).total_seconds() / 86400.0 + r.duration_days,
                r.censored == 0,
            )
            for r in bundle.records
        )
        emit("lifelines.svg", svgplot.lifeline_chart(segments, f"{bundle.app}: smell lifelines"))
        points = [
            (float(i), p.delta_rho)
            for i, p in enumerate(bundle.series)
        ]
        thresholds = bundle.thresholds
        guides = [
            (thresholds.up, f"+{thresholds.up:.0%}"),
            (thresholds.up2, f"+{thresholds.up2:.0%}"),
            (thresholds.down, f"{thresholds.down:.0%}"),
        ]
        emit("density.svg", svgplot.threshold_chart(points, guides, f"{bundle.app}: smell density change"))

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
        "metric_change_rates": {
            "d_loc": json_number(fmt_rate(bundle.rates.d_loc)),
            "d_lloc": json_number(fmt_rate(bundle.rates.d_lloc)),
            "d_classes": json_number(fmt_rate(bundle.rates.d_classes)),
        },
        "anomaly_flags": _flags_json(bundle.flags),
    }
    for c in (bundle.scope, bundle.timeframe):
        doc[c.partition] = {
            "summaries": {label: _summary_json(c.summaries[label]) for label in c.labels},
            "logrank": _logrank_json(c),
        }
    return _json_text(doc)
