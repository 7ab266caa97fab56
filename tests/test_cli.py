from __future__ import annotations

import builtins
import contextlib
import csv
import encodings.aliases
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smellsurv.anomaly import density_series, flag_anomalies
from smellsurv.cli import (
    EXIT_ERROR,
    EXIT_GATE_FAILED,
    EXIT_INSUFFICIENT_HISTORY,
    EXIT_OK,
    main,
)
from smellsurv import cli, survival
from smellsurv.errors import SmellSurvError
from smellsurv.report import BUNDLE_FILES, _csv_chunks, analyze_history, fmt_rate, write_bundle
from smellsurv.survival import kaplan_meier
from smellsurv.tracking import assign_timeframes

from conftest import NO_SMELL_REPORT, history_from_bits, load_manifest, pairs, ts, write_no_smell_history
from oracles import logrank_oracle, records_oracle

TRIAPP = Path(__file__).parent / "data" / "triapp"
SRC = Path(__file__).parents[1] / "src"


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def test_detect_empty_model(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("[]")
    assert main(["detect", "--code-model", str(model), "--version-id", "1.0", "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = read_csv(tmp_path / "out" / "occurrences.csv")
    assert rows == []
    assert json.loads((tmp_path / "out" / "occurrences.json").read_text()) == []


def test_detect_long_method(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps([
        {"kind": "method", "name": "m", "file": "a.php", "parent": "A", "loc": 150},
    ]))
    assert main(["detect", "--code-model", str(model), "--version-id", "2.3", "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = read_csv(tmp_path / "out" / "occurrences.csv")
    assert [(r["rule"], r["scope"], r["version"]) for r in rows] == [
        ("ExcessiveMethodLength", "localized", "2.3")
    ]


def test_detect_unreadable_path_reports_error(tmp_path, capsys):
    code = main(["detect", "--code-model", str(tmp_path / "nope.json"), "--version-id", "1", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    err_lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err_lines) == 1
    record = json.loads(err_lines[0])
    assert "error" in record and "message" in record


@pytest.mark.parametrize("model", [TRIAPP / "models" / "beta-0.9.json", Path("missing.json")], ids=["model", "no model"])
def test_detect_accepts_only_csv_and_json_and_checks_them_first(tmp_path, capsys, model):
    # detect writes no charts; a missing model shows the formats are checked before it is read
    out = tmp_path / "out"
    args = ["detect", "--code-model", str(tmp_path / model), "--version-id", "1", "--formats", "csv,svg", "--out", str(out)]
    assert main(args) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": "unknown output formats: svg"}
    assert not out.exists()


def test_detect_with_threshold_override(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps([
        {"kind": "method", "name": "m", "file": "a.php", "loc": 60},
    ]))
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"ExcessiveMethodLength": 50}))
    assert main(["detect", "--code-model", str(model), "--version-id", "1", "--rules", str(rules), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(read_csv(tmp_path / "out" / "occurrences.csv")) == 1


def test_detect_replaces_its_files_only_once_both_are_written(tmp_path, capsys):
    # occurrences.json cannot be replaced, so the old occurrences.csv must stay
    out = tmp_path / "out"
    (out / "occurrences.json").mkdir(parents=True)
    (out / "occurrences.csv").write_text("old\n")
    args = ["detect", "--code-model", str(TRIAPP / "models" / "beta-0.9.json"), "--version-id", "1", "--out", str(out)]
    assert main(args) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "OutputError"
    assert record["message"].startswith(f"cannot write under --out {out}: [Errno 21] Is a directory")
    assert sorted(p.name for p in out.iterdir()) == ["occurrences.csv", "occurrences.json"]
    assert (out / "occurrences.csv").read_text() == "old\n"


# ---------------------------------------------------------------------------
# analyze on the bundled three-app fixture
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def triapp_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    code = main([
        "analyze", "--manifest", str(TRIAPP / "manifest.csv"),
        "--formats", "csv,json,svg", "--out", str(out),
    ])
    assert code == EXIT_OK
    return out


def test_analyze_writes_per_app_bundles(triapp_out):
    # every format together writes exactly BUNDLE_FILES, the names a bundle may hold
    names = {
        "records.csv", "lifelines.csv", "counts_by_rule.csv", "density.csv",
        "anomalies.csv", "summary_scope.csv", "summary_timeframe.csv",
        "km_all.csv", "km_scope.csv", "km_timeframe.csv",
        "logrank_scope.json", "logrank_timeframe.json",
        "anomalies.json", "bundle.json",
        "km_scope.svg", "km_timeframe.svg", "lifelines.svg", "density.svg",
    }
    assert BUNDLE_FILES == names
    for app in ("alpha", "beta", "gamma"):
        assert {p.name for p in (triapp_out / app).iterdir()} == names


def test_alpha_records_and_flags(triapp_out):
    rows = read_csv(triapp_out / "alpha" / "records.csv")
    assert len(rows) == 8
    by_key = {r["key"]: r for r in rows}
    survivor = by_key["app/a.php::App/AClass/m1::0"]
    assert (survivor["censored"], survivor["end_date"]) == ("0", "")
    assert survivor["duration_days"] == "366.00"
    removed = by_key["app/a.php::App/AClass/m2::0"]
    assert removed["censored"] == "1"
    assert removed["end_date"].startswith("2020-08-01")

    flags = read_csv(triapp_out / "alpha" / "anomalies.csv")
    assert [(f["version"], f["kind"]) for f in flags] == [
        ("2.0", "increase_100"),
        ("2.1", "decrease_50"),
    ]


def test_alpha_scope_comparison_is_clean(triapp_out):
    doc = json.loads((triapp_out / "alpha" / "logrank_scope.json").read_text())
    assert set(doc) == {"statistic", "p_value"}
    summary = read_csv(triapp_out / "alpha" / "summary_scope.csv")
    assert [r["group"] for r in summary] == ["localized", "scattered"]
    assert [r["found"] for r in summary] == ["5", "3"]


def test_gamma_has_no_scattered_smells(triapp_out):
    summary = read_csv(triapp_out / "gamma" / "summary_scope.csv")
    scattered = [r for r in summary if r["group"] == "scattered"][0]
    assert scattered["found"] == "0"
    assert scattered["median_days"] == ""
    doc = json.loads((triapp_out / "gamma" / "logrank_scope.json").read_text())
    assert "empty group: scattered" in doc["error"]


def test_gamma_timeframe_test_undefined(triapp_out):
    doc = json.loads((triapp_out / "gamma" / "logrank_timeframe.json").read_text())
    assert "error" in doc


def test_beta_code_model_pipeline(triapp_out):
    rows = read_csv(triapp_out / "beta" / "records.csv")
    by_key = {r["key"]: r for r in rows}
    assert by_key["core/engine.php::Core/big::0"]["censored"] == "1"
    assert by_key["core/wide.php::Wide::0"]["censored"] == "0"
    assert by_key["core/new.php::Core/newer::0"]["duration_days"] == "0.00"
    bundle = json.loads((triapp_out / "beta" / "bundle.json").read_text())
    assert bundle["metric_change_rates"]["d_classes"] is not None


def test_gamma_missing_size_metrics_marked_unavailable(triapp_out):
    bundle = json.loads((triapp_out / "gamma" / "bundle.json").read_text())
    assert bundle["metric_change_rates"]["d_loc"] is None
    assert bundle["metric_change_rates"]["d_classes"] is None
    assert bundle["metric_change_rates"]["d_lloc"] is not None


def test_counts_by_rule_covers_every_version_and_rule(triapp_out):
    rows = read_csv(triapp_out / "alpha" / "counts_by_rule.csv")
    assert len(rows) == 4 * 6
    totals = {}
    for r in rows:
        totals[r["version"]] = totals.get(r["version"], 0) + int(r["count"])
    assert totals == {"1.0": 4, "1.1": 5, "2.0": 6, "2.1": 5}


def test_svg_outputs_are_wellformed_with_monotone_steps(triapp_out):
    for app in ("alpha", "beta", "gamma"):
        for name in ("km_scope.svg", "km_timeframe.svg", "lifelines.svg", "density.svg"):
            root = ET.fromstring((triapp_out / app / name).read_bytes())
            assert root.tag.endswith("svg")
    # survival step paths: pixel y must be non-decreasing (survival non-increasing)
    root = ET.fromstring((triapp_out / "alpha" / "km_scope.svg").read_bytes())
    ns = {"svg": "http://www.w3.org/2000/svg"}
    curve_paths = [
        el.get("d") for el in root.iter("{http://www.w3.org/2000/svg}path")
        if el.get("fill") == "none" and el.get("d", "").startswith("M")
    ]
    assert curve_paths
    for d in curve_paths:
        tokens = d.split()
        ys = []
        i = 0
        while i < len(tokens):
            if tokens[i] == "M":
                ys.append(float(tokens[i + 2])); i += 3
            elif tokens[i] == "V":
                ys.append(float(tokens[i + 1])); i += 2
            elif tokens[i] == "H":
                i += 2
            else:
                i += 1
        assert ys == sorted(ys)


# ---------------------------------------------------------------------------
# records CSV against the bitstring oracle, byte for byte
# ---------------------------------------------------------------------------

def test_records_csv_matches_oracle_byte_for_byte(tmp_path):
    days = [0.0, 45.0, 100.0]
    bits_by_key = {"A/keep": "111", "A/lost": "110", "B/late": "011"}
    history = history_from_bits(bits_by_key, days=days, app="tri")
    write_bundle(analyze_history(history), tmp_path, {"csv"})
    got = (tmp_path / "tri" / "records.csv").read_bytes().decode()

    timestamps = [ts(d) for d in days]
    split = ts(50.0)
    lines = [
        "app,rule,scope,key,first_version,first_date,last_present_version,end_date,censored,duration_days,timeframe"
    ]
    for key in sorted(bits_by_key):  # one file, so ordering is by entity path
        for first, last, censored, duration in records_oracle(bits_by_key[key], timestamps, 0):
            end = timestamps[last + 1].isoformat() if censored else ""
            lines.append(
                ",".join([
                    "tri", "ExcessiveMethodLength", "localized", f"src/a.php::{key}::0",
                    f"v{first + 1}", timestamps[first].isoformat(), f"v{last + 1}", end,
                    str(censored), f"{duration:.2f}",
                    "1" if timestamps[first] < split else "2",
                ])
            )
    expected = "\n".join(lines) + "\n"
    assert got == expected


def test_write_bundle_never_holds_a_csv_tables_whole_text(tmp_path):
    # 10,000 records; with each table's whole text built in memory the peak
    # was 5.1-5.6 times the size of records.csv, written a chunk at a time 2.5-2.7
    patterns = ["1100", "0110", "1111", "1000", "0011"]
    history = history_from_bits({f"Cls{i:05d}/method_{i}": patterns[i % 5] for i in range(10_000)})
    bundle = analyze_history(history)
    assert len(bundle.records) == 10_000
    tracemalloc.start()
    try:
        write_bundle(bundle, tmp_path, {"csv"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (tmp_path / "synthetic" / "records.csv").stat().st_size


# ---------------------------------------------------------------------------
# CSV text: RFC 4180 quoting, the same bytes on every supported Python
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "cell, written",
    [
        ("a", "a"),
        ("a,b", '"a,b"'),
        ('a"b', '"a""b"'),
        ("a\nb", '"a\nb"'),
        ("a\rb", '"a\rb"'),  # bare before 3.13
        ("a\0b", "a\0b"),  # refused by csv.writer on 3.10
        ("", ""),
        (" a ", " a "),
    ],
    ids=["plain", "comma", "quote", "lf", "cr", "nul", "empty", "spaces"],
)
def test_csv_text_quotes_a_cell_holding_a_comma_a_quote_or_a_line_break(cell, written):
    text = "".join(_csv_chunks((["x", "cell", "y"], [["1", cell, "2"], [cell, cell, cell]])))
    assert text.encode() == f"x,cell,y\n1,{written},2\n{written},{written},{written}\n".encode()


# csv.reader refuses a NUL on 3.10
CSV_ALPHABET = 'ab ,"\r\n' + ("\0" if sys.version_info >= (3, 11) else "")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=3, max_value=5).flatmap(
        lambda width: st.lists(
            st.lists(st.text(alphabet=CSV_ALPHABET, max_size=5), min_size=width, max_size=width),
            min_size=1,
            max_size=6,
        )
    ),
    st.integers(min_value=1, max_value=4),
)
def test_csv_text_reads_back_as_its_cells_and_is_csv_writers_text_from_3_13(lines, chunk_lines):
    header, *rows = lines
    text = "".join(_csv_chunks((header, rows), chunk_lines))
    assert list(csv.reader(io.StringIO(text, newline=""))) == lines
    if sys.version_info >= (3, 13):  # csv.writer quotes a CR from 3.13 on
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(lines)
        assert text == buf.getvalue()


def test_a_nul_in_a_cell_is_written_bare_by_detect_and_analyze(tmp_path, capsys):
    # csv.writer on 3.10 raised a raw _csv.Error for it, and both commands exited 1
    model = json.dumps([{"kind": "method", "name": "m\0x", "file": "a.php", "parent": "A", "loc": 150}])
    (tmp_path / "m0.json").write_text(model)
    (tmp_path / "m1.json").write_text(model)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "app,version,timestamp,report_path,lloc\n"
        "demo,1.0,2020-01-01,m0.json,1000\ndemo,2.0,2020-02-01,m1.json,1000\n"
    )
    detect = ["detect", "--code-model", str(tmp_path / "m0.json"), "--version-id", "1", "--out", str(tmp_path / "d")]
    assert main(detect) == EXIT_OK
    assert main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (tmp_path / "d" / "occurrences.csv").read_bytes().splitlines()[1] == (
        b"1,ExcessiveMethodLength,localized,a.php,A/m\0x"
    )
    assert (tmp_path / "a" / "demo" / "records.csv").read_bytes().splitlines()[1] == (
        b"demo,ExcessiveMethodLength,localized,a.php::A/m\0x::0,"
        b"1.0,2020-01-01T00:00:00+00:00,2.0,,0,31.00,1"
    )


# ---------------------------------------------------------------------------
# engineered timeframes must separate
# ---------------------------------------------------------------------------

def test_engineered_timeframes_reach_significance():
    bits_by_key = {f"fast{i:02d}": "1100" for i in range(20)}
    bits_by_key.update({f"late{i:02d}": "0011" for i in range(20)})
    history = history_from_bits(bits_by_key, days=[0.0, 10.0, 200.0, 400.0])
    bundle = analyze_history(history)
    comparison = bundle.timeframe
    assert comparison.test is not None
    views = assign_timeframes(bundle.records, history)
    view1, view2 = ([r for r in views if r.timeframe == t] for t in (1, 2))
    assert comparison.curves == {"1": kaplan_meier(pairs(view1)), "2": kaplan_meier(pairs(view2))}
    stat, p = logrank_oracle(pairs(view1), pairs(view2))
    assert comparison.test.p_value == pytest.approx(p, abs=1e-9)
    assert comparison.test.p_value < 0.05


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def write_model(path: Path, count: int) -> None:
    """A code model with ``count`` methods over the method-length threshold."""
    path.write_text(json.dumps([
        {"kind": "method", "name": f"m{j}", "file": "a.php", "parent": "A", "loc": 150}
        for j in range(count)
    ]))


def gate_manifest(tmp_path, counts, llocs):
    lines = ["app,version,timestamp,report_path,lloc"]
    for i, (count, lloc) in enumerate(zip(counts, llocs)):
        write_model(tmp_path / f"m{i}.json", count)
        lines.append(f"demo,{i + 1}.0,2020-0{i + 1}-01,m{i}.json,{lloc}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_gate_passes_on_quiet_latest_transition(tmp_path, capsys):
    manifest = gate_manifest(tmp_path, [10, 11], [10_000, 10_500])
    assert main(["gate", "--manifest", str(manifest)]) == EXIT_OK
    assert "[ok]" in capsys.readouterr().out


def test_gate_fails_on_increase(tmp_path, capsys):
    manifest = gate_manifest(tmp_path, [10, 17], [10_000, 10_000])
    assert main(["gate", "--manifest", str(manifest)]) == EXIT_GATE_FAILED
    out = capsys.readouterr().out
    assert "increase_50" in out and "FAIL" in out


def test_gate_triapp_passes():
    assert main(["gate", "--manifest", str(TRIAPP / "manifest.csv")]) == EXIT_OK


def test_gate_single_version_is_insufficient(tmp_path):
    manifest = gate_manifest(tmp_path, [10], [10_000])
    assert main(["gate", "--manifest", str(manifest)]) == EXIT_INSUFFICIENT_HISTORY


def test_gate_respects_custom_thresholds(tmp_path):
    manifest = gate_manifest(tmp_path, [10, 12], [10_000, 10_000])  # +20%
    assert main(["gate", "--manifest", str(manifest)]) == EXIT_OK
    assert main(["gate", "--manifest", str(manifest), "--up", "0.1"]) == EXIT_GATE_FAILED


def test_gate_rules_override_matches_analyze_density(tmp_path, capsys):
    # methods of 60 lines are clean by default and smells under a threshold of 50
    for i, short in enumerate((2, 6)):
        (tmp_path / f"m{i}.json").write_text(json.dumps([
            {"kind": "method", "name": f"m{j}", "file": "a.php", "parent": "A", "loc": 150 if j < 4 else 60}
            for j in range(4 + short)
        ]))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "app,version,timestamp,report_path,lloc\n"
        "demo,1.0,2020-01-01,m0.json,10000\ndemo,2.0,2020-02-01,m1.json,10000\n"
    )
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"ExcessiveMethodLength": 50}))

    assert main(["gate", "--manifest", str(manifest)]) == EXIT_OK
    assert "delta_rho=0 [ok]" in capsys.readouterr().out
    assert main(["gate", "--manifest", str(manifest), "--rules", str(rules)]) == EXIT_GATE_FAILED
    gate_out = capsys.readouterr().out
    assert main(["analyze", "--manifest", str(manifest), "--rules", str(rules), "--out", str(tmp_path / "out")]) == EXIT_OK
    delta_rho = read_csv(tmp_path / "out" / "demo" / "density.csv")[-1]["delta_rho"]
    assert delta_rho == fmt_rate(10 / 6 - 1)
    assert gate_out == f"demo 2.0: delta_rho={delta_rho} [FAIL] increase_50\n"


# ---------------------------------------------------------------------------
# gate checks every row but reads only each app's two latest reports
# ---------------------------------------------------------------------------

def test_gate_opens_only_the_two_latest_reports_per_app(tmp_path, monkeypatch, capsys):
    # rows out of timestamp order: the last two rows of each app are not its latest two
    rows = [
        ("alpha", "3.0", "2020-09-01"), ("beta", "2.0", "2020-06-01"), ("alpha", "1.0", "2020-01-01"),
        ("beta", "3.0", "2020-10-01"), ("alpha", "2.0", "2020-05-01"), ("beta", "1.0", "2020-02-01"),
    ]
    lines = ["app,version,timestamp,report_path,lloc"]
    for app, version, day in rows:
        write_model(tmp_path / f"{app}-{version}.json", 10)
        lines.append(f"{app},{version},{day},{app}-{version}.json,10000")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["gate", "--manifest", str(manifest)]) == EXIT_OK
    assert sorted(p.name for p in opened if p != manifest) == [
        "alpha-2.0.json", "alpha-3.0.json", "beta-2.0.json", "beta-3.0.json",
    ]
    assert capsys.readouterr().out == (
        "alpha 3.0: delta_rho=0 [ok]\nbeta 3.0: delta_rho=0 [ok]\n"
    )


def four_version_rows(tmp_path) -> list[list[str]]:
    """Manifest rows (header first) of a four-version app whose last two versions are sound."""
    rows = [["app", "version", "timestamp", "report_path", "lloc", "loc", "classes"]]
    for i in range(4):
        write_model(tmp_path / f"m{i}.json", 10)
        rows.append(["demo", f"{i + 1}.0", f"2020-0{i + 1}-01", f"m{i}.json", "10000", "40000", "82"])
    return rows


def write_rows(tmp_path, rows) -> Path:
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(",".join(row) + "\n" for row in rows))
    return manifest


@pytest.mark.parametrize(
    "row, column, value, message",
    [
        (2, 2, "nope", "bad timestamp"),
        # out of range only once converted to UTC
        (2, 2, "0001-01-01T00:00+01:00", "bad timestamp '0001-01-01T00:00+01:00'"),
        (5, 2, "9999-12-31T23:59-01:00", "bad timestamp '9999-12-31T23:59-01:00'"),
        (2, 4, "0", "lloc must be positive"),
        (3, 1, "1.0", "duplicate version id"),
        (3, 2, "2020-01-01", "timestamps not strictly increasing"),
        (2, 3, "missing.json", "report file unreadable"),
        (2, 5, "-1", "loc must be >= 0, got -1"),
        (5, 6, "-95", "classes must be >= 0, got -95"),
    ],
    ids=["bad timestamp", "timestamp before year 1 in UTC", "timestamp after year 9999 in UTC", "zero lloc",
         "duplicate version", "equal timestamps", "missing report", "negative loc", "negative classes"],
)
def test_gate_checks_every_row(tmp_path, capsys, row, column, value, message):
    # and so does analyze, with the same error
    rows = four_version_rows(tmp_path)
    rows[row - 1][column] = value
    manifest = write_rows(tmp_path, rows)
    for command in (["gate"], ["analyze", "--out", str(tmp_path / "out")]):
        assert main([*command, "--manifest", str(manifest)]) == EXIT_ERROR
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ManifestError"
        assert record["row"] == row
        assert message in record["message"]
    assert not (tmp_path / "out").exists()


def test_malformed_earlier_report_fails_analyze_but_not_gate(tmp_path, capsys):
    rows = four_version_rows(tmp_path)
    (tmp_path / "m0.xml").write_text('<pmd><file name="a.php">')
    rows[1][3] = "m0.xml"
    manifest = write_rows(tmp_path, rows)
    assert main(["gate", "--manifest", str(manifest)]) == EXIT_OK
    assert capsys.readouterr().out == "demo 4.0: delta_rho=0 [ok]\n"
    assert main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert (record["error"], record["row"]) == ("ReportParseError", 2)
    assert str(tmp_path / "m0.xml") in record["message"]


@pytest.mark.parametrize("make", [os.mkfifo, Path.mkdir], ids=["fifo", "directory"])
@pytest.mark.parametrize("command", ["gate", "analyze"])
def test_a_report_that_is_not_a_regular_file_is_refused_without_being_read(tmp_path, command, make):
    # in a child with a timeout: a FIFO read by the parser would block forever
    rows = four_version_rows(tmp_path)
    make(tmp_path / "r1.xml")
    rows[2][3] = "r1.xml"  # row 3 of 5: not among the latest two
    manifest = write_rows(tmp_path, rows)
    out = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    args = [sys.executable, "-m", "smellsurv.cli", command, "--manifest", str(manifest), *out]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(args, env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (EXIT_ERROR, "")
    assert json.loads(result.stderr) == {
        "error": "ManifestError", "row": 3, "message": f"report file {tmp_path / 'r1.xml'} is not a regular file",
    }
    assert not (tmp_path / "out").exists()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 40)), min_size=2, max_size=9))
def test_gate_matches_the_full_history_verdict(series):
    counts, llocs = zip(*series)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        manifest = gate_manifest(Path(tmp), counts, llocs)
        code = main(["gate", "--manifest", str(manifest)])
        history = load_manifest(manifest.read_text(), base_dir=tmp)
    points = density_series(history)
    latest = points[-1]
    flags = [f for f in flag_anomalies(points) if f.version_id == latest.version_id]
    failed = any(f.kind.startswith("increase") for f in flags)
    expected = (
        f"demo {latest.version_id}: delta_rho={fmt_rate(latest.delta_rho)} [{'FAIL' if failed else 'ok'}]"
        + "".join(f" {f.kind}" for f in flags)
    )
    assert out.getvalue() == expected + "\n"
    assert code == (EXIT_GATE_FAILED if failed else EXIT_OK)


# ---------------------------------------------------------------------------
# report errors name the report file and the manifest row
# ---------------------------------------------------------------------------

# code models with a field of the wrong JSON type; two flagged entities make
# evaluate_rules sort, which a non-string name would break
WRONG_TYPE_MODELS = [
    b'[{"kind": "method", "name": "m", "file": "a.php", "loc": null}]',
    b'[{"kind": "method", "name": "m", "file": "a.php", "loc": [150]}]',
    b'[{"kind": "method", "name": 7, "file": "a.php", "loc": 150},'
    b' {"kind": "method", "name": "m", "file": "a.php", "loc": 150}]',
    b'[{"kind": "method", "name": "m", "file": null, "loc": 150}]',
    b'[{"kind": "method", "name": "m", "file": "a.php", "parent": 3, "loc": 150}]',
    # strings no UTF-8 output can hold; the strict decode leaves a \u escape the only way in
    b'[{"kind": "method", "name": "m\\ud800", "file": "a.php", "loc": 150}]',
    b'[{"kind": "method", "name": "m", "file": "\\udc00a.php", "loc": 150}]',
    b'[{"kind": "method", "name": "m", "file": "a.php", "parent": "A\\udfff", "loc": 150}]',
]
WRONG_TYPE_IDS = [
    "null metric", "list metric", "non-string name", "null file", "non-string parent",
    "lone surrogate in name", "lone surrogate in file", "lone surrogate in parent",
]

@pytest.mark.parametrize("command", ["analyze", "gate"])
@pytest.mark.parametrize(
    "name, content, error",
    [
        ("bad.xml", b'<pmd><file name="a.php"><violation', "ReportParseError"),
        (
            "bad.xml",
            b'<pmd><file name="a.php"><violation beginline="one" endline="9"'
            b' rule="ExcessiveMethodLength" class="A" method="m"/></file></pmd>',
            "ReportParseError",
        ),
        (
            "bad.xml",
            b'<pmd><file name="a.php"><violation beginline="9" endline="3"'
            b' rule="ExcessiveMethodLength" class="A" method="m"/></file></pmd>',
            "ReportParseError",
        ),
        ("bad.json", b'[{"kind": "method", "name": "\xff", "file": "a.php"}]', "ConfigError"),
        ("bad", b'[{"kind": "method", "name": "\xff", "file": "a.php"}]', "ConfigError"),
        *((f"bad-{i}.json", model, "ConfigError") for i, model in enumerate(WRONG_TYPE_MODELS)),
    ],
    ids=[
        "malformed XML",
        "non-integer beginline",
        "beginline after endline",
        "non-UTF-8 code model",
        "non-UTF-8 extension-less model",
        *WRONG_TYPE_IDS,
    ],
)
def test_report_error_names_the_file_and_the_row(tmp_path, capsys, command, name, content, error):
    rows = four_version_rows(tmp_path)
    (tmp_path / name).write_bytes(content)
    rows[3][3] = name
    manifest = write_rows(tmp_path, rows)
    out = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    assert main([command, "--manifest", str(manifest), *out]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert (record["error"], record["row"]) == (error, 4)
    assert str(tmp_path / name) in record["message"]
    if "malformed" in record["message"]:
        assert 0 < record["byte_offset"] <= len(content)


@pytest.mark.parametrize("command", ["analyze", "gate"])
@pytest.mark.parametrize("encoding", ["bogus", "rot13", "cp932", "idna", "punycode"])
def test_a_declared_encoding_expat_cannot_use_is_a_report_parse_error(tmp_path, capsys, command, encoding):
    # Python's codecs refuse these names, or cannot hand expat a one-byte table
    rows = four_version_rows(tmp_path)
    (tmp_path / "bad.xml").write_text(NO_SMELL_REPORT.replace("UTF-8", encoding))
    rows[3][3] = "bad.xml"
    manifest = write_rows(tmp_path, rows)
    out = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    assert main([command, "--manifest", str(manifest), *out]) == EXIT_ERROR
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert (record["error"], record["row"]) == ("ReportParseError", 4)
    assert str(tmp_path / "bad.xml") in record["message"]
    assert f"declared encoding {encoding!r} cannot be read" in record["message"]


# ---------------------------------------------------------------------------
# error handling and formats
# ---------------------------------------------------------------------------

def test_analyze_missing_manifest_reports_machine_readable_error(tmp_path, capsys):
    assert main(["analyze", "--manifest", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == EXIT_ERROR
    err_lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err_lines) == 1
    assert "error" in json.loads(err_lines[0])


def test_analyze_manifest_row_error_carries_row_number(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("app,version,timestamp,report_path,lloc\ndemo,1.0,nope,x.xml,100\n")
    assert main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path)]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert record["row"] == 2


def test_unknown_format_rejected(tmp_path, capsys):
    code = main(["analyze", "--manifest", str(TRIAPP / "manifest.csv"), "--formats", "pdf", "--out", str(tmp_path)])
    assert code == EXIT_ERROR


THRESHOLD_ORDER = "thresholds must satisfy down < 0 < up <= up2, got"
THRESHOLD_FINITE = "thresholds must be finite, got"


@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("analyze", "--formats=pdf", "unknown output formats: pdf"),
        ("analyze", "--formats=", "at least one output format is required"),
        ("analyze", "--gap-tolerance=-1", "gap_tolerance must be >= 0, got -1"),
        ("analyze", "--up=-0.1", f"{THRESHOLD_ORDER} -0.5, -0.1, 1.0"),
        ("analyze", "--up2=0.4", f"{THRESHOLD_ORDER} -0.5, 0.5, 0.4"),
        ("analyze", "--up=1.5", f"{THRESHOLD_ORDER} -0.5, 1.5, 1.0"),
        ("analyze", "--down=0.1", f"{THRESHOLD_ORDER} 0.1, 0.5, 1.0"),
        ("gate", "--up=-0.1", f"{THRESHOLD_ORDER} -0.5, -0.1, 1.0"),
        ("gate", "--up2=0.4", f"{THRESHOLD_ORDER} -0.5, 0.5, 0.4"),
        ("gate", "--down=0.1", f"{THRESHOLD_ORDER} 0.1, 0.5, 1.0"),
        ("analyze", "--up2=inf", f"{THRESHOLD_FINITE} -0.5, 0.5, inf"),
        ("analyze", "--down=-inf", f"{THRESHOLD_FINITE} -inf, 0.5, 1.0"),
        ("gate", "--up2=inf", f"{THRESHOLD_FINITE} -0.5, 0.5, inf"),
        ("gate", "--down=-inf", f"{THRESHOLD_FINITE} -inf, 0.5, 1.0"),
    ],
)
def test_a_bad_argument_value_is_a_config_error(tmp_path, capsys, command, flag, message):
    out = tmp_path / "out"
    args = [command, "--manifest", str(TRIAPP / "manifest.csv"), flag] + (["--out", str(out)] if command == "analyze" else [])
    assert main(args) == EXIT_ERROR
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ConfigError", "message": message}
    assert captured.out == ""
    assert not out.exists()


def test_analyze_history_without_any_smells(tmp_path):
    manifest = write_no_smell_history(tmp_path)
    out = tmp_path / "out"
    assert main(["analyze", "--manifest", str(manifest), "--formats", "csv,json,svg", "--out", str(out)]) == EXIT_OK
    assert read_csv(out / "clean" / "records.csv") == []
    assert read_csv(out / "clean" / "km_all.csv") == []
    summary = read_csv(out / "clean" / "summary_scope.csv")
    assert [(r["group"], r["found"]) for r in summary] == [("localized", "0"), ("scattered", "0")]
    assert "error" in json.loads((out / "clean" / "logrank_scope.json").read_text())
    for name in ("km_scope.svg", "lifelines.svg", "density.svg"):
        ET.fromstring((out / "clean" / name).read_bytes())


def test_analyze_names_short_app_and_writes_nothing(tmp_path, capsys):
    lines = ["app,version,timestamp,report_path,lloc"]
    for version, day in (("1.0", "01-01"), ("1.1", "04-01"), ("2.0", "08-01"), ("2.1", "12-01")):
        lines.append(f"alpha,{version},2020-{day},{TRIAPP / 'reports' / f'alpha-{version}.xml'},10000")
    lines.append(f"zeta,1.0,2020-01-01,{TRIAPP / 'reports' / 'alpha-1.0.xml'},10000")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ManifestError"
    assert record["message"] == "insufficient history (need >= 2 versions): zeta"
    assert not out.exists()


def test_analyze_calls_kaplan_meier_once_per_curve(tmp_path, monkeypatch):
    # triapp has 3 all-records curves and 11 non-empty groups over its two partitions
    calls = []
    original = survival.kaplan_meier

    def counted(records):
        calls.append(1)
        return original(records)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("smellsurv") and getattr(module, "kaplan_meier", None) is original:
            monkeypatch.setattr(module, "kaplan_meier", counted)
    code = main([
        "analyze", "--manifest", str(TRIAPP / "manifest.csv"),
        "--formats", "csv,json,svg", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert 0 < len(calls) <= 14


def test_csv_only_format_skips_json_and_svg(tmp_path):
    assert main([
        "analyze", "--manifest", str(TRIAPP / "manifest.csv"),
        "--formats", "csv", "--out", str(tmp_path),
    ]) == EXIT_OK
    assert (tmp_path / "alpha" / "records.csv").exists()
    assert not (tmp_path / "alpha" / "bundle.json").exists()
    assert not (tmp_path / "alpha" / "km_scope.svg").exists()


@pytest.mark.parametrize("model", WRONG_TYPE_MODELS, ids=WRONG_TYPE_IDS)
def test_detect_rejects_a_code_model_field_of_the_wrong_type(tmp_path, capsys, model):
    path = tmp_path / "model.json"
    path.write_bytes(model)
    assert main(["detect", "--code-model", str(path), "--version-id", "1", "--out", str(tmp_path / "out")]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert f"{path}: entity #0" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "detect", "gate"])
@pytest.mark.parametrize("loc", ["100.9", "true", '"11"', "-1"], ids=["float", "bool", "string", "negative"])
def test_metric_that_is_not_a_json_integer_at_least_0_is_a_config_error(tmp_path, capsys, command, loc):
    # entity #0 is sound; entity #1's loc would once have been read with int()
    rows = four_version_rows(tmp_path)
    model = tmp_path / "odd.json"
    model.write_text(
        '[{"kind": "method", "name": "m", "file": "a.php", "loc": 150},'
        f' {{"kind": "method", "name": "n", "file": "a.php", "loc": {loc}}}]'
    )
    rows[4][3] = model.name
    manifest = write_rows(tmp_path, rows)
    args = {
        "analyze": ["--manifest", str(manifest), "--out", str(tmp_path / "out")],
        "detect": ["--code-model", str(model), "--version-id", "1", "--out", str(tmp_path / "out")],
        "gate": ["--manifest", str(manifest)],
    }[command]
    assert main([command, *args]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert f"{model}: entity #1: loc must be a JSON integer >= 0" in record["message"]
    assert record.get("row") == (None if command == "detect" else 5)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "detect", "gate"])
def test_non_utf8_rules_file_is_a_config_error_naming_it(tmp_path, capsys, command):
    rules = tmp_path / "rules.json"
    rules.write_bytes(b'{"ExcessiveMethodLength": 50, "\xff": 1}')
    manifest = write_rows(tmp_path, four_version_rows(tmp_path))
    args = {
        "analyze": ["--manifest", str(manifest), "--out", str(tmp_path / "out")],
        "detect": ["--code-model", str(tmp_path / "m0.json"), "--version-id", "1", "--out", str(tmp_path / "out")],
        "gate": ["--manifest", str(manifest)],
    }[command]
    assert main([command, *args, "--rules", str(rules)]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert str(rules) in record["message"]


@pytest.mark.parametrize("command", ["detect", "gate"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_unreadable_rules_file_is_a_config_error_naming_it(tmp_path, capsys, command, kind):
    rules = tmp_path / "rules.json"
    if kind == "directory":
        rules.mkdir()
    manifest = write_rows(tmp_path, four_version_rows(tmp_path))
    args = {
        "detect": ["--code-model", str(tmp_path / "m0.json"), "--version-id", "1", "--out", str(tmp_path / "out")],
        "gate": ["--manifest", str(manifest)],
    }[command]
    assert main([command, *args, "--rules", str(rules)]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "row" not in record
    assert record["message"].startswith(f"rules file {rules} unreadable: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_unreadable_code_model_is_a_config_error_naming_it(tmp_path, capsys, kind):
    model = tmp_path / "model.json"
    if kind == "directory":
        model.mkdir()
    assert main(["detect", "--code-model", str(model), "--version-id", "1", "--out", str(tmp_path / "out")]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError" and "row" not in record
    assert record["message"].startswith(f"code model {model} unreadable: ")
    assert not (tmp_path / "out").exists()


# documents json refuses past its decoder's limits: an integer literal over
# the int-to-str digit limit, and arrays nested deeper than the recursion limit
UNDECODABLE_JSON = {
    "over-long integer": b'{"ExcessiveMethodLength": ' + b"9" * 5000 + b"}",
    "deep nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("command", ["analyze", "detect", "gate"])
@pytest.mark.parametrize("case", UNDECODABLE_JSON)
def test_json_the_decoder_refuses_is_a_config_error_naming_the_file(tmp_path, capsys, command, case):
    # detect reads it as --code-model, gate as --rules, analyze as a manifest row's code model
    rows = four_version_rows(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNDECODABLE_JSON[case])
    if command == "analyze":
        rows[3][3] = bad.name
    manifest = write_rows(tmp_path, rows)
    args = {
        "analyze": ["--manifest", str(manifest), "--out", str(tmp_path / "out")],
        "detect": ["--code-model", str(bad), "--version-id", "1", "--out", str(tmp_path / "out")],
        "gate": ["--manifest", str(manifest), "--rules", str(bad)],
    }[command]
    assert main([command, *args]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{'rules file' if command == 'gate' else 'code model'} {bad}: ")
    assert record.get("row") == (4 if command == "analyze" else None)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, error, message",
    [
        ("gate", "--manifest", "ManifestError", "manifest {path} unreadable: embedded null byte"),
        ("gate", "--rules", "ConfigError", "rules file {path}: embedded null byte"),
        ("detect", "--code-model", "ConfigError", "code model {path}: embedded null byte"),
        ("detect", "--out", "OutputError", "cannot write under --out {path}: embedded null byte"),
        ("analyze", "--out", "OutputError", "cannot write under --out {path}: embedded null byte"),
    ],
    ids=["manifest", "rules", "code model", "detect out", "analyze out"],
)
def test_a_nul_byte_in_a_path_flag_is_a_typed_error_naming_the_path(tmp_path, capsys, command, flag, error, message):
    manifest = write_rows(tmp_path, four_version_rows(tmp_path))
    (tmp_path / "rules.json").write_text("{}")
    args = {
        "analyze": {"--manifest": str(manifest), "--out": str(tmp_path / "out")},
        "detect": {"--code-model": str(tmp_path / "m0.json"), "--version-id": "1", "--out": str(tmp_path / "out")},
        "gate": {"--manifest": str(manifest), "--rules": str(tmp_path / "rules.json")},
    }[command]
    path = args[flag] = str(tmp_path / "a\0b")
    assert main([command, *(part for item in args.items() for part in item)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message.format(path=path)}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m0.json", "m1.json", "m2.json", "m3.json", "manifest.csv", "rules.json"]


# cells and bytes that have broken a manifest reader: quoting, NUL, CR/LF, a
# BOM, bytes that are not UTF-8, over-long fields and numbers, missing or odd
# report paths, and timestamps out of range
ODD_CELLS = [
    "", " ", "nope", "0", "-1", "1.5", "9" * 5000, "x" * 131_073, "1.0", "missing.json", ".", "..", "/",
    "a/b", "manifest.csv", "2020-01-01", "2020-02-30", "0001-01-01T00:00+01:00", "9999-12-31T23:59-01:00",
    '"a,b"', '"a""b"', '"open', 'a"b', '"a\nb"', "\0", "\ufeff", "é",
]
ODD_BYTES = [b'"', b",", b"\n", b"\r", b"\r\n", b"\0", b"\xff", b"\xc3", b"\xef\xbb\xbf"]


@st.composite
def mutated_manifests(draw, rows):
    # most examples keep a readable header, line ending and encoding, so that
    # the rows behind them are reached too
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows[1:] * 3 + rows[:1]))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS) | st.text(max_size=6))
    newline = draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]))
    text = "".join(",".join(row) + newline for row in rows)
    encoding = draw(st.sampled_from(["utf-8"] * 5 + ["utf-8-sig", "utf-16", "latin-1"]))
    data = text.encode(encoding, errors="replace")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data = data[:at] + draw(st.sampled_from(ODD_BYTES) | st.binary(max_size=3)) + data[at + cut:]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_clean_exit_or_one_typed_error_record(command: str, manifest: Path, fuzz_dir: Path) -> None:
    out = ["--out", str(fuzz_dir / "out")] if command == "analyze" else []
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([command, "--manifest", str(manifest), *out])
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_GATE_FAILED, EXIT_INSUFFICIENT_HISTORY)
    if code == EXIT_ERROR:
        (line,) = stderr.getvalue().splitlines()
        assert json.loads(line)["error"] in {cls.__name__ for cls in SmellSurvError.__subclasses__()}
    else:
        assert stderr.getvalue() == ""


@pytest.mark.parametrize("command", ["analyze", "gate"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_manifest_exits_cleanly_or_with_one_typed_error_record(fuzz_dir, command, data):
    manifest = fuzz_dir / "manifest.csv"
    manifest.write_bytes(data.draw(mutated_manifests(four_version_rows(fuzz_dir))))
    assert_clean_exit_or_one_typed_error_record(command, manifest, fuzz_dir)


# every codec name Python knows, and names it does not
DECLARED_ENCODINGS = sorted(set(encodings.aliases.aliases.values())) + ["bogus", "utf-99", "x" * 64, "", "1"]
VIOLATION = '<violation beginline="3" endline="90" rule="ExcessiveMethodLength" class="A" method="m">long</violation>'


@st.composite
def mutated_reports(draw) -> tuple[str, bytes]:
    """A report's file name and bytes: a valid PMD report, most declaring an
    encoding, or a valid code model, with a few bytes inserted, deleted or
    replaced; an extension-less name makes the loader sniff the flavor."""
    if draw(st.booleans()):
        report = NO_SMELL_REPORT.replace("</pmd>", f'<file name="a.php">{VIOLATION}</file></pmd>')
        encoding = draw(st.none() | st.none() | st.sampled_from(DECLARED_ENCODINGS))
        data = (report if encoding is None else report.replace("UTF-8", encoding)).encode()
        name = draw(st.sampled_from(["r.xml", "r.xml", "r"]))
    else:
        data = json.dumps([{"kind": "method", "name": "m", "file": "a.php", "parent": "A", "loc": 150}]).encode()
        name = draw(st.sampled_from(["r.json", "r.json", "r"]))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 3))
        data = data[:at] + draw(st.sampled_from(ODD_BYTES) | st.binary(max_size=3)) + data[at + cut:]
    return name, data


@pytest.mark.parametrize("command", ["analyze", "gate"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_report_exits_cleanly_or_with_one_typed_error_record(fuzz_dir, command, data):
    name, report = data.draw(mutated_reports())
    (fuzz_dir / name).write_bytes(report)
    rows = four_version_rows(fuzz_dir)
    rows[4][3] = name  # the latest version, which gate reads too
    assert_clean_exit_or_one_typed_error_record(command, write_rows(fuzz_dir, rows), fuzz_dir)


# ---------------------------------------------------------------------------
# an analyze run is published whole
# ---------------------------------------------------------------------------

def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under root, with its bytes (None for a directory)."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def test_rerun_replaces_each_app_directory_whole(tmp_path, capsys):
    out = tmp_path / "out"
    manifest = str(TRIAPP / "manifest.csv")
    assert main(["analyze", "--manifest", manifest, "--formats", "csv,json", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["analyze", "--manifest", manifest, "--formats", "json", "--out", str(out)]) == EXIT_OK
    assert sorted(tree(out)) == [
        f"{app}{name}"
        for app in ("alpha", "beta", "gamma")
        for name in ("", "/anomalies.json", "/bundle.json")
    ]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["alpha", "beta", "gamma"]
    assert all(line.endswith(f"2 files -> {out / app}") for line, app in zip(lines, ("alpha", "beta", "gamma")))


def test_failing_second_app_leaves_out_as_it_was(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    manifest = str(TRIAPP / "manifest.csv")
    assert main(["analyze", "--manifest", manifest, "--formats", "csv", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    before = tree(out)
    original = cli.write_bundle

    def failing(bundle, out_dir, formats):
        if bundle.app == "beta":
            raise OSError("no space left on device")
        return original(bundle, out_dir, formats)

    monkeypatch.setattr(cli, "write_bundle", failing)
    assert main(["analyze", "--manifest", manifest, "--formats", "csv,json,svg", "--out", str(out)]) == EXIT_ERROR
    assert tree(out) == before
    assert capsys.readouterr().out == ""


def test_failing_run_removes_the_out_directories_it_created(tmp_path, monkeypatch, capsys):
    original = cli.write_bundle

    def failing(bundle, out_dir, formats):
        if bundle.app == "beta":
            raise OSError("no space left on device")
        return original(bundle, out_dir, formats)

    monkeypatch.setattr(cli, "write_bundle", failing)
    out = tmp_path / "new" / "x"
    assert main(["analyze", "--manifest", str(TRIAPP / "manifest.csv"), "--out", str(out)]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "OutputError", "message": f"cannot write under --out {out}: no space left on device",
    }
    assert not (tmp_path / "new").exists()
    assert sorted(tree(tmp_path)) == []


def test_failing_detect_removes_the_out_directories_it_created(tmp_path, monkeypatch, capsys):
    def failing(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", failing)
    out = tmp_path / "new" / "x"
    args = ["detect", "--code-model", str(TRIAPP / "models" / "beta-0.9.json"), "--version-id", "1", "--out", str(out)]
    assert main(args) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "OutputError", "message": f"cannot write under --out {out}: no space left on device",
    }
    assert not (tmp_path / "new").exists()


def fail_once_moving_into(monkeypatch, target: Path) -> None:
    """Make the first os.replace onto target raise ENOSPC; every other move runs."""
    original = os.replace
    failed = []

    def replace(src, dst):
        if Path(dst) == target and not failed:
            failed.append(dst)
            raise OSError(28, "No space left on device")
        return original(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def assert_one_output_error(capsys) -> None:
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "OutputError"


def test_a_failed_swap_of_a_later_app_undoes_the_earlier_ones(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    manifest = str(TRIAPP / "manifest.csv")
    assert main(["analyze", "--manifest", manifest, "--formats", "csv", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    before = tree(out)
    fail_once_moving_into(monkeypatch, out / "beta")
    assert main(["analyze", "--manifest", manifest, "--formats", "json", "--out", str(out)]) == EXIT_ERROR
    assert_one_output_error(capsys)
    assert tree(out) == before


def test_a_failed_swap_of_occurrences_json_undoes_occurrences_csv(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "occurrences.csv").write_text("old csv\n")
    (out / "occurrences.json").write_text("old json\n")
    before = tree(out)
    fail_once_moving_into(monkeypatch, out / "occurrences.json")
    args = ["detect", "--code-model", str(TRIAPP / "models" / "beta-0.9.json"), "--version-id", "1", "--out", str(out)]
    assert main(args) == EXIT_ERROR
    assert_one_output_error(capsys)
    assert tree(out) == before


def test_analyze_never_replaces_a_file_named_like_an_app(tmp_path, capsys):
    # alpha's directory is moved in first, so the failure on beta undoes it
    out = tmp_path / "out"
    out.mkdir()
    (out / "beta").write_bytes(b"the user's own file\n")
    before = tree(out)
    assert main(["analyze", "--manifest", str(TRIAPP / "manifest.csv"), "--formats", "csv", "--out", str(out)]) == EXIT_ERROR
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0]) == {
        "error": "OutputError",
        "message": f"cannot write under --out {out}: [Errno 20] Not a directory: '{out / 'beta'}'",
    }
    assert tree(out) == before


@pytest.mark.parametrize(
    "rerun, user_file", [(False, "mycode/main.php"), (True, "notes.txt")], ids=["nested user file", "extra top-level file"]
)
def test_analyze_never_replaces_a_directory_that_is_not_a_bundle(tmp_path, capsys, rerun, user_file):
    # gamma is moved in last, so its refusal undoes the moves of alpha and beta
    out = tmp_path / "out"
    args = ["analyze", "--manifest", str(TRIAPP / "manifest.csv"), "--formats", "csv", "--out", str(out)]
    if rerun:
        assert main(args) == EXIT_OK
        capsys.readouterr()
    (out / "gamma" / user_file).parent.mkdir(parents=True, exist_ok=True)
    (out / "gamma" / user_file).write_bytes(b"the user's own file\n")
    before = tree(out)
    assert main(args) == EXIT_ERROR
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "OutputError",
        "message": f"cannot write under --out {out}: {out / 'gamma'} is not a bundle, so it is not replaced",
    }
    assert tree(out) == before


def test_analyze_never_replaces_a_dangling_link_named_like_an_app(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "beta").symlink_to(tmp_path / "nowhere")
    assert main(["analyze", "--manifest", str(TRIAPP / "manifest.csv"), "--formats", "json", "--out", str(out)]) == EXIT_ERROR
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "OutputError",
        "message": f"cannot write under --out {out}: [Errno 20] Not a directory: '{out / 'beta'}'",
    }
    assert os.listdir(out) == ["beta"]
    assert os.readlink(out / "beta") == str(tmp_path / "nowhere")


def test_analyze_replaces_an_empty_directory_named_like_an_app(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "beta").mkdir(parents=True)
    assert main(["analyze", "--manifest", str(TRIAPP / "manifest.csv"), "--formats", "json", "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in (out / "beta").iterdir()) == ["anomalies.json", "bundle.json"]


def test_detect_leaves_a_file_named_like_its_own_temporary_file_alone(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "occurrences.csv.tmp").write_bytes(b"the user's own file\n")
    args = ["detect", "--code-model", str(TRIAPP / "models" / "beta-0.9.json"), "--version-id", "1", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert sorted(tree(out)) == ["occurrences.csv", "occurrences.csv.tmp", "occurrences.json"]
    assert (out / "occurrences.csv.tmp").read_bytes() == b"the user's own file\n"


def test_a_version_id_utf8_cannot_encode_is_a_config_error_raised_before_the_model_is_read(tmp_path, capsys):
    # argv bytes that are not UTF-8 (here b"\xff") arrive as lone surrogates
    out = tmp_path / "out"
    args = ["detect", "--code-model", str(tmp_path / "missing.json"), "--version-id", "1.\udcff", "--out", str(out)]
    assert main(args) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": "--version-id '1.\\udcff' is not UTF-8 text",
    }
    assert not out.exists()


@pytest.mark.parametrize("app", [".", "..", "../esc", "a/b", "a\\b"])
def test_app_name_must_be_one_path_component(tmp_path, capsys, app):
    rows = four_version_rows(tmp_path)
    for row in rows[1:]:
        row[0] = app
    manifest = write_rows(tmp_path, rows)
    out = tmp_path / "run" / "out"
    for command in (["analyze", "--out", str(out)], ["gate"]):
        assert main([*command, "--manifest", str(manifest)]) == EXIT_ERROR
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["row"]) == ("ManifestError", 2)
        assert "one path component" in record["message"]
    assert not (tmp_path / "run").exists()


def _long_report_path(rows):
    rows[2][3] = "x" * 131_073  # csv's default field size limit is 131,072


def _long_first_report_path(rows):
    rows[1][3] = "x" * 131_073


def _nul_in_report_path(rows):
    rows[2][3] = "m1\0.json"  # csv refuses the line before Python 3.11, stat refuses the path after


def _nul_in_app_name(rows):
    for row in rows[1:]:
        row[0] = "de\0mo"


def _latin_1_version(rows):
    rows[3][1] = "3.0\xe9"


@pytest.mark.parametrize("command", ["analyze", "gate"])
@pytest.mark.parametrize(
    "edit, row",
    [
        (_long_report_path, 3), (_long_first_report_path, 2), (_nul_in_report_path, 3), (_nul_in_app_name, 2),
        (_latin_1_version, 4),
    ],
    ids=["over-long field", "over-long field in the first row", "NUL in report path", "NUL in app name", "not UTF-8"],
)
def test_bad_manifest_bytes_are_a_manifest_error_with_the_row(tmp_path, capsys, command, edit, row):
    rows = four_version_rows(tmp_path)
    edit(rows)
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes("".join(",".join(r) + "\n" for r in rows).encode("latin-1"))
    out = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    assert main([command, "--manifest", str(manifest), *out]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert (record["error"], record["row"]) == ("ManifestError", row)
    assert str(manifest) in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "gate"])
def test_the_first_bad_row_in_file_order_is_reported(tmp_path, capsys, command):
    # app b's bad row 3 comes before app a's bad row 4 in the file
    (tmp_path / "r.xml").write_text(NO_SMELL_REPORT)
    manifest = write_rows(tmp_path, [
        ["app", "version", "timestamp", "report_path", "lloc"],
        ["a", "1", "2020-01-01", "r.xml", "10"],
        ["b", "1", "nope", "r.xml", "10"],
        ["a", "2", "later", "r.xml", "10"],
    ])
    out = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    assert main([command, "--manifest", str(manifest), *out]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert (record["error"], record["row"]) == ("ManifestError", 3)
    assert record["message"].startswith("bad timestamp 'nope'")


@pytest.mark.parametrize("command", ["analyze", "gate"])
def test_a_nul_in_a_manifest_cell_is_a_manifest_error_on_every_python(tmp_path, capsys, command):
    # csv.reader refuses a NUL only before Python 3.11, so this manifest once passed on 3.11+
    rows = four_version_rows(tmp_path)
    rows[1][1] = "1.\0"
    manifest = write_rows(tmp_path, rows)
    out = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    nul = manifest.read_bytes().index(b"\0")
    assert main([command, "--manifest", str(manifest), *out]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err) == {
        "error": "ManifestError", "message": f"manifest {manifest} holds a NUL: byte {nul}", "row": 2,
    }
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "gate"])
def test_row_is_the_line_a_manifest_record_starts_on(tmp_path, capsys, command):
    # the quoted app name of line 2 runs on to line 3, so the bad timestamp is on line 4
    four_version_rows(tmp_path)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "app,version,timestamp,report_path,lloc\n"
        '"a\nb",1.0,2020-01-01,m0.json,10000\n'
        "demo,2.0,nope,m1.json,10000\n"
    )
    out = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    assert main([command, "--manifest", str(manifest), *out]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert (record["error"], record["row"]) == ("ManifestError", 4)
    assert record["message"].startswith("bad timestamp 'nope'")


@pytest.mark.parametrize("command", ["analyze", "gate"])
@pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
def test_an_unreadable_manifest_is_a_manifest_error_naming_it(tmp_path, capsys, command, name):
    manifest = tmp_path / name
    out = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    assert main([command, "--manifest", str(manifest), *out]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ManifestError" and "row" not in record
    assert str(manifest) in record["message"]


def test_importing_the_cli_pulls_in_no_network_modules():
    # these cost about 30 ms of start-up on every command, gate included;
    # xml.sax.saxutils is one module that pulls them in
    code = "import sys, smellsurv.cli; print(sorted({'urllib.request', 'http.client', 'email'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_importing_the_cli_pulls_in_no_element_tree():
    # reports are read with expat alone; xml.etree and its ElementPath were
    # loaded on every command, gate and set-up included
    code = "import sys, smellsurv.cli; print(sorted(m for m in sys.modules if m.startswith('xml.etree')))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
