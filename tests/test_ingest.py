from __future__ import annotations

import builtins
import io
import json
import tempfile
import textwrap
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smellsurv.cli import EXIT_ERROR, main
from smellsurv.errors import ConfigError, ManifestError, ReportParseError
from smellsurv.ingest import (
    History,
    SizeMetrics,
    VersionSnapshot,
    load_manifests,
    normalize_path,
    parse_pmd_report,
    parse_timestamp,
)
from smellsurv.rules import RULES, default_ruleset, evaluate_rules, load_code_model
from smellsurv.tracking import InstanceKey, assign_keys

from conftest import cyclic_garbage, history_from_bits, load_manifest
from oracles import Violation, keys_oracle, pmd_report_oracle


def pmd(body: str) -> str:
    return f'<?xml version="1.0" encoding="UTF-8"?>\n<pmd version="2.9.1" timestamp="2020-01-01">\n{body}\n</pmd>'


def test_parse_timestamp_variants():
    assert parse_timestamp("2014-03-26").isoformat() == "2014-03-26T00:00:00+00:00"
    assert parse_timestamp("2014-03-26T10:30:00Z").isoformat() == "2014-03-26T10:30:00+00:00"
    assert parse_timestamp("2014-03-26T12:30:00+02:00").isoformat() == "2014-03-26T10:30:00+00:00"


# each string with its instant in UTC, or None where every Python refuses it;
# 3.10's fromisoformat reads none of the 3.11+-only forms below, and takes
# any character between date and time
TIMESTAMPS = [
    ("2020-01-01", "2020-01-01T00:00:00+00:00"),
    (" 2020-01-01\t", "2020-01-01T00:00:00+00:00"),
    ("2020-01-01T10", "2020-01-01T10:00:00+00:00"),
    ("2020-01-01 10:00:00", "2020-01-01T10:00:00+00:00"),
    ("2020-01-01T10:30:15.123", "2020-01-01T10:30:15.123000+00:00"),
    ("2020-01-01T10:30:15.123456", "2020-01-01T10:30:15.123456+00:00"),
    ("2020-01-01T10Z", "2020-01-01T10:00:00+00:00"),
    ("2020-01-01T10:00z", "2020-01-01T10:00:00+00:00"),
    ("2020-01-01T00:30+01:00", "2019-12-31T23:30:00+00:00"),
    ("2020-01-01T10:00-05:00", "2020-01-01T15:00:00+00:00"),
    ("2020-01-01T10:00:00.123+01:00:30", "2020-01-01T08:59:30.123000+00:00"),
    ("2020-01-01T10:00:00.5", None),  # 3.11+ only: a fraction of 1 digit
    ("2020-01-01T10:00:00,5", None),  # 3.11+ only: a comma
    ("2020-01-01T10:00:00.1234567", None),  # 3.11+ only: 7 digits
    ("2020-01-01T10:00+0100", None),  # 3.11+ only: basic zone
    ("2020-01-01T10:00+01", None),  # 3.11+ only: zone hours only
    ("2020-01-01T10:00:00.123+01:00:30.123", None),  # 3.11+ only: zone fraction of 3 digits
    ("2020-01-01T10:00+01:00:30.123456", None),  # a zone fraction
    ("2020-01-01T10:00+00:00:00.500000", None),  # every Python: UTC, the fraction dropped
    ("2020-01-01T1000", None),  # 3.11+ only: basic time
    ("20200101", None),  # 3.11+ only: basic date
    ("2020-W01-1", None),  # 3.11+ only: week date
    ("2020-01-01t10:00", None),  # a separator other than T or a space
    ("2020-01-01x10:00", None),  # 3.10 only
    ("2020-01-01+01:00", None),  # every Python: 01:00, the zone taken for a time
    ("2020-01-01Z", None),
    ("２０２０-01-01", None),  # digits that are not ASCII
    ("2020-13-01", None),
    ("2020-01-01T24:00", None),
    ("nope", None),
    ("", None),
]


@pytest.mark.parametrize("text, utc", TIMESTAMPS, ids=[repr(text) for text, _ in TIMESTAMPS])
def test_one_timestamp_grammar_on_every_python(text, utc):
    if utc is None:
        with pytest.raises(ValueError):
            parse_timestamp(text)
    else:
        assert parse_timestamp(text).isoformat() == utc


# valid dates and times near the grammar: basic times and zones, other
# separators, commas and fractions of 1-7 digits
TIMESTAMP_LIKE = (
    r"[1-9][0-9]{3}-(?:0[1-9]|1[0-2])-(?:0[1-9]|1[0-9]|2[0-8])"
    r"(?:[Tt x][01][0-9](?::?[0-5][0-9](?::?[0-5][0-9](?:[.,][0-9]{1,7})?)?)?"
    r"(?:[Zz]|[+-][01][0-9](?::?[0-5][0-9](?::[0-5][0-9](?:\.[0-9]{1,7})?)?)?)?)?"
    r"(?:[Zz]|[+-][01][0-9]:[0-5][0-9])?"
)


@settings(max_examples=500, deadline=None)
@given(st.from_regex(TIMESTAMP_LIKE, fullmatch=True))
def test_an_accepted_timestamp_is_the_instant_fromisoformat_reads(text):
    try:
        moment = parse_timestamp(text)
    except (ValueError, OverflowError):
        return
    want = datetime.fromisoformat(text[:-1] + "+00:00" if text[-1] in "Zz" else text)
    assert moment == want.replace(tzinfo=want.tzinfo or timezone.utc)


# a zone in whole seconds, as the grammar has it
ZONES = st.none() | st.integers(-86_399, 86_399).map(lambda seconds: timezone(timedelta(seconds=seconds)))


# isoformat at each precision, and the same moment cut to that precision
TIMESPECS = {
    "minutes": lambda moment: moment.replace(second=0, microsecond=0),
    "seconds": lambda moment: moment.replace(microsecond=0),
    "milliseconds": lambda moment: moment.replace(microsecond=moment.microsecond // 1000 * 1000),
    "microseconds": lambda moment: moment,
}


@settings(max_examples=300, deadline=None)
@given(
    st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31), timezones=ZONES),
    st.sampled_from(sorted(TIMESPECS)),
)
def test_every_isoformat_output_is_accepted(moment, timespec):
    want = TIMESPECS[timespec](moment)
    assert parse_timestamp(moment.isoformat(timespec=timespec)) == want.replace(tzinfo=want.tzinfo or timezone.utc)


def test_single_violation_mapped():
    doc = pmd(
        '<file name="a/b.php">'
        '<violation beginline="5" endline="130" rule="ExcessiveMethodLength" package="App" class="B" method="m">long</violation>'
        "</file>"
    )
    result = parse_pmd_report(doc.encode())
    assert result.occurrences == [("ExcessiveMethodLength", "a/b.php", "App/B/m")]
    assert result.skipped_count == 0


def test_unknown_rules_skipped_and_counted():
    doc = pmd(
        '<file name="a.php">'
        '<violation beginline="1" endline="9" rule="CyclomaticComplexity">x</violation>'
        "</file>"
    )
    result = parse_pmd_report(doc.encode())
    assert result.occurrences == []
    assert result.skipped == {"CyclomaticComplexity": 1}
    assert result.skipped_count == 1


def test_multi_file_report_in_file_line_order():
    # in z.php, line order differs from document, rule and entity path order
    doc = pmd(
        '<file name="z.php">'
        '<violation beginline="40" endline="200" rule="ExcessiveClassLength" class="Z"/>'
        '<violation beginline="3" endline="20" rule="ExcessiveParameterList" function="f"/>'
        "</file>"
        '<file name="a.php">'
        '<violation beginline="9" endline="170" rule="ExcessiveMethodLength" class="A" method="m"/>'
        "</file>"
    )
    result = parse_pmd_report(doc.encode())
    assert result.occurrences == [
        ("ExcessiveMethodLength", "a.php", "A/m"),
        ("ExcessiveParameterList", "z.php", "f"),
        ("ExcessiveClassLength", "z.php", "Z"),
    ]


def test_violations_with_equal_sort_keys_stay_in_document_order():
    # a missing line sorts before line 0 (the sort never compares a None), so
    # A's two violations with only an endline tie on every sort key, follow A's
    # violation without lines and sort before the line-0 violation of class
    # "0", whose path sorts first
    doc = pmd(
        '<file name="a.php">'
        '<violation beginline="0" endline="4" rule="ExcessiveClassLength" class="0"/>'
        '<violation endline="4" rule="ExcessiveClassLength" class="A"/>'
        '<violation rule="ExcessiveClassLength" class="A"/>'
        '<violation endline="4" rule="ExcessiveClassLength" class="A"/>'
        "</file>"
    )
    occurrences = parse_pmd_report(doc.encode()).occurrences
    assert occurrences == [("ExcessiveClassLength", "a.php", "A")] * 3 + [
        ("ExcessiveClassLength", "a.php", "0")
    ]
    assert [(k.entity_path, k.ordinal) for k in assign_keys(occurrences)] == [("A", 0), ("A", 1), ("A", 2), ("0", 0)]


def test_empty_report_is_empty_result():
    result = parse_pmd_report(pmd("").encode())
    assert result.occurrences == [] and result.skipped_count == 0


def test_malformed_xml_names_byte_offset():
    doc = b'<?xml version="1.0"?>\n<pmd>\n<file name="a.php">\n</pmd>'
    with pytest.raises(ReportParseError) as exc_info:
        parse_pmd_report(doc)
    err = exc_info.value
    assert err.byte_offset is not None
    assert f"byte offset {err.byte_offset}" in str(err)
    # the offset points into the mismatched closing tag on the last line
    assert doc.index(b"</pmd>") <= err.byte_offset < len(doc)


def test_empty_report_file_is_malformed_at_offset_0(tmp_path):
    # expat's own ErrorByteIndex is -1 here: there is no byte to point at
    (tmp_path / "r1.xml").write_bytes(b"")
    manifest = "app,version,timestamp,report_path,lloc\ndemo,1.0,2020-01-01,r1.xml,5000\n"
    with pytest.raises(ReportParseError, match="byte offset 0 ") as exc_info:
        load_manifest(manifest, base_dir=tmp_path)
    assert exc_info.value.byte_offset == 0
    assert exc_info.value.row == 2


@pytest.mark.parametrize(
    "document, offset",
    [
        # expat counts columns in characters, and each é is two bytes
        ('<pmd a="\u00e9\u00e9\u00e9\u00e9\u00e9"></x>'.encode(), 22),
        # and it breaks lines at a lone CR too
        (b"<pmd>\r<file>\r</pmd>", 15),
    ],
    ids=["multi-byte characters", "CR line breaks"],
)
def test_malformed_offset_counts_bytes(tmp_path, capsys, document, offset):
    with pytest.raises(ReportParseError) as exc_info:
        parse_pmd_report(document)
    assert exc_info.value.byte_offset == offset
    (tmp_path / "r1.xml").write_bytes(document)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("app,version,timestamp,report_path,lloc\ndemo,1.0,2020-01-01,r1.xml,5000\n")
    assert main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == EXIT_ERROR
    record = json.loads(capsys.readouterr().err)
    assert (record["error"], record["row"], record["byte_offset"]) == ("ReportParseError", 2, offset)
    assert f"byte offset {offset} " in record["message"]


@pytest.mark.parametrize(
    "prolog, reference",
    [
        # under an external DTD, expat skips an undeclared entity without an error
        ('<!DOCTYPE pmd SYSTEM "x.dtd">', "&undeclared;"),
        # and it leaves an external entity unread, with no handler to read it
        ('<!DOCTYPE pmd [<!ENTITY ext SYSTEM "ext.xml">]>', "&ext;"),
    ],
    ids=["undeclared-under-external-dtd", "external"],
)
def test_entity_that_cannot_be_read_is_malformed_at_its_offset(prolog, reference):
    doc = (
        f'<?xml version="1.0"?>\n{prolog}\n<pmd><file name="a.php">\n'
        f'<violation beginline="1" endline="200" rule="ExcessiveClassLength" class="A">{reference}</violation>'
        "</file></pmd>"
    ).encode()
    with pytest.raises(ReportParseError) as exc_info:
        parse_pmd_report(doc)
    assert exc_info.value.byte_offset == doc.index(reference.encode())


def test_wrong_root_rejected():
    with pytest.raises(ReportParseError, match="pmd"):
        parse_pmd_report(b"<results></results>")


RULE_NAMES = [*RULES, "CyclomaticComplexity", "excessiveclasslength", ""]
LINES = st.one_of(
    st.none(),
    st.integers(-2, 30).map(str),
    st.sampled_from(["", "x", "1.5", " 7 ", "+3", "0x1", "\u0663"]),
)
ENTITY_NAMES = st.one_of(st.none(), st.sampled_from(["", "A", "B", "m", "\u00e9", "a&amp;b"]))
CONTENT = st.sampled_from([
    "", "", "long", "\n", "\r\n", "\r", "\u4e2d",
    "<!-- c -->", "<?pi x?>", "&amp;", "&#233;", "<![CDATA[<x/>]]>", "&ent;",
])
DOCTYPES = [
    "",
    '<!DOCTYPE pmd [<!ENTITY ent "text">]>',
    "<!DOCTYPE pmd [<!ENTITY ent '<violation rule=\"ExcessiveClassLength\" beginline=\"2\" endline=\"9\" class=\"E\"/>'>]>",
    '<!DOCTYPE pmd [<!ENTITY ent "&undeclared;">]>',
    '<!DOCTYPE pmd SYSTEM "pmd.dtd">',
    '<!DOCTYPE pmd SYSTEM "pmd.dtd" [<!ENTITY ent "text">]>',
    '<!DOCTYPE pmd [<!ENTITY % pe SYSTEM "pe.dtd"> %pe; <!ENTITY ent "text">]>',
    "<!DOCTYPE pmd [<!ENTITY % pe \"<!ENTITY ent 'text'>\"> %pe;]>",
    '<!DOCTYPE pmd [<!ENTITY ent SYSTEM "ent.xml">]>',
]


@st.composite
def pmd_documents(draw):
    """A PMD-like report, possibly cut short: no, a default or a prefixed
    namespace; file and violation elements at the right and wrong depths;
    unknown rules; odd line attributes; entities, comments, PIs and text."""
    style = draw(st.sampled_from(["bare", "default", "prefixed"]))
    p = "p:" if style == "prefixed" else ""

    def attributes(pairs):
        return "".join(f' {name}="{value}"' for name, value in pairs if value is not None)

    def violation():
        if draw(st.booleans()):
            begin = draw(st.integers(-2, 30))
            lines = [str(begin), str(begin + draw(st.integers(0, 3)))]
        else:
            lines = [draw(LINES), draw(LINES)]
        pairs = [("rule", draw(st.sampled_from(RULE_NAMES))), ("beginline", lines[0]), ("endline", lines[1])]
        pairs += [(name, draw(ENTITY_NAMES)) for name in ("package", "class", "method", "function")]
        return f"<{p}violation{attributes(pairs)}>{draw(CONTENT)}</{p}violation>"

    def file_element():
        children = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["violation", "violation", "violation", "wrapped", "other", "content"]))
            if kind == "violation":
                children.append(violation())
            elif kind == "wrapped":
                children.append(f"<{p}x>{violation()}</{p}x>")
            elif kind == "other":
                children.append(f'<{p}suppressed rule="ExcessiveClassLength"/>')
            else:
                children.append(draw(CONTENT))
        name = draw(st.sampled_from([None, "", "a.php", "b.php", "/work/app/c.php", "C:\\work\\d.php"]))
        tag = draw(st.sampled_from([f"{p}file", f"{p}file", "q:file"]))
        namespace = ' xmlns:q="urn:q"' if tag == "q:file" else ""
        return f"<{tag}{namespace}{attributes([('name', name)])}>{''.join(children)}</{tag}>"

    children = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["file", "file", "file", "wrapped", "violation", "content"]))
        if kind == "file":
            children.append(file_element())
        elif kind == "wrapped":
            children.append(f"<{p}g>{file_element()}</{p}g>")
        elif kind == "violation":
            children.append(violation())
        else:
            children.append(draw(CONTENT))
    root = draw(st.sampled_from(["pmd", "pmd", "pmd", "results"]))
    namespace = {"bare": "", "default": ' xmlns="http://pmd.sourceforge.net/report/2.0.0"', "prefixed": ' xmlns:p="urn:p"'}
    declaration = draw(st.sampled_from(["", '<?xml version="1.0" encoding="UTF-8"?>\n']))
    text = (
        f"{declaration}{draw(st.sampled_from(DOCTYPES))}\n"
        f'<{p}{root}{namespace[style]} version="6.55.0">\n{"".join(children)}\n</{p}{root}>\n'
    )
    document = text.encode("utf-8")
    cut = draw(st.one_of(st.none(), st.none(), st.integers(0, len(document))))
    return document if cut is None else document[:cut]


def _outcome(parse):
    try:
        occurrences, skipped = parse()
    except ReportParseError as exc:
        return "ReportParseError", exc.byte_offset
    return occurrences, dict(skipped)


@settings(max_examples=500, deadline=None)
@given(document=pmd_documents(), strip_prefix=st.sampled_from([None, "/work/app", "C:\\work"]))
def test_parse_pmd_report_matches_the_element_tree_oracle(document, strip_prefix):
    def parse():
        result = parse_pmd_report(document, strip_prefix)
        return result.occurrences, result.skipped

    def parse_by_oracle():
        violations, skipped = pmd_report_oracle(document, strip_prefix)
        return [(v.rule, v.file, v.entity_path) for v in violations], skipped

    assert _outcome(parse) == _outcome(parse_by_oracle)


@st.composite
def grouped_pmd_documents(draw):
    """One file of violations of two rules on two entities, with missing,
    equal and descending lines, so that each group holds several."""
    violations = []
    for _ in range(draw(st.integers(0, 8))):
        rule = draw(st.sampled_from(["ExcessiveMethodLength", "ExcessiveParameterList"]))
        begin, end = draw(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=2, max_size=2))
        if begin is not None and end is not None and begin > end:
            begin, end = end, begin
        method = draw(st.sampled_from(["", ' method="m"']))
        lines = "".join(f' {name}="{n}"' for name, n in (("beginline", begin), ("endline", end)) if n is not None)
        violations.append(f'<violation rule="{rule}" class="A"{method}{lines}/>')
    return f'<pmd><file name="a.php">{"".join(violations)}</file></pmd>'.encode()


@settings(max_examples=300, deadline=None)
@given(
    document=st.one_of(pmd_documents(), grouped_pmd_documents()),
    strip_prefix=st.sampled_from([None, "/work/app", "C:\\work"]),
)
def test_keys_of_a_parsed_report_match_the_key_oracle(document, strip_prefix):
    # the oracle orders each group by its lines; assign_keys counts in list order
    try:
        expected = keys_oracle(pmd_report_oracle(document, strip_prefix)[0])
    except ReportParseError:
        with pytest.raises(ReportParseError):
            parse_pmd_report(document, strip_prefix)
        return
    assert assign_keys(parse_pmd_report(document, strip_prefix).occurrences) == expected


@settings(max_examples=200, deadline=None)
@given(
    documents=st.lists(st.one_of(pmd_documents(), grouped_pmd_documents()), min_size=1, max_size=4),
    strip_prefix=st.sampled_from([None, "/work/app", "C:\\work"]),
)
def test_one_strings_dict_shared_by_many_reports_changes_no_parse_or_key(documents, strip_prefix):
    # the dict holds str -> str, attribute tuple -> entity path and key -> key;
    # an entry of one kind must never answer a lookup of another
    strings = {}
    first = {}
    for document in documents:
        shared = _outcome(lambda: parse_pmd_report(document, strip_prefix, strings))
        assert shared == _outcome(lambda: parse_pmd_report(document, strip_prefix))
        if shared[0] == "ReportParseError":
            continue
        keys = assign_keys(shared[0], strings)
        assert keys == assign_keys(shared[0])
        for key in keys:
            assert type(key) is InstanceKey
            assert first.setdefault(key, key) is key


def test_a_parsed_report_leaves_nothing_to_the_cyclic_gc():
    document = (Path(__file__).parent / "data" / "triapp" / "reports" / "alpha-2.1.xml").read_bytes()
    with cyclic_garbage() as garbage:
        assert parse_pmd_report(document).occurrences
    assert Counter(type(o).__name__ for o in garbage) == {}


def test_path_normalization_and_prefix_strip():
    assert normalize_path("C:\\work\\app\\x.php", "C:\\work\\app") == "x.php"
    assert normalize_path("/work/app/x.php", "/work/app/") == "x.php"
    assert normalize_path("/other/x.php", "/work/app") == "/other/x.php"
    doc = pmd('<file name="/work/app/src/a.php"><violation beginline="1" endline="200" rule="ExcessiveClassLength" class="A"/></file>')
    result = parse_pmd_report(doc.encode(), strip_prefix="/work/app")
    assert result.occurrences == [("ExcessiveClassLength", "src/a.php", "A")]


MANIFEST = textwrap.dedent(
    """\
    app,version,timestamp,report_path,lloc
    demo,2.0,2020-06-01,r2.xml,5200
    demo,1.0,2020-01-01,r1.xml,5000
    demo,3.0,2020-12-01,r3.xml,5400
    """
)


def write_reports(tmp_path):
    (tmp_path / "r1.xml").write_text(
        pmd('<file name="a.php"><violation beginline="1" endline="150" rule="ExcessiveMethodLength" class="A" method="m"/></file>')
    )
    (tmp_path / "r2.xml").write_text(pmd(""))
    (tmp_path / "r3.xml").write_text(
        pmd('<file name="a.php"><violation beginline="1" endline="9" rule="ExcessiveParameterList" class="A" method="m"/></file>')
    )


def test_load_manifest_sorts_by_timestamp(tmp_path):
    write_reports(tmp_path)
    history = load_manifest(MANIFEST, base_dir=tmp_path)
    assert history.app_name == "demo"
    assert [s.version_id for s in history.snapshots] == ["1.0", "2.0", "3.0"]
    assert [len(s.keys) for s in history.snapshots] == [1, 0, 1]
    assert history.snapshots[0].size == SizeMetrics(lloc=5000)


def test_load_manifest_optional_size_columns(tmp_path):
    write_reports(tmp_path)
    manifest = textwrap.dedent(
        """\
        app,version,timestamp,report_path,lloc,loc,classes
        demo,1.0,2020-01-01,r1.xml,5000,20000,120
        demo,2.0,2020-06-01,r2.xml,5200,,130
        """
    )
    history = load_manifest(manifest, base_dir=tmp_path)
    assert history.snapshots[0].size == SizeMetrics(lloc=5000, loc=20000, classes=120)
    assert history.snapshots[1].size == SizeMetrics(lloc=5200, loc=None, classes=130)


def test_duplicate_version_id_names_row_and_id(tmp_path):
    write_reports(tmp_path)
    bad = MANIFEST + "demo,2.0,2021-01-01,r3.xml,6000\n"
    with pytest.raises(ManifestError, match="'2.0'") as exc_info:
        load_manifest(bad, base_dir=tmp_path)
    assert exc_info.value.row == 5


def test_bad_timestamp_is_fatal_with_row(tmp_path):
    write_reports(tmp_path)
    bad = "app,version,timestamp,report_path,lloc\ndemo,1.0,not-a-date,r1.xml,5000\n"
    with pytest.raises(ManifestError, match="timestamp") as exc_info:
        load_manifest(bad, base_dir=tmp_path)
    assert exc_info.value.row == 2


def test_zero_lloc_rejected(tmp_path):
    write_reports(tmp_path)
    bad = "app,version,timestamp,report_path,lloc\ndemo,1.0,2020-01-01,r1.xml,0\n"
    with pytest.raises(ManifestError, match="lloc") as exc_info:
        load_manifest(bad, base_dir=tmp_path)
    assert exc_info.value.row == 2


def test_unreadable_report_is_fatal_with_row(tmp_path):
    bad = "app,version,timestamp,report_path,lloc\ndemo,1.0,2020-01-01,missing.xml,5000\n"
    with pytest.raises(ManifestError, match="unreadable") as exc_info:
        load_manifest(bad, base_dir=tmp_path)
    assert exc_info.value.row == 2


@pytest.mark.parametrize("name", ["missing.xml", "missing.json", "missing"])
def test_unreadable_report_error_names_the_path(tmp_path, name):
    bad = f"app,version,timestamp,report_path,lloc\ndemo,1.0,2020-01-01,{name},5000\n"
    with pytest.raises(ManifestError, match="unreadable") as exc_info:
        load_manifest(bad, base_dir=tmp_path)
    assert str(tmp_path / name) in str(exc_info.value)


def test_code_model_report_path_goes_through_rules(tmp_path, monkeypatch):
    # a .json report is read once, by the code-model loader, not also as bytes
    read_bytes = Path.read_bytes

    def only_the_manifest(self):
        if self != tmp_path / "manifest.csv":
            pytest.fail(f"{self} read as bytes")
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", only_the_manifest)
    (tmp_path / "m1.json").write_text(json.dumps([
        {"kind": "method", "name": "m", "file": "a.php", "parent": "A", "loc": 150},
    ]))
    (tmp_path / "m2.json").write_text(json.dumps([]))
    manifest = textwrap.dedent(
        """\
        app,version,timestamp,report_path,lloc
        demo,1.0,2020-01-01,m1.json,4000
        demo,2.0,2020-06-01,m2.json,4100
        """
    )
    history = load_manifest(manifest, base_dir=tmp_path)
    assert [len(s.keys) for s in history.snapshots] == [1, 0]
    assert history.snapshots[0].keys[0].rule == "ExcessiveMethodLength"


CODE_MODEL_FILES = ["/work/a.php", "\\work\\a.php", "/work\\a.php", "a.php", "b.php"]


@settings(max_examples=100, deadline=None)
@given(
    entities=st.lists(
        st.fixed_dictionaries({
            "kind": st.just("method"),
            "name": st.sampled_from(["m", "n"]),
            "file": st.sampled_from(CODE_MODEL_FILES),
            "parent": st.just("A"),
            "loc": st.integers(99, 102),
            "parameter_count": st.integers(9, 12),
        }),
        max_size=8,
    ),
)
def test_code_model_keys_match_the_key_oracle_when_strip_prefix_merges_files(entities):
    # /work/a.php, \work\a.php and /work\a.php are all a.php once the prefix is stripped
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "m.json"
        model.write_text(json.dumps(entities))
        manifest = Path(tmp) / "manifest.csv"
        manifest.write_text("app,version,timestamp,report_path,lloc\ndemo,1.0,2020-01-01,m.json,4000\n")
        (history,) = load_manifests(manifest, default_ruleset(), strip_prefix="/work")
        # the order the package once keyed in: the rules run on the file names
        # as written, and the names are normalized after
        raw = evaluate_rules(load_code_model(model), default_ruleset())
    expected = keys_oracle([Violation(rule, normalize_path(file, "/work"), path) for rule, file, path in raw])
    assert Counter(history.snapshots[0].keys) == Counter(expected)


def test_a_key_present_in_many_versions_is_one_object(tmp_path):
    violation = '<violation beginline="1" endline="150" rule="ExcessiveMethodLength" class="A" method="m"/>'
    (tmp_path / "r1.xml").write_text(pmd(f'<file name="a.php">{violation}</file>'))
    (tmp_path / "r2.xml").write_text(pmd(f'<file name="a.php">{violation}{violation}</file>'))
    (tmp_path / "m3.json").write_text(json.dumps([
        {"kind": "method", "name": "m", "file": "a.php", "parent": "A", "loc": 150},
    ]))
    manifest = textwrap.dedent(
        """\
        app,version,timestamp,report_path,lloc
        demo,1.0,2020-01-01,r1.xml,5000
        demo,2.0,2020-06-01,r2.xml,5000
        demo,3.0,2020-12-01,m3.json,5000
        """
    )
    v1, v2, v3 = load_manifest(manifest, base_dir=tmp_path).snapshots
    assert [key.ordinal for key in v2.keys] == [0, 1]
    assert v1.keys[0] is v2.keys[0] is v3.keys[0]
    assert all(type(key) is InstanceKey for snap in (v1, v2, v3) for key in snap.keys)


def test_extensionless_code_model_is_opened_once(tmp_path, monkeypatch):
    model = tmp_path / "model"
    model.write_text(json.dumps([
        {"kind": "method", "name": "m", "file": "a.php", "parent": "A", "loc": 150},
    ]))
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    manifest = "app,version,timestamp,report_path,lloc\ndemo,1.0,2020-01-01,model,4000\n"
    history = load_manifest(manifest, base_dir=tmp_path)
    assert [path for path in opened if path != tmp_path / "manifest.csv"] == [model]
    assert [key.rule for key in history.snapshots[0].keys] == ["ExcessiveMethodLength"]


def test_extensionless_code_model_error_names_the_path(tmp_path):
    (tmp_path / "model").write_text('{"entities": 3}')
    manifest = "app,version,timestamp,report_path,lloc\ndemo,1.0,2020-01-01,model,4000\n"
    with pytest.raises(ConfigError) as exc_info:
        load_manifest(manifest, base_dir=tmp_path)
    assert str(tmp_path / "model") in str(exc_info.value)


def test_multi_app_manifest(tmp_path):
    write_reports(tmp_path)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(textwrap.dedent(
        """\
        app,version,timestamp,report_path,lloc
        two,1.0,2020-01-01,r1.xml,7000
        one,1.0,2020-01-01,r1.xml,5000
        one,2.0,2020-06-01,r2.xml,5100
        two,2.0,2020-06-01,r2.xml,7100
        """
    ))
    histories = load_manifests(manifest, default_ruleset())
    assert [h.app_name for h in histories] == ["one", "two"]


def test_header_must_match(tmp_path):
    with pytest.raises(ManifestError, match="header"):
        load_manifest("application,version,timestamp,report_path,lloc\n", base_dir=tmp_path)


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
                "keys": [
                    {"rule": key.rule, "file": key.file, "entity_path": key.entity_path, "ordinal": key.ordinal}
                    for key in snap.keys
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
        snapshots.append(
            VersionSnapshot(
                version_id=snap["version"],
                timestamp=parse_timestamp(snap["timestamp"]),
                keys=tuple(
                    InstanceKey(key["rule"], key["file"], key["entity_path"], key["ordinal"])
                    for key in snap["keys"]
                ),
                size=SizeMetrics(
                    lloc=snap["size"]["lloc"],
                    loc=snap["size"]["loc"],
                    classes=snap["size"]["classes"],
                ),
            )
        )
    return History(app_name=doc["app"], snapshots=tuple(snapshots))


def test_history_json_round_trip():
    history = history_from_bits(
        {"A/m1": "1101", "B/m2": "0111", "C": "1000"},
        days=[0, 45, 100, 190.5],
    )
    again = history_from_json(history_to_json(history))
    assert again == history
    assert history_to_json(again) == history_to_json(history)
