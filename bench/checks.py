"""Output checks computed from the generator's truth, not from smellsurv.

Each check returns a list of problems; an empty list means the output is
correct. The oracles here are written from the definitions (runs of
presence bits, counts over the truth, the density-change formula) and share
no code with the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

# workloads whose analyze runs use gap tolerance 0 and no rename heuristic,
# so every record is exactly one run of 1s in a key's presence bits
RUN_ORACLE_WORKLOADS = ("pmd-wide", "model-long")

CSV_FILES = (
    "records.csv", "lifelines.csv", "counts_by_rule.csv", "density.csv", "anomalies.csv",
    "summary_scope.csv", "summary_timeframe.csv", "km_all.csv", "km_scope.csv",
    "km_timeframe.csv", "logrank_scope.json", "logrank_timeframe.json",
)
JSON_FILES = ("anomalies.json", "bundle.json")
SVG_FILES = ("km_scope.svg", "km_timeframe.svg", "lifelines.svg", "density.svg")
GATE_UP = 0.5  # the default increase threshold of `smellsurv gate`


def bundle_digest(bundle_dir: Path) -> str:
    """sha256 over every file of a bundle directory: names and contents."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(bundle_dir).rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(bundle_dir).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def expected_files(formats: str) -> set[str]:
    names = set()
    for fmt, files in (("csv", CSV_FILES), ("json", JSON_FILES), ("svg", SVG_FILES)):
        if fmt in formats.split(","):
            names.update(files)
    return names


def run_oracle(bits: dict[str, str]) -> tuple[int, int]:
    """(records, removals) for gap tolerance 0: one record per maximal run
    of presence; a run that ends before the last version is a removal."""
    records = sum(len(re.findall("1+", b)) for b in bits.values())
    alive = sum(1 for b in bits.values() if b.endswith("1"))
    return records, records - alive


def _rows(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def check_analyze(bundle_dir: Path, truth: dict, workload: str, formats: str) -> list[str]:
    """Check one app's analyze bundle against the truth sidecar."""
    try:
        return _check_analyze(Path(bundle_dir), truth, workload, formats)
    except (ValueError, KeyError, TypeError, csv.Error) as exc:  # a malformed bundle is a failed check
        return [f"bundle unreadable: {type(exc).__name__}: {exc}"]


def _check_analyze(bundle_dir: Path, truth: dict, workload: str, formats: str) -> list[str]:
    if not bundle_dir.is_dir():
        return [f"bundle directory {bundle_dir.name} missing"]
    present = {p.name for p in bundle_dir.iterdir() if p.is_file()}
    wanted = expected_files(formats)
    if present != wanted:
        return [f"bundle files differ: missing {sorted(wanted - present)}, extra {sorted(present - wanted)}"]
    problems = []
    versions = truth["versions"]

    counted: dict[tuple[str, str], int] = {}
    for row in _rows(bundle_dir / "counts_by_rule.csv"):
        counted[(row["version"], row["rule"])] = int(row["count"])
    want = {(v, rule): n for v, c in zip(versions, truth["counts"]) for rule, n in c.items()}
    if counted != want:
        bad = sorted(k for k in set(want) | set(counted) if want.get(k) != counted.get(k))
        problems.append(f"counts_by_rule.csv disagrees with the truth at {len(bad)} cells, first {bad[0]}")

    density = [(r["version"], int(r["cs_count"]), int(r["lloc"])) for r in _rows(bundle_dir / "density.csv")]
    want_density = [(v, sum(c.values()), l) for v, c, l in zip(versions, truth["counts"], truth["lloc"])]
    if density != want_density:
        problems.append("density.csv versions, counts or lloc disagree with the truth")

    if workload in RUN_ORACLE_WORKLOADS:
        records = _rows(bundle_dir / "records.csv")
        got = (len(records), sum(r["censored"] == "1" for r in records))
        want_runs = run_oracle(truth["bits"])
        if got != want_runs:
            problems.append(f"records.csv has {got[0]} records / {got[1]} removals, run oracle says {want_runs[0]} / {want_runs[1]}")
        if "json" in formats.split(","):
            doc = json.loads((bundle_dir / "bundle.json").read_text(encoding="utf-8"))
            if doc.get("records") != want_runs[0] or doc.get("versions") != len(versions):
                problems.append("bundle.json record or version count disagrees with the run oracle")
    return problems


def expected_gate(truth: dict) -> tuple[str, float, int]:
    """(verdict, delta_rho, exit code) of the last transition, from the
    truth counts and lloc: delta = (c1 / l1) / (c0 / l0) - 1."""
    c0, c1 = (sum(c.values()) for c in truth["counts"][-2:])
    l0, l1 = truth["lloc"][-2:]
    delta = math.inf if c0 == 0 and c1 else 0.0 if c0 == 0 else (c1 * l0) / (c0 * l1) - 1.0
    verdict = "FAIL" if delta >= GATE_UP else "ok"
    return verdict, delta, 2 if verdict == "FAIL" else 0


def check_gate(stdout: str, exit_code: int, truth: dict) -> list[str]:
    verdict, delta, code = expected_gate(truth)
    problems = []
    if exit_code != code:
        problems.append(f"gate exited {exit_code}, expected {code}")
    line = re.fullmatch(
        rf"{re.escape(truth['app'])} {re.escape(truth['versions'][-1])}: delta_rho=(\S+) \[(ok|FAIL)\].*",
        stdout.strip(),
    )
    if line is None:
        return problems + [f"unexpected gate output {stdout.strip()[:120]!r}"]
    try:
        got_delta = float(line.group(1))
    except ValueError:
        return problems + [f"gate delta_rho {line.group(1)!r} is not a number"]
    if line.group(2) != verdict:
        problems.append(f"gate verdict {line.group(2)}, expected {verdict}")
    if not (got_delta == delta or math.isclose(got_delta, delta, rel_tol=1e-5, abs_tol=1e-9)):
        problems.append(f"gate delta_rho {got_delta}, expected {delta:.6g}")
    return problems
