"""Self-tests of the benchmark, on the small size of each workload.

    PYTHONPATH=src python -m pytest bench -q

They check that the generator is deterministic per seed, that every output
check fires on a corrupted bundle or gate result, and that the runner
prints the result line BENCHMARK.json describes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import histgen
import run
from smellsurv.cli import main as smellsurv_main

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


@pytest.mark.parametrize("workload", histgen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    histgen.generate(workload, 7, "small", tmp_path / "a")
    histgen.generate(workload, 7, "small", tmp_path / "b")
    histgen.generate(workload, 8, "small", tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """workload -> (truth, bundle dir, gate stdout, gate exit code) at the
    default seed and small size."""
    out = {}
    for workload in histgen.WORKLOADS:
        base = tmp_path_factory.mktemp(workload)
        truth = histgen.generate(workload, run.DEFAULT_SEED, "small", base / "input")
        manifest = str(base / "input" / "manifest.csv")
        assert smellsurv_main(["analyze", "--manifest", manifest, "--out", str(base / "out")] + histgen.ANALYZE_FLAGS[workload]) == 0
        gate = subprocess.run(
            [sys.executable, "-c", run.ENTRY, "gate", "--manifest", manifest],
            env={"PYTHONPATH": str(run.SRC)}, capture_output=True, text=True, check=False,
        )
        out[workload] = (truth, base / "out" / truth["app"], gate.stdout, gate.returncode)
    return out


def _formats(workload: str) -> str:
    flags = histgen.ANALYZE_FLAGS[workload]
    return flags[flags.index("--formats") + 1]


@pytest.mark.parametrize("workload", histgen.WORKLOADS)
def test_checks_pass_on_the_program_output(bundles, workload):
    truth, bundle, gate_out, gate_code = bundles[workload]
    assert checks.check_analyze(bundle, truth, workload, _formats(workload)) == []
    assert checks.bundle_digest(bundle) == run.load_golden()[workload]["small"]
    assert checks.check_gate(gate_out, gate_code, truth) == []


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    """Replace one cell (row 1 is the first data row) with edit(old value)."""
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row].rstrip("\n").split(",")
    cells[header.index(column)] = edit(cells[header.index(column)])
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _replace(path: Path, old: str, new: str) -> None:
    path.write_text(path.read_text().replace(old, new, 1))


CORRUPTIONS = {
    "drop a record": lambda b: _drop_last_line(b / "records.csv"),
    "flip a removal flag": lambda b: _edit_csv(b / "records.csv", 1, "censored", lambda v: "0" if v == "1" else "1"),
    "change a rule count": lambda b: _edit_csv(b / "counts_by_rule.csv", 3, "count", lambda v: str(int(v) + 1)),
    "change an lloc": lambda b: _edit_csv(b / "density.csv", 2, "lloc", lambda v: str(int(v) - 1)),
    "delete a file": lambda b: (b / "km_all.csv").unlink(),
    "change the bundle record count": lambda b: _replace(b / "bundle.json", '"records": ', '"records": 1'),
    "garble a count": lambda b: _edit_csv(b / "density.csv", 1, "cs_count", lambda v: "x"),
}
RUN_ORACLE_ONLY = ("drop a record", "flip a removal flag", "change the bundle record count")


@pytest.mark.parametrize("workload", histgen.WORKLOADS)
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_analyze_checks_fire_on_a_corrupted_bundle(bundles, tmp_path, workload, corruption):
    truth, bundle, _, _ = bundles[workload]
    if corruption in RUN_ORACLE_ONLY and workload not in checks.RUN_ORACLE_WORKLOADS:
        pytest.skip("the run-length oracle covers gap tolerance 0 without renames only")
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    CORRUPTIONS[corruption](copy)
    assert checks.check_analyze(copy, truth, workload, _formats(workload))


@pytest.mark.parametrize("workload", histgen.WORKLOADS)
def test_digest_check_fires_on_one_changed_byte(bundles, tmp_path, workload):
    _, bundle, _, _ = bundles[workload]
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    km = copy / "km_all.csv"
    data = bytearray(km.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    km.write_bytes(bytes(data))
    assert checks.bundle_digest(copy) != run.load_golden()[workload]["small"]


@pytest.mark.parametrize("workload", histgen.WORKLOADS)
def test_gate_check_fires_on_a_wrong_result(bundles, workload):
    truth, _, gate_out, gate_code = bundles[workload]
    verdict = "[FAIL]" if "[FAIL]" in gate_out else "[ok]"
    assert checks.check_gate(gate_out, 1, truth)
    assert checks.check_gate(gate_out.replace(verdict, "[ok]" if verdict == "[FAIL]" else "[FAIL]"), gate_code, truth)
    assert checks.check_gate(gate_out.replace("delta_rho=", "delta_rho=1"), gate_code, truth)
    assert checks.check_gate("", gate_code, truth)


def test_scale_uses_the_reference_runs_around_each_timing():
    refs = [run.REFERENCE_S, 3 * run.REFERENCE_S, run.REFERENCE_S]
    assert run.scale([(1.0, 1), (3.0, 2)], refs) == pytest.approx([0.5, 1.5])
    # a host twice as slow doubles both the timing and the references
    assert run.scale([(2.0, 1), (6.0, 2)], [2 * r for r in refs]) == pytest.approx([0.5, 1.5])


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_metric(tmp_path, trace):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--size", "small", "--seconds", "0.2",
         "--trace", str(trace), "--result", str(result)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2 * len(histgen.WORKLOADS)
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(last["metrics"]) == {f"{w}.{name}" for w in histgen.WORKLOADS for name in names}
    doc = json.loads(result.read_text())
    assert "git_sha" in doc and doc["src_sha256"]
    assert all(doc["workloads"][w]["input"]["occurrences"] > 0 for w in histgen.WORKLOADS)
    assert all(len(doc["workloads"][w]["references_s"]) >= 2 for w in histgen.WORKLOADS)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pmd-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "bench"]


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(histgen.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
