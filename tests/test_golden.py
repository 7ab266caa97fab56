"""Byte-for-byte comparison of analyze bundles against committed goldens.

tests/data/*_golden/ hold the `--formats csv,json,svg` bundles of the triapp
manifest, of a two-version history without smells (both groups empty,
km_all.csv only a header) and of a history whose smell count goes
0 -> 3 -> 3 -> 1 -> 0 (an infinite density change rate, flagged, and
clipped in density.svg), of the eight-version churn history read with
CHURN_OPTIONS (a bridged gap, a gap beyond the tolerance, a joined rename
and a rename refused because the new key's run bridges a gap), and
detect_golden/<model>/ the `detect --formats csv,json` output of each
triapp code model, with the model's file stem as its version id. A refactor of the rules, the analysis or the writers must
reproduce every file exactly; a change meant to alter output regenerates
them and says so. Each analyze bundle is also written one format per
write_bundle call, as bench/tracer.py replays it, and must match the same
golden.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from smellsurv import cli
from smellsurv.cli import EXIT_OK, main
from smellsurv.report import FORMATS, write_bundle

from parity import ANALYZE_GOLDENS, DATA, SRC, _files


def _assert_same_bundle(out: Path, golden: Path) -> None:
    got, want = _files(out), _files(golden)
    assert sorted(got) == sorted(want)
    for name, content in want.items():
        assert got[name] == content, f"{name} differs from its golden"


def _analyze(tmp_path: Path, manifest, options: list[str]) -> Path:
    """Run analyze --formats csv,json,svg over the manifest written under tmp_path; the output directory."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    out = tmp_path / "out"
    args = ["analyze", "--manifest", str(manifest(inputs)), *options, "--formats", "csv,json,svg", "--out", str(out)]
    assert main(args) == EXIT_OK
    return out


@pytest.mark.parametrize("golden, manifest, options", ANALYZE_GOLDENS.values(), ids=ANALYZE_GOLDENS.keys())
def test_bundle_matches_golden(tmp_path, golden, manifest, options):
    _assert_same_bundle(_analyze(tmp_path, manifest, options), DATA / golden)


@pytest.mark.parametrize("golden, manifest, options", ANALYZE_GOLDENS.values(), ids=ANALYZE_GOLDENS.keys())
def test_bundle_written_one_format_per_call_matches_golden(tmp_path, monkeypatch, golden, manifest, options):
    # as bench/tracer.py replays write_bundle: one call per format into the
    # same app directory, each returning the paths it wrote
    written = []

    def one_format_per_call(bundle, out_dir, formats):
        paths = [path for fmt in FORMATS if fmt in formats for path in write_bundle(bundle, out_dir, {fmt})]
        written.extend(os.path.relpath(path, out_dir) for path in paths)
        return paths

    monkeypatch.setattr(cli, "write_bundle", one_format_per_call)
    out = _analyze(tmp_path, manifest, options)
    _assert_same_bundle(out, DATA / golden)
    assert sorted(written) == sorted(_files(DATA / golden))


@pytest.mark.parametrize("model", sorted((DATA / "triapp" / "models").glob("*.json")), ids=lambda p: p.stem)
def test_detect_matches_golden(tmp_path, model):
    out = tmp_path / "out"
    code = main(["detect", "--code-model", str(model), "--version-id", model.stem, "--formats", "csv,json", "--out", str(out)])
    assert code == EXIT_OK
    _assert_same_bundle(out, DATA / "detect_golden" / model.stem)


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_bundle_does_not_depend_on_hash_order(tmp_path, hash_seed):
    # strings hash by a per-process seed, so an output order taken from a
    # set would move between these runs
    out = tmp_path / "out"
    args = ["analyze", "--manifest", str(DATA / "triapp" / "manifest.csv"), "--formats", "csv,json,svg", "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    subprocess.run([sys.executable, "-m", "smellsurv.cli", *args], env=env, capture_output=True, check=True)
    _assert_same_bundle(out, DATA / "triapp_golden")


def test_parity_script_finds_every_golden_reproduced():
    # tests/parity.py is what checks the goldens on an interpreter without pytest
    run = subprocess.run([sys.executable, str(Path(__file__).parent / "parity.py")], capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith(": 4 bundles, 3 detect outputs, 0 differ\n")
