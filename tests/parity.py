"""Check every committed golden under the Python that runs this script.

    python tests/parity.py

Runs ``python -m smellsurv.cli`` under this interpreter: ``analyze
--formats csv,json,svg`` over each ANALYZE_GOLDENS manifest with its
options, and ``detect --formats csv,json`` over each triapp code model.
Each output is compared byte for byte with its golden under tests/data.
Prints one line per difference and exits 1 if there is any, else exits 0.
It needs only the standard library, so it runs on an interpreter without
pytest.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
SRC = TESTS.parent / "src"
sys.path[:0] = [str(TESTS), str(SRC)]  # the conftest writers import smellsurv

from conftest import CHURN_OPTIONS, write_churn_history, write_inf_rate_history, write_no_smell_history  # noqa: E402


# id -> (golden directory under tests/data, writer of its manifest into a
# directory, extra analyze options); tests/test_golden.py runs the same table
ANALYZE_GOLDENS = {
    "triapp": ("triapp_golden", lambda tmp: DATA / "triapp" / "manifest.csv", []),
    "no-smell": ("clean_golden", write_no_smell_history, []),
    "inf-rate": ("inf_rate_golden", write_inf_rate_history, []),
    "churn": ("churn_golden", write_churn_history, CHURN_OPTIONS),
}


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _differences(args: list[str], out: Path, golden: Path) -> list[str]:
    """Run the CLI with args and --out out; name each file that differs from golden."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    command = [sys.executable, "-m", "smellsurv.cli", *args, "--out", str(out)]
    run = subprocess.run(command, env=env, capture_output=True)
    if run.returncode:
        return [f"{args[0]} for {golden.name} exited {run.returncode}: {run.stderr.decode(errors='replace')}"]
    got, want = _files(out), _files(golden)
    names = sorted(got.keys() | want.keys())
    return [f"{golden.relative_to(DATA)}/{name}" for name in names if got.get(name) != want.get(name)]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        failures = []
        for golden, manifest, options in ANALYZE_GOLDENS.values():
            (work / golden).mkdir()
            args = ["analyze", "--manifest", str(manifest(work / golden)), *options, "--formats", "csv,json,svg"]
            failures += _differences(args, work / golden / "out", DATA / golden)
        models = sorted((DATA / "triapp" / "models").glob("*.json"))
        for model in models:
            args = ["detect", "--code-model", str(model), "--version-id", model.stem, "--formats", "csv,json"]
            failures += _differences(args, work / "detect" / model.stem, DATA / "detect_golden" / model.stem)
    for failure in failures:
        print(f"differs: {failure}")
    version = sys.version.split()[0]
    print(f"Python {version}: {len(ANALYZE_GOLDENS)} bundles, {len(models)} detect outputs, {len(failures)} differ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
