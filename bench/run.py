"""smellsurv benchmark: seeded histories, CLI timings and a traced replay.

    python3 bench/run.py --workload pmd-wide --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: the program under test is the
checkout's own ``src`` tree, put on PYTHONPATH of every child process. Each
run generates its inputs from the seed (bench/histgen.py), then works in a
closed loop, one child process at a time, until ``--seconds`` have passed:

* ``--trace 0`` times ``smellsurv analyze`` and ``smellsurv gate`` children
  and fresh-interpreter set-up probes, and reports the end-to-end metrics;
* ``--trace 1`` alternates an untraced ``analyze`` child with a traced
  replay child (bench/tracer.py) and reports the per-layer metrics.

On a shared host other tenants slow every process down, in CPU time as much
as in wall time, by up to about 2x and for spells of seconds to many minutes.
So a fixed stdlib-only workload (bench/reference.py) runs right before and
right after each timed child, and each timing is scaled by
``REFERENCE_S / (mean of those two reference times)``: it reads as the
seconds the child would take on a host where the reference takes
``REFERENCE_S``. The reported value of a timing is the median of its scaled
samples; the median of the raw samples and of the reference times are
printed and stored alongside it. Peak RSS and the counts are not scaled.

Every output is checked against the generator's truth (bench/checks.py).
Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
same figures, with samples, input sizes and the source revision, are written
to ``.bench_results/`` (or ``--result``). ``--workload all`` runs every
workload in turn; ``--size small`` runs the fast inputs of the self-tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import histgen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 120
SETUP_PROBES_PER_ROUND = 2
REFERENCE = BENCH_DIR / "reference.py"
REFERENCE_S = 0.1  # about the median of bench/reference.py on a 2-vCPU 2.1 GHz x86-64 VM, CPython 3.11
ENTRY = "import sys; from smellsurv.cli import main; sys.exit(main())"  # the console script
SETUP = "import smellsurv.cli; smellsurv.cli.build_parser()"

# name -> (unit, better); the end-to-end metrics of --trace 0
END_TO_END = {
    "analyze_s": ("s", "lower"),
    "gate_s": ("s", "lower"),
    "analyze_occ_per_s": ("occ/s", "higher"),
    "analyze_peak_rss_mb": ("MB", "lower"),
    "gate_peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# span-derived timings (sum of the span durations of that name), per layer
SPAN_TIMES = {
    "ingest": ["load_manifests", "parse_pmd_report"],
    "rules": ["load_code_model", "evaluate_rules"],
    "tracking": ["build_survival_records", "assign_keys", "assign_timeframes", "apply_rename_heuristic"],
    "survival": ["compare_groups.scope", "compare_groups.timeframe", "kaplan_meier", "restricted_mean", "log_rank"],
    "anomaly": ["density_series", "flag_anomalies"],
    "report": ["analyze_history", "write_bundle.csv", "write_bundle.json", "write_bundle.svg"],
    "cli": ["cmd_analyze"],
}
COUNTS = {
    "ingest.reports": "count",
    "ingest.report_bytes": "bytes",
    "ingest.occurrences": "count",
    "ingest.skipped": "count",
    "rules.entities": "count",
    "rules.fired_ratio": "1",
    "tracking.rename_pairs": "count",
    "tracking.records": "count",
    "tracking.removed": "count",
    "survival.distinct_times": "count",
    "survival.event_times": "count",
    "anomaly.flags": "count",
    "report.files": "count",
    "report.bytes": "bytes",
    "trace.spans": "count",
}
# name -> unit; the per-layer metrics of --trace 1
PER_LAYER = {
    **{f"{layer}.{fn}_s": "s" for layer, fns in SPAN_TIMES.items() for fn in fns},
    **{f"{layer}.self_s": "s" for layer in SPAN_TIMES},
    **COUNTS,
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def run_child(argv: list[str], log_dir: Path) -> Child:
    """Run one child to completion; wall time and its own peak RSS (wait4)."""
    out, err = log_dir / "stdout", log_dir / "stderr"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out_fh, stderr=err_fh, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        exit_code=proc.returncode,
        stdout=out.read_text(encoding="utf-8", errors="replace"),
        stderr=err.read_text(encoding="utf-8", errors="replace"),
    )


def summarize(samples: list[float]) -> dict:
    """Median (the value), maximum and the highest percentile with ten
    samples beyond it."""
    ordered = sorted(samples)
    doc = {"value": statistics.median(ordered), "n": len(ordered), "max": ordered[-1]}
    if len(ordered) > 10:
        doc[f"p{100 * (len(ordered) - 10) // len(ordered)}"] = ordered[-11]
    return doc


def scale(timings: list[tuple[float, int]], references: list[float]) -> list[float]:
    """Each (seconds, i) scaled to the host speed at which the reference
    takes REFERENCE_S, by the reference runs i - 1 and i around it."""
    return [s * 2 * REFERENCE_S / (references[i - 1] + references[i]) for s, i in timings]


def load_golden() -> dict:
    return json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))


class WorkloadRun:
    """One workload's inputs, its checks and the samples taken on it."""

    def __init__(self, workload: str, seed: int, size: str, work: Path):
        self.workload, self.work = workload, work
        started = time.perf_counter()
        self.truth = histgen.generate(workload, seed, size, work / "input")
        self.generate_s = time.perf_counter() - started
        self.manifest = work / "input" / "manifest.csv"
        self.flags = histgen.ANALYZE_FLAGS[workload]
        self.formats = self.flags[self.flags.index("--formats") + 1]
        self.golden = load_golden().get(workload, {}).get(size) if seed == DEFAULT_SEED else None
        self.digest: str | None = None
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.layer_samples: dict[str, list[float]] = {}
        self.references: list[float] = []
        # name -> [(raw seconds, index of the reference run after it)]
        self.timings: dict[str, list[tuple[float, int]]] = {}
        self.serial = 0

    def _record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _time(self, name: str, seconds: float) -> None:
        self.timings.setdefault(name, []).append((seconds, len(self.references)))

    def scaled(self, name: str) -> list[float]:
        return scale(self.timings.get(name, []), self.references)

    def reference(self) -> None:
        child = run_child([sys.executable, str(REFERENCE)], self.work)
        if child.exit_code != 0:
            raise BenchError(f"the reference workload failed: {child.stderr.strip()[-300:]}")
        self.references.append(float(child.stdout))

    def _child_dir(self) -> Path:
        self.serial += 1
        path = self.work / f"run{self.serial}"
        path.mkdir()
        return path

    def setup_probe(self) -> float:
        child = run_child([sys.executable, "-c", SETUP], self.work)
        if child.exit_code != 0:
            raise BenchError(f"cannot import smellsurv from {SRC}: {child.stderr.strip()[-300:]}")
        return child.wall_s

    def analyze(self) -> tuple[Child, Path, str]:
        run_dir = self._child_dir()
        child = run_child(
            [sys.executable, "-c", ENTRY, "analyze", "--manifest", str(self.manifest), "--out", str(run_dir / "out")]
            + self.flags,
            run_dir,
        )
        bundle = run_dir / "out" / self.truth["app"]
        digest = checks.bundle_digest(bundle) if bundle.is_dir() else ""
        problems = [] if child.exit_code == 0 else [f"exit {child.exit_code}: {child.stderr.strip()[-200:]}"]
        if not problems and digest != self.digest:
            # the first bundle gets every check; later ones must repeat its bytes
            problems = checks.check_analyze(bundle, self.truth, self.workload, self.formats)
            expected = self.digest or self.golden
            if expected is not None and digest != expected:
                problems.append(f"bundle sha256 {digest[:12]} differs from the expected {expected[:12]}")
            if not problems:
                self.digest = digest
        self._record(problems, "analyze")
        return child, run_dir, digest

    def gate(self) -> Child:
        run_dir = self._child_dir()
        child = run_child([sys.executable, "-c", ENTRY, "gate", "--manifest", str(self.manifest)], run_dir)
        self._record(checks.check_gate(child.stdout, child.exit_code, self.truth), "gate")
        shutil.rmtree(run_dir)
        return child

    def replay(self, analyze_digest: str) -> Child:
        run_dir = self._child_dir()
        spans_path = run_dir / "spans.json"
        child = run_child(
            [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), "analyze",
             "--manifest", str(self.manifest), "--out", str(run_dir / "out")] + self.flags,
            run_dir,
        )
        bundle = run_dir / "out" / self.truth["app"]
        problems = [] if child.exit_code == 0 else [f"exit {child.exit_code}: {child.stderr.strip()[-200:]}"]
        if not problems and checks.bundle_digest(bundle) != analyze_digest:
            problems.append("replayed bundle differs from the CLI's bundle")
        self._record(problems, "traced replay")
        if not problems:
            for name, value in layer_metrics(json.loads(spans_path.read_text(encoding="utf-8"))).items():
                if PER_LAYER[name] == "s":
                    self._time(name, value)
                else:
                    self.layer_samples.setdefault(name, []).append(value)
            self._time("replay_s", child.wall_s)
        shutil.rmtree(run_dir)
        return child

    def measure(self, seconds: float, trace: bool) -> None:
        self.setup_probe()  # warm-up: byte-compiles src, untimed
        deadline = time.perf_counter() + seconds
        self.reference()
        while True:
            round_started = time.perf_counter()
            if not trace:
                for _ in range(SETUP_PROBES_PER_ROUND):
                    self._time("setup_s", self.setup_probe())
                self.reference()
            child, run_dir, digest = self.analyze()
            self._time("analyze_s", child.wall_s)
            self._sample("analyze_peak_rss_mb", child.rss_mb)
            self.reference()
            if trace:
                self.replay(digest)
            else:
                gate = self.gate()
                self._time("gate_s", gate.wall_s)
                self._sample("gate_peak_rss_mb", gate.rss_mb)
            self.reference()
            shutil.rmtree(run_dir)
            now = time.perf_counter()
            if now + (now - round_started) / 2 >= deadline:  # end as near the deadline as rounds allow
                break

    def metrics(self, trace: bool) -> dict[str, dict]:
        """Metric name -> {value, unit, n, ...}: medians over the samples,
        of timings scaled by the reference runs around them."""
        out = {}
        if not trace:
            for name, (unit, _) in END_TO_END.items():
                if name in self.samples:
                    out[name] = {"unit": unit, **summarize(self.samples[name])}
                elif name in self.timings:
                    raw = statistics.median(s for s, _ in self.timings[name])
                    out[name] = {"unit": unit, **summarize(self.scaled(name)), "raw_median": raw}
            analyze = out["analyze_s"]
            out["analyze_occ_per_s"] = {"value": self.truth["occurrences"] / analyze["value"], "unit": "occ/s", "n": analyze["n"]}
            return {name: out[name] for name in END_TO_END}
        for name, unit in PER_LAYER.items():
            samples = self.scaled(name) if unit == "s" else self.layer_samples.get(name)
            out[name] = {"value": statistics.median(samples or [0.0]), "unit": unit, "n": len(samples or [])}
        if "replay_s" in self.timings:
            overhead = statistics.median(self.scaled("replay_s")) - statistics.median(self.scaled("analyze_s"))
            out["trace.overhead_s"].update(value=overhead, n=len(self.timings["replay_s"]))
        return out

    def input_sizes(self) -> dict:
        keys = ("versions", "candidate_keys", "occurrences", "skipped", "report_bytes")
        sizes = {k: len(self.truth[k]) if k == "versions" else self.truth[k] for k in keys}
        if self.workload in checks.RUN_ORACLE_WORKLOADS:
            sizes["records"], sizes["removals"] = checks.run_oracle(self.truth["bits"])
        return sizes


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced replay: span time sums, layer self
    times (span time minus the time of its child spans) and counts."""
    spans = trace["spans"]
    durations = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    for (_, _, _, parent), duration in zip(spans, durations):
        if parent >= 0:
            children[parent] += duration
    out = {name: 0.0 for name in PER_LAYER}
    for (name, _, _, _), duration, child in zip(spans, durations, children):
        layer = name.split(".", 1)[0]
        if f"{name}_s" in out:
            out[f"{name}_s"] += duration
        out[f"{layer}.self_s"] += duration - child
    counts = trace["counts"]
    for name in COUNTS:
        out[name] = float(counts.get(name, 0))
    pairs = counts.get("rules.applicable_pairs", 0)
    out["rules.fired_ratio"] = counts.get("rules.fired", 0) / pairs if pairs else 0.0
    out["trace.spans"] = float(len(spans))
    del out["trace.overhead_s"]  # set by WorkloadRun.metrics from the untraced runs
    return out


def source_revision() -> dict:
    """Git SHA when the checkout is a git repository, and a digest of src."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:  # no git on PATH
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def fmt_line(workload: str, name: str, m: dict) -> str:
    extra = " ".join(f"{k}={v:.6g}" for k, v in m.items() if k not in ("value", "unit", "n"))
    return f"{workload:<10} {name:<38} {m['value']:>14.6g} {m['unit']:<6} n={m['n']} {extra}".rstrip()


def run(args) -> dict:
    if not (SRC / "smellsurv" / "cli.py").is_file():
        raise BenchError(f"no smellsurv source tree at {SRC}; run from the root of a checkout")
    workloads = histgen.WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    result = {"seed": args.seed, "size": args.size, "seconds": args.seconds, "trace": args.trace,
              **source_revision(), "workloads": {}}
    try:
        for workload in workloads:
            wl_dir = work / workload
            wl_dir.mkdir()
            wr = WorkloadRun(workload, args.seed, args.size, wl_dir)
            wr.measure(args.seconds, bool(args.trace))
            metrics = wr.metrics(bool(args.trace))
            result["workloads"][workload] = {
                "input": wr.input_sizes(), "generate_s": wr.generate_s, "bundle_sha256": wr.digest,
                "attempted": wr.attempted,
                "failed": wr.failed, "failed_ratio": wr.failed / wr.attempted, "problems": wr.problems,
                "metrics": metrics, "samples": wr.samples, "references_s": wr.references,
                "timings": {name: [s for s, _ in pairs] for name, pairs in wr.timings.items()},
            }
            print(f"{workload:<10} input {json.dumps(wr.input_sizes())} generated in {wr.generate_s:.3f} s")
            print(f"{workload:<10} reference run median {statistics.median(wr.references):.6g} s, "
                  f"timings scaled to {REFERENCE_S} s, n={len(wr.references)}")
            for name, m in metrics.items():
                print(fmt_line(workload, name, m))
            print(f"{workload:<10} {'failed_ratio':<38} {wr.failed / wr.attempted:>14.6g} 1      n={wr.attempted}")
            for problem in wr.problems:
                print(f"{workload:<10} CHECK FAILED {problem}")
            shutil.rmtree(wl_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=histgen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=histgen.SIZES, default="full")
    parser.add_argument("--result", help="result file (default: .bench_results/<workload>-seed<n>-trace<t>-<size>.json)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    runs = result["workloads"].values()
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if len(result["workloads"]) == 1:
        metrics = next(iter(runs))["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in result["workloads"].items() for name, m in r["metrics"].items()}
    result_path = Path(args.result) if args.result else (
        ROOT / ".bench_results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    )
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
