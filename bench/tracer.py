"""Traced replay of `smellsurv analyze`, run as its own process.

    python3 bench/tracer.py SPANS.json analyze --manifest M --out O [flags]

(with the repository's ``src`` on PYTHONPATH). It wraps the public
functions of each smellsurv module, then runs ``smellsurv.cli.main`` on the
given arguments in-process. Every wrapped call records a span (name, start,
end, parent) in memory and counts the work it saw; both are written to
SPANS.json when the replay ends. ``write_bundle`` is replayed once per
output format, so the csv, json and svg writers get spans of their own and
the bundle keeps the same bytes.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter

import smellsurv
import smellsurv.cli

# span name -> (module, function) that the span wraps
TRACED = {
    "cli.cmd_analyze": ("cli", "cmd_analyze"),
    "ingest.load_manifests": ("ingest", "load_manifests"),
    "ingest.parse_pmd_report": ("ingest", "parse_pmd_report"),
    "rules.load_code_model": ("rules", "load_code_model"),
    "rules.evaluate_rules": ("rules", "evaluate_rules"),
    "tracking.build_survival_records": ("tracking", "build_survival_records"),
    "tracking.assign_keys": ("tracking", "assign_keys"),
    "tracking.assign_timeframes": ("tracking", "assign_timeframes"),
    "tracking.apply_rename_heuristic": ("tracking", "apply_rename_heuristic"),
    "survival.compare_groups": ("survival", "compare_groups"),
    "survival.kaplan_meier": ("survival", "kaplan_meier"),
    "survival.restricted_mean": ("survival", "restricted_mean"),
    "survival.log_rank": ("survival", "log_rank"),
    "anomaly.density_series": ("anomaly", "density_series"),
    "anomaly.flag_anomalies": ("anomaly", "flag_anomalies"),
    "report.analyze_history": ("report", "analyze_history"),
    "report.write_bundle": ("report", "write_bundle"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1:3] = [start, end]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _count(c: Counter, name: str, args: tuple, kwargs: dict, result) -> None:
    """Work counters, taken at the same boundary as the span."""
    if name == "ingest.parse_pmd_report":
        c["ingest.reports"] += 1
        c["ingest.report_bytes"] += len(args[0])
        c["ingest.occurrences"] += len(result.occurrences)
        c["ingest.skipped"] += result.skipped_count
    elif name == "rules.load_code_model":
        c["ingest.reports"] += 1
        c["ingest.report_bytes"] += os.path.getsize(args[0])
        c["rules.entities"] += len(result)
    elif name == "rules.evaluate_rules":
        rules = args[1] if len(args) > 1 else kwargs.get("rules") or smellsurv.default_ruleset()
        kinds = Counter(entity.kind for entity in args[0])
        c["rules.applicable_pairs"] += sum(n * sum(r.applies_to(k) for r in rules) for k, n in kinds.items())
        c["rules.fired"] += len(result)
        c["ingest.occurrences"] += len(result)
    elif name == "tracking.build_survival_records":
        c["tracking.records"] = len(result)
        c["tracking.removed"] = sum(r.censored for r in result)
        c["survival.distinct_times"] = len({r.duration_days for r in result})
        c["survival.event_times"] = len({r.duration_days for r in result if r.censored})
    elif name == "tracking.apply_rename_heuristic":
        c["tracking.rename_pairs"] += len(result)
    elif name == "anomaly.flag_anomalies":
        c["anomaly.flags"] = len(result)
    elif name == "report.write_bundle":
        c["report.files"] += len(result)
        c["report.bytes"] += sum(os.path.getsize(p) for p in result)


def _wrap(tracer: Tracer, name: str, fn):
    if name == "survival.compare_groups":
        partition = inspect.signature(fn).parameters["partition"]

        def traced(*args, **kwargs):
            kind = kwargs.get("partition", args[1] if len(args) > 1 else partition.default)
            return tracer.call(f"{name}.{kind}", fn, args, kwargs)

    elif name == "report.write_bundle":
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            formats = bound.arguments["formats"]
            written = []
            for fmt in (f for f in smellsurv.report.FORMATS if f in formats):
                bound.arguments["formats"] = {fmt}
                part = tracer.call(f"{name}.{fmt}", fn, bound.args, bound.kwargs)
                _count(tracer.counts, name, args, kwargs, part)
                written.extend(part)
            return written

        return traced
    else:

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

    def counted(*args, **kwargs):
        result = traced(*args, **kwargs)
        _count(tracer.counts, name, args, kwargs, result)
        return result

    return counted


def install(tracer: Tracer) -> None:
    """Replace each traced function wherever a smellsurv module refers to it."""
    modules = [m for n, m in sys.modules.items() if n == "smellsurv" or n.startswith("smellsurv.")]
    for name, (module, attr) in TRACED.items():
        original = getattr(sys.modules[f"smellsurv.{module}"], attr)
        wrapped = _wrap(tracer, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.call("cli.main", smellsurv.cli.main, (cli_args,), {})
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
