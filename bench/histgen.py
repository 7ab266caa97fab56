"""Seeded synthetic version histories, written out as real smellsurv inputs.

Each workload is a manifest CSV plus one report per version: PMD XML for
``pmd-wide`` and ``pmd-churn``, code-model JSON for ``model-long``. Every
smell instance follows a random walk over the versions (the
``_random_walk_bits`` shape of the acceptance tests) and the walk is kept in
a truth sidecar, ``truth.json``: the presence bits of every key, the
per-version counts of tracked occurrences, the LLOC values and the number of
untracked violations the reports carry. ``counts`` holds one
``{rule: occurrences}`` object per version. The output checks in ``checks.py``
are computed from that sidecar, never from smellsurv itself.

The same (workload, seed, size) always writes the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

WORKLOADS = ("pmd-wide", "model-long", "pmd-churn")
SIZES = ("full", "small")

# rule name -> (entity level, metric, threshold) for the six tracked rules
RULES = {
    "ExcessiveMethodLength": ("method", "loc", 100),
    "ExcessiveClassLength": ("class", "loc", 1000),
    "ExcessiveParameterList": ("method", "parameter_count", 10),
    "DepthOfInheritance": ("class", "depth_of_inheritance", 10),
    "CouplingBetweenObjects": ("class", "coupling", 13),
    "NumberOfChildren": ("class", "children_count", 15),
}
CLASS_RULES = [r for r, (level, _, _) in RULES.items() if level == "class"]
METHOD_RULES = [r for r, (level, _, _) in RULES.items() if level == "method"]
UNTRACKED_RULES = ("UnusedPrivateField", "GodClass", "CyclomaticComplexity", "EmptyCatchBlock")

# Per workload and size: versions; files (PMD: one class with 4 class-level
# and 4 x 2 method-level candidate keys each) or classes x methods (code
# model: 4 keys per class, 2 per method); the per-version flip probability
# of each presence bit; untracked violations per candidate key and version;
# the per-version probability that a file is renamed; for PMD, the days
# between releases and the share of code the last release keeps (below 2/3
# the gate fails). A fixed release train keeps the distinct durations few
# (at most one per version), so the statistics stay cheap on the PMD
# workloads while model-long's one-second timestamps make nearly every
# duration distinct.
PARAMS = {
    "pmd-wide": {
        "full": {"versions": 100, "files": 100, "flip": 0.05, "noise": 0.1, "rename": 0.0, "cadence": 14, "last_lloc": 1.0},
        "small": {"versions": 12, "files": 6, "flip": 0.05, "noise": 0.1, "rename": 0.0, "cadence": 14, "last_lloc": 1.0},
    },
    "model-long": {
        "full": {"versions": 1000, "classes": 8, "methods": 4, "flip": 0.04},
        "small": {"versions": 40, "classes": 3, "methods": 3, "flip": 0.05},
    },
    "pmd-churn": {
        "full": {"versions": 200, "files": 35, "flip": 0.3, "noise": 0.5, "rename": 0.02, "cadence": 7, "last_lloc": 0.6},
        "small": {"versions": 16, "files": 5, "flip": 0.3, "noise": 0.5, "rename": 0.05, "cadence": 7, "last_lloc": 0.6},
    },
}

# extra flags each workload passes to `smellsurv analyze`
ANALYZE_FLAGS = {
    "pmd-wide": ["--formats", "csv,json"],
    "model-long": ["--formats", "csv,json"],
    "pmd-churn": ["--gap-tolerance", "1", "--rename-heuristic", "--formats", "csv,json,svg"],
}

APP = "synth"
EPOCH = datetime(2012, 1, 1, tzinfo=timezone.utc)
METHODS_PER_FILE = 4


def _random_walk_bits(rng: random.Random, length: int, flip: float) -> str:
    state = rng.random() < 0.4
    bits = []
    for _ in range(length):
        if rng.random() < flip:
            state = not state
        bits.append("1" if state else "0")
    return "".join(bits)


def _lloc_series(rng: random.Random, n: int) -> list[int]:
    lloc = [rng.randint(40_000, 60_000)]
    for _ in range(n - 1):
        lloc.append(max(1_000, lloc[-1] + rng.randint(-400, 900)))
    return lloc


def _write_manifest(out_dir: Path, rows: list[tuple[str, str, str, int]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["app", "version", "timestamp", "report_path", "lloc"])
    for version, stamp, path, lloc in rows:
        writer.writerow([APP, version, stamp, path, lloc])
    (out_dir / "manifest.csv").write_text(buf.getvalue(), encoding="utf-8")


def _pmd_keys(rng: random.Random, n_files: int) -> list[dict]:
    """Candidate smell instances: per file one class with four class-level
    rules and a few methods with the two method-level rules."""
    keys = []
    for f in range(n_files):
        package = f"org.synth.pkg{f % 17}"
        cls = f"Type{f}"
        path = f"src/main/java/{package.replace('.', '/')}/{cls}.java"
        line = 10
        for rule in CLASS_RULES:
            keys.append({"rule": rule, "file": path, "package": package, "class": cls, "method": None, "line": 1, "span": 1400})
        for m in range(METHODS_PER_FILE):
            method = f"op{m}"
            span = rng.randint(20, 180)
            for rule in METHOD_RULES:
                keys.append({"rule": rule, "file": path, "package": package, "class": cls, "method": method, "line": line, "span": span})
            line += span + 5
    return keys


def _violation_xml(rule: str, key: dict, shift: int) -> str:
    begin = key["line"] + shift
    attrs = f'beginline="{begin}" endline="{begin + key["span"]}" begincolumn="5" endcolumn="6" rule="{rule}" ruleset="Design"'
    attrs += f' package="{key["package"]}" class="{key["class"]}"'
    if key["method"]:
        attrs += f' method="{key["method"]}"'
    return f'<violation {attrs} priority="3">\nThe {rule} threshold was exceeded.\n</violation>\n'


def _generate_pmd(rng: random.Random, p: dict, out_dir: Path) -> dict:
    n = p["versions"]
    keys = _pmd_keys(rng, p["files"])
    bits = [_random_walk_bits(rng, n, p["flip"]) for _ in keys]
    # a rename moves every key of the file from that version on
    file_names: dict[str, list[str]] = {}
    for key in keys:
        if key["file"] in file_names:
            continue
        names, current, renames = [], key["file"], 0
        for i in range(n):
            if i and rng.random() < p["rename"]:
                renames += 1
                current = key["file"].replace(".java", f"Renamed{renames}.java")
            names.append(current)
        file_names[key["file"]] = names
    lloc = _lloc_series(rng, n)
    if p["last_lloc"] != 1.0:
        lloc[-1] = int(lloc[-2] * p["last_lloc"])
    reports = out_dir / "reports"
    reports.mkdir(parents=True)
    rows, counts, skipped = [], [], 0
    by_file: dict[str, list[int]] = {}
    for k, key in enumerate(keys):
        by_file.setdefault(key["file"], []).append(k)
    for i in range(n):
        version = f"1.{i}"
        parts = ['<?xml version="1.0" encoding="UTF-8"?>\n<pmd xmlns="http://pmd.sourceforge.net/report/2.0.0" version="6.55.0">\n']
        count = dict.fromkeys(RULES, 0)
        for base_file, members in by_file.items():
            shift = rng.randint(0, 40)
            body = []
            for k in members:
                if bits[k][i] == "1":
                    body.append(_violation_xml(keys[k]["rule"], keys[k], shift))
                    count[keys[k]["rule"]] += 1
                if rng.random() < p["noise"]:
                    body.append(_violation_xml(rng.choice(UNTRACKED_RULES), keys[k], shift))
                    skipped += 1
            if body:
                parts.append(f'<file name="{file_names[base_file][i]}">\n')
                parts.extend(body)
                parts.append("</file>\n")
        parts.append("</pmd>\n")
        name = f"reports/{version}.xml"
        (out_dir / name).write_text("".join(parts), encoding="utf-8")
        rows.append((version, (EPOCH + timedelta(days=p["cadence"] * i)).date().isoformat(), name, lloc[i]))
        counts.append(count)
    _write_manifest(out_dir, rows)
    return {
        "versions": [r[0] for r in rows],
        "lloc": lloc,
        "counts": counts,
        "skipped": skipped,
        "candidate_keys": len(keys),
        "bits": {f"{k['rule']}|{k['file']}|{k['class']}|{k['method']}": b for k, b in zip(keys, bits)},
    }


def _metric_value(rng: random.Random, rule: str, present: bool) -> int:
    threshold = RULES[rule][2]
    if present:
        return threshold + rng.randint(1, max(2, threshold // 2))
    return rng.randint(0, threshold)  # may sit exactly on the threshold: still clean


def _generate_model(rng: random.Random, p: dict, out_dir: Path) -> dict:
    n = p["versions"]
    entities = []  # (kind, name, file, parent, rules)
    for c in range(p["classes"]):
        path = f"src/synth/module{c % 5}/Type{c}.php"
        entities.append(("class", f"Type{c}", path, None, CLASS_RULES))
        for m in range(p["methods"]):
            entities.append(("method", f"op{m}", path, f"Type{c}", METHOD_RULES))
    bits = {
        (e, rule): _random_walk_bits(rng, n, p["flip"])
        for e, (_, _, _, _, rules) in enumerate(entities)
        for rule in rules
    }
    lloc = _lloc_series(rng, n)
    seconds = 0
    models = out_dir / "models"
    models.mkdir(parents=True)
    rows, counts = [], []
    for i in range(n):
        version = f"2.{i}"
        doc, count = [], dict.fromkeys(RULES, 0)
        for e, (kind, name, path, parent, rules) in enumerate(entities):
            item = {"kind": kind, "name": name, "file": path}
            if parent:
                item["parent"] = parent
            for rule in rules:
                present = bits[(e, rule)][i] == "1"
                count[rule] += present
                item[RULES[rule][1]] = _metric_value(rng, rule, present)
            doc.append(item)
        name = f"models/{version}.json"
        (out_dir / name).write_text(json.dumps({"entities": doc}), encoding="utf-8")
        stamp = (EPOCH + timedelta(seconds=seconds)).isoformat()
        seconds += rng.randint(3_600, 3 * 86_400)
        rows.append((version, stamp, name, lloc[i]))
        counts.append(count)
    _write_manifest(out_dir, rows)
    return {
        "versions": [r[0] for r in rows],
        "lloc": lloc,
        "counts": counts,
        "skipped": 0,
        "candidate_keys": len(bits),
        "bits": {f"{rule}|{entities[e][2]}|{entities[e][3]}|{entities[e][1]}": b for (e, rule), b in bits.items()},
    }


def generate(workload: str, seed: int, size: str, out_dir: Path) -> dict:
    """Write the inputs of one workload into an empty out_dir; return the truth.

    The truth is also written to out_dir/truth.json.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{size}")
    p = PARAMS[workload][size]
    if workload == "model-long":
        truth = _generate_model(rng, p, out_dir)
    else:
        truth = _generate_pmd(rng, p, out_dir)
    truth.update(workload=workload, seed=seed, size=size, app=APP)
    truth["occurrences"] = sum(sum(c.values()) for c in truth["counts"])
    truth["report_bytes"] = sum(f.stat().st_size for f in out_dir.rglob("*") if f.parent != out_dir)
    (out_dir / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
    return truth
