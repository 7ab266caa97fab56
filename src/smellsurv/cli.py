"""Command-line front end.

Subcommands:
  detect   evaluate the threshold rules over one code-model file
  analyze  full pipeline over a manifest: records, summaries, tests,
           density, anomalies, optional charts
  gate     CI check: fail when the latest transition shows a density
           increase anomaly

Exit codes: 0 success / gate passed, 1 error, 2 gate failed,
3 insufficient history for gating.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .anomaly import AnomalyThresholds, density_series, flag_anomalies
from .errors import ConfigError, ManifestError, OutputError, SmellSurvError
from .ingest import load_manifests
from .report import (
    BUNDLE_FILES,
    FORMATS,
    analyze_history,
    fmt_rate,
    write_bundle,
    write_occurrences,
)
from .rules import default_ruleset, evaluate_rules, load_code_model, load_ruleset
from .tracking import TrackingOptions

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GATE_FAILED = 2
EXIT_INSUFFICIENT_HISTORY = 3


def _error_record(exc: SmellSurvError) -> str:
    doc: dict = {"error": type(exc).__name__, "message": str(exc)}
    if exc.row is not None:
        doc["row"] = exc.row
    if exc.byte_offset is not None:
        doc["byte_offset"] = exc.byte_offset
    return json.dumps(doc, sort_keys=True)


def _parse_formats(raw: str, allowed: tuple[str, ...]) -> set[str]:
    formats = {part.strip() for part in raw.split(",") if part.strip()}
    unknown = formats - set(allowed)
    if unknown:
        raise ConfigError(f"unknown output formats: {', '.join(sorted(unknown))}")
    if not formats:
        raise ConfigError("at least one output format is required")
    return formats


def _ruleset(args) -> list:
    return load_ruleset(args.rules) if args.rules else default_ruleset()


def _thresholds(args) -> AnomalyThresholds:
    if not all(map(math.isfinite, (args.up, args.up2, args.down))):
        raise ConfigError(f"thresholds must be finite, got {args.down}, {args.up}, {args.up2}")
    if not (args.down < 0 < args.up <= args.up2):
        raise ConfigError(f"thresholds must satisfy down < 0 < up <= up2, got {args.down}, {args.up}, {args.up2}")
    return AnomalyThresholds(up=args.up, up2=args.up2, down=args.down)


@contextmanager
def _publishing(out_dir: Path):
    """Yield an empty staging directory under out_dir; when the block returns,
    move each staged entry over its namesake in out_dir, the old entry going
    aside first; a file never replaces a directory (EISDIR), nor a directory
    a file (ENOTDIR) or a directory holding other than BUNDLE_FILES. If a
    move fails, every move made is undone, newest first, so a failed run
    leaves out_dir as it was (or absent, with the parents this created).
    Any OSError or ValueError (a NUL byte, text utf-8 cannot encode) becomes
    an OutputError naming out_dir."""
    try:
        created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            staging = Path(tempfile.mkdtemp(prefix=".smellsurv-", dir=out_dir))
            moved = []  # (from, to) of each move made
            try:
                yield staging
                names = sorted(os.listdir(staging))
                aside = Path(tempfile.mkdtemp(dir=staging))  # named unlike any staged entry
                for name in names:
                    target = out_dir / name
                    if target.exists() and target.is_dir() != (staging / name).is_dir():
                        code = errno.EISDIR if target.is_dir() else errno.ENOTDIR
                        raise OSError(code, os.strerror(code), str(target))
                    if target.is_dir():
                        with os.scandir(target) as entries:
                            if not all(e.name in BUNDLE_FILES and e.is_file(follow_symlinks=False) for e in entries):
                                raise OSError(f"{target} is not a bundle, so it is not replaced")
                    steps = [(target, aside / name)] if os.path.lexists(target) else []
                    for src, dst in (*steps, (staging / name, target)):
                        os.replace(src, dst)
                        moved.append((src, dst))
            except BaseException:
                # staging is kept if an undo fails: it then holds old entries
                for src, dst in reversed(moved):
                    os.replace(dst, src)
                shutil.rmtree(staging)
                raise
            shutil.rmtree(staging)
        except BaseException:
            if created:
                shutil.rmtree(created[-1])
            raise
    except (OSError, ValueError) as exc:
        raise OutputError(f"cannot write under --out {out_dir}: {exc}") from exc


def cmd_detect(args) -> int:
    formats = _parse_formats(args.formats, ("csv", "json"))
    try:
        args.version_id.encode("utf-8")
    except UnicodeEncodeError as exc:  # argv bytes that are not UTF-8 arrive as lone surrogates
        raise ConfigError(f"--version-id {args.version_id!r} is not UTF-8 text") from exc
    try:
        entities = load_code_model(args.code_model)
    except OSError as exc:
        raise ConfigError(f"code model {args.code_model} unreadable: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a NUL byte
        raise ConfigError(f"code model {args.code_model}: {exc}") from exc
    occurrences = evaluate_rules(entities, _ruleset(args))
    out_dir = Path(args.out)
    with _publishing(out_dir) as staging:
        write_occurrences(args.version_id, occurrences, staging, formats)
    print(f"{args.version_id}: {len(occurrences)} occurrences -> {out_dir}")
    return EXIT_OK


def _insufficient_history(histories) -> str | None:
    """Message naming the apps with fewer than two versions, if any."""
    short = [h.app_name for h in histories if len(h.snapshots) < 2]
    return f"insufficient history (need >= 2 versions): {', '.join(short)}" if short else None


def cmd_analyze(args) -> int:
    formats = _parse_formats(args.formats, FORMATS)
    if args.gap_tolerance < 0:
        raise ConfigError(f"gap_tolerance must be >= 0, got {args.gap_tolerance}")
    options = TrackingOptions(gap_tolerance=args.gap_tolerance, rename_heuristic=args.rename_heuristic)
    thresholds = _thresholds(args)
    histories = load_manifests(args.manifest, _ruleset(args), args.strip_prefix)
    short = _insufficient_history(histories)
    if short:
        raise ManifestError(short)
    bundles = [analyze_history(h, options, thresholds) for h in histories]
    out_dir = Path(args.out)
    # each app dir is swapped in whole, so a re-run leaves no stale files
    with _publishing(out_dir) as staging:
        written = [write_bundle(b, staging, formats) for b in bundles]
    for b, files in zip(bundles, written):
        print(f"{b.app}: {len(b.records)} records, {len(files)} files -> {out_dir / b.app}")
    return EXIT_OK


def cmd_gate(args) -> int:
    thresholds = _thresholds(args)
    # every row is checked, but the verdict needs only each app's last two versions
    histories = load_manifests(args.manifest, _ruleset(args), args.strip_prefix, latest=2)
    short = _insufficient_history(histories)
    if short:
        print(short)
        return EXIT_INSUFFICIENT_HISTORY

    failed = False
    for history in histories:
        series = density_series(history)  # two points, so a flag is the latest transition's
        latest = series[-1]
        flags = flag_anomalies(series, thresholds)
        increases = [f for f in flags if f.kind.startswith("increase")]
        verdict = "FAIL" if increases else "ok"
        print(
            f"{history.app_name} {latest.version_id}: delta_rho={fmt_rate(latest.delta_rho)} "
            f"[{verdict}]" + "".join(f" {f.kind}" for f in flags)
        )
        if increases:
            failed = True
    return EXIT_GATE_FAILED if failed else EXIT_OK


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    defaults = AnomalyThresholds()
    parser.add_argument("--up", type=float, default=defaults.up, help="increase threshold (default %(default)s)")
    parser.add_argument(
        "--up2", type=float, default=defaults.up2, help="strong increase threshold (default %(default)s)"
    )
    parser.add_argument("--down", type=float, default=defaults.down, help="decrease threshold (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smellsurv",
        description="Code-smell evolution analytics: detection, survival, anomalies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="evaluate threshold rules over a code-model file")
    detect.add_argument("--code-model", required=True, help="code-model JSON file")
    detect.add_argument("--version-id", required=True, help="version label for the occurrences")
    detect.add_argument("--rules", help="JSON file with threshold overrides")
    detect.add_argument("--formats", default="csv,json", help="comma-separated: csv,json")
    detect.add_argument("--out", default="out", help="output directory (default: out)")
    detect.set_defaults(func=cmd_detect)

    analyze = sub.add_parser("analyze", help="full pipeline over a version manifest")
    analyze.add_argument("--manifest", required=True, help="manifest CSV path")
    analyze.add_argument("--rules", help="JSON file with threshold overrides")
    analyze.add_argument("--gap-tolerance", type=int, default=0, help="versions of absence to bridge")
    analyze.add_argument(
        "--rename-heuristic", action="store_true", help="re-join removal+addition pairs that look like renames"
    )
    analyze.add_argument("--formats", default="csv,json", help="comma-separated: csv,json,svg")
    analyze.add_argument("--out", default="out", help="output directory (default: out)")
    analyze.add_argument("--strip-prefix", help="path prefix to strip from report file names")
    _add_threshold_flags(analyze)
    analyze.set_defaults(func=cmd_analyze)

    gate = sub.add_parser("gate", help="fail when the latest transition shows a density increase")
    gate.add_argument("--manifest", required=True, help="manifest CSV path")
    gate.add_argument("--rules", help="JSON file with threshold overrides")
    gate.add_argument("--strip-prefix", help="path prefix to strip from report file names")
    _add_threshold_flags(gate)
    gate.set_defaults(func=cmd_gate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SmellSurvError as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
