"""Command-line front end.

Subcommands:
  detect   evaluate the threshold rules over one code-model file
  analyze  full pipeline over a manifest: records, summaries, tests,
           density, anomalies, optional charts
  gate     CI check: fail when the latest transition shows a density
           increase anomaly

Exit codes: 0 success / gate passed, 1 error (a usage error included),
2 gate failed, 3 insufficient history for gating.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import shutil
import sys
from contextlib import contextmanager

from .anomaly import GATE_FAILING_KINDS, AnomalyThresholds, density_series, flag_anomalies
from .errors import ConfigError, ManifestError, OutputError, SmellSurvError, read_input
from .ingest import load_manifests
from .report import (
    BUNDLE_FILES,
    FORMATS,
    analyze_history,
    fmt_rate,
    write_bundle,
    write_occurrences,
)
from .rules import default_ruleset, detect_smells, load_ruleset
from .tracking import TrackingOptions

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GATE_FAILED = 2
EXIT_INSUFFICIENT_HISTORY = 3


def _error_record(exc: SmellSurvError) -> str:
    import json  # only a failed run writes a record
    doc: dict = {"error": type(exc).__name__, "message": str(exc)}
    if exc.row is not None:
        doc["row"] = exc.row
    if exc.byte_offset is not None:
        doc["byte_offset"] = exc.byte_offset
    return json.dumps(doc, sort_keys=True)


def _say(line: str) -> None:
    """Print line to stdout; a character stdout cannot encode (a byte of --out
    that is not UTF-8, under a strict encoder) is written as its escape, and a
    closed stdout drops this line and every later one, since the line may come
    after the bundles are published and the exit code must stand."""
    try:
        print(line, flush=True)
    except UnicodeEncodeError:
        encoding = sys.stdout.encoding
        _say(line.encode(encoding, "backslashreplace").decode(encoding))
    except BrokenPipeError:  # fd 1 becomes the null device, so the flush at exit finds no pipe either
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _parse_formats(raw: str, allowed: tuple[str, ...]) -> set[str]:
    formats = {part.strip() for part in raw.split(",") if part.strip()}
    unknown = formats - set(allowed)
    if unknown:
        raise ConfigError(f"unknown output formats: {', '.join(sorted(unknown))}")
    if not formats:
        raise ConfigError("at least one output format is required")
    return formats


def _ruleset(args) -> list:
    return default_ruleset() if args.rules is None else load_ruleset(args.rules)


def _thresholds(args) -> AnomalyThresholds:
    if not all(map(math.isfinite, (args.up, args.up2, args.down))):
        raise ConfigError(f"thresholds must be finite, got {args.down}, {args.up}, {args.up2}")
    if not (args.down < 0 < args.up <= args.up2):
        raise ConfigError(f"thresholds must satisfy down < 0 < up <= up2, got {args.down}, {args.up}, {args.up2}")
    return AnomalyThresholds(up=args.up, up2=args.up2, down=args.down)


@contextmanager
def _publishing(out_dir: str):
    """Yield an empty staging directory under out_dir; when the block returns,
    move each staged entry over its namesake in out_dir, the old entry going
    aside first; a file never replaces a directory (EISDIR), nor a directory
    a file or a dangling link (ENOTDIR) or a directory holding other than
    BUNDLE_FILES. If a move fails, every move made is undone, newest first,
    so a failed run leaves out_dir as it was (or absent, with the parents
    this created). Any OSError or ValueError (an empty out_dir, a NUL byte,
    text utf-8 cannot encode) becomes an OutputError naming out_dir."""
    import tempfile  # gate writes no file, so it never loads it
    try:
        top, parent = "", out_dir  # the highest directory this creates, as written
        while parent and not os.path.exists(parent):
            top, parent = parent, os.path.dirname(parent)
        os.makedirs(out_dir, exist_ok=True)
        try:
            staging = tempfile.mkdtemp(prefix=".smellsurv-", dir=out_dir)
            moved = []  # (from, to) of each move made
            try:
                yield staging
                names = sorted(os.listdir(staging))
                aside = tempfile.mkdtemp(dir=staging)  # named unlike any staged entry
                for name in names:
                    target, staged = os.path.join(out_dir, name), os.path.join(staging, name)
                    if os.path.lexists(target) and os.path.isdir(target) != os.path.isdir(staged):
                        code = errno.EISDIR if os.path.isdir(target) else errno.ENOTDIR
                        raise OSError(code, os.strerror(code), target)
                    if os.path.isdir(target):
                        with os.scandir(target) as entries:
                            if not all(e.name in BUNDLE_FILES and e.is_file(follow_symlinks=False) for e in entries):
                                raise OSError(f"{target} is not a bundle, so it is not replaced")
                    steps = [(target, os.path.join(aside, name))] if os.path.lexists(target) else []
                    for src, dst in (*steps, (staged, target)):
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
            if top:
                shutil.rmtree(top)
            raise
    except (OSError, ValueError) as exc:
        raise OutputError(f"cannot write under --out {out_dir}: {exc}") from exc


def cmd_detect(args) -> int:
    formats = _parse_formats(args.formats, ("csv", "json"))
    try:
        args.version_id.encode("utf-8")
    except UnicodeEncodeError as exc:  # argv bytes that are not UTF-8 arrive as lone surrogates
        raise ConfigError(f"--version-id {args.version_id!r} is not UTF-8 text") from exc
    data = read_input(args.code_model, "code model", ConfigError)
    occurrences = detect_smells(args.code_model, data, _ruleset(args))
    with _publishing(args.out) as staging:
        write_occurrences(args.version_id, occurrences, staging, formats)
    _say(f"{args.version_id}: {len(occurrences)} occurrences -> {args.out}")
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
    # each app dir is swapped in whole, so a re-run leaves no stale files
    with _publishing(args.out) as staging:
        written = [write_bundle(b, staging, formats) for b in bundles]
    for b, files in zip(bundles, written):
        _say(f"{b.app}: {len(b.records)} records, {len(files)} files -> {os.path.join(args.out, b.app)}")
    return EXIT_OK


def cmd_gate(args) -> int:
    thresholds = _thresholds(args)
    # every row is checked, but the verdict needs only each app's last two versions
    histories = load_manifests(args.manifest, _ruleset(args), args.strip_prefix, latest=2)
    short = _insufficient_history(histories)
    if short:
        _say(short)
        return EXIT_INSUFFICIENT_HISTORY

    failed = False
    for history in histories:
        series = density_series(history)  # two points, so a flag is the latest transition's
        latest = series[-1]
        flags = flag_anomalies(series, thresholds)
        failing = any(f.kind in GATE_FAILING_KINDS for f in flags)
        _say(
            f"{history.app_name} {latest.version_id}: delta_rho={fmt_rate(latest.delta_rho)} "
            f"[{'FAIL' if failing else 'ok'}]" + "".join(f" {f.kind}" for f in flags)
        )
        failed = failed or failing
    return EXIT_GATE_FAILED if failed else EXIT_OK


def _usage_error(message: str):
    """Every parser's error(): a usage error exits 1 as a ConfigError, not 2 as a failed gate."""
    if message.endswith("expected one argument"):  # argparse reads -1e-1 after a flag as a flag
        message += f"; write a value that starts with - as {message.split()[1][:-1]}=<value>"
    raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smellsurv",
        description="Code-smell evolution analytics: detection, survival, anomalies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag that two subcommands share is declared once, in a parent parser
    rules = argparse.ArgumentParser(add_help=False)
    rules.add_argument("--rules", help="JSON file with threshold overrides")
    history = argparse.ArgumentParser(add_help=False, parents=[rules])
    history.add_argument("--manifest", required=True, help="manifest CSV path")
    history.add_argument("--strip-prefix", help="path prefix to strip from report file names")
    defaults = AnomalyThresholds()
    history.add_argument("--up", type=float, default=defaults.up, help="increase threshold (default %(default)s)")
    history.add_argument(
        "--up2", type=float, default=defaults.up2, help="strong increase threshold (default %(default)s)"
    )
    history.add_argument("--down", type=float, default=defaults.down, help="decrease threshold (default %(default)s)")

    detect = sub.add_parser("detect", parents=[rules], help="evaluate threshold rules over a code-model file")
    detect.add_argument("--code-model", required=True, help="code-model JSON file")
    detect.add_argument("--version-id", required=True, help="version label for the occurrences")
    detect.add_argument("--formats", default="csv,json", help="comma-separated: csv,json")
    detect.add_argument("--out", default="out", help="output directory (default: out)")
    detect.set_defaults(func=cmd_detect)

    analyze = sub.add_parser("analyze", parents=[history], help="full pipeline over a version manifest")
    analyze.add_argument("--gap-tolerance", type=int, default=0, help="versions of absence to bridge")
    analyze.add_argument(
        "--rename-heuristic", action="store_true", help="re-join removal+addition pairs that look like renames"
    )
    analyze.add_argument("--formats", default="csv,json", help="comma-separated: csv,json,svg")
    analyze.add_argument("--out", default="out", help="output directory (default: out)")
    analyze.set_defaults(func=cmd_analyze)

    gate = sub.add_parser("gate", parents=[history], help="fail when the latest transition shows a density increase")
    gate.set_defaults(func=cmd_gate)
    for each in (parser, detect, analyze, gate):
        each.error = _usage_error
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SmellSurvError as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
