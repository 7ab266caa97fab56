from __future__ import annotations

import contextlib
import gc
from datetime import datetime, timedelta, timezone
from pathlib import Path

from smellsurv.ingest import History, SizeMetrics, VersionSnapshot, load_manifests
from smellsurv.rules import Occurrence, default_ruleset
from smellsurv.tracking import InstanceKey, SurvivalRecord

BASE = datetime(2015, 1, 1, tzinfo=timezone.utc)


def ts(day: float) -> datetime:
    return BASE + timedelta(days=day)


@contextlib.contextmanager
def cyclic_garbage():
    """Yield a list that, once the block ends, holds every object the block
    left to the cyclic GC: collection is off and DEBUG_SAVEALL keeps what one
    collection at the end finds unreachable. The GC state, its debug flags
    and gc.garbage are restored however the block ends."""
    enabled, flags, saved = gc.isenabled(), gc.get_debug(), gc.garbage[:]
    gc.collect()
    gc.disable()
    found = []
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        del gc.garbage[:]
        yield found
        gc.collect()
        found.extend(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
        if enabled:
            gc.enable()


def occurrence(
    rule: str = "ExcessiveMethodLength",
    file: str = "src/a.php",
    entity_path: str = "A/m",
) -> Occurrence:
    return rule, file, entity_path


_record_counter = iter(range(10**9))


def record(
    duration: float,
    event: bool,
    scope: str = "localized",
    timeframe: int = 1,
) -> SurvivalRecord:
    """Bare survival record for feeding the statistics layer directly."""
    i = next(_record_counter)
    rule = "ExcessiveMethodLength" if scope == "localized" else "DepthOfInheritance"
    return SurvivalRecord(
        key=InstanceKey(rule, f"f{i}.php", f"e{i}", 0),
        first_version="v1",
        first_date=ts(0),
        last_present_version="v?",
        end_date=ts(duration) if event else None,
        duration_days=float(duration),
        timeframe=timeframe,
    )


def pairs(records: list[SurvivalRecord]) -> list[tuple[float, bool]]:
    """The (duration, event) pairs the statistics take."""
    return [(r.duration_days, r.end_date is not None) for r in records]


def load_manifest(table: str, base_dir) -> History:
    """The one History of a single-app manifest, written to base_dir/manifest.csv
    and read with the default rules."""
    manifest = Path(base_dir) / "manifest.csv"
    manifest.write_text(table)
    (history,) = load_manifests(manifest, default_ruleset())
    return history


NO_SMELL_REPORT = '<?xml version="1.0" encoding="UTF-8"?>\n<pmd version="2.9.1" timestamp="t"></pmd>\n'


def write_no_smell_history(directory: Path) -> Path:
    """Two PMD versions of app "clean" with no violations; returns the manifest."""
    (directory / "r1.xml").write_text(NO_SMELL_REPORT)
    (directory / "r2.xml").write_text(NO_SMELL_REPORT)
    manifest = directory / "manifest.csv"
    manifest.write_text(
        "app,version,timestamp,report_path,lloc\n"
        "clean,1.0,2020-01-01,r1.xml,900\n"
        "clean,2.0,2020-06-01,r2.xml,950\n"
    )
    return manifest


def write_inf_rate_history(directory: Path) -> Path:
    """Five PMD versions of app "spike" with 0, 3, 3, 1 and 0 violations at a
    fixed lloc, so the first change rate is infinite; returns the manifest."""
    methods = [[], ["m1", "m2", "m3"], ["m1", "m2", "m3"], ["m2"], []]
    rows = ["app,version,timestamp,report_path,lloc"]
    for i, names in enumerate(methods, start=1):
        violations = "".join(
            f'<violation beginline="{10 * j + 1}" endline="{10 * j + 9}" rule="ExcessiveMethodLength" '
            f'package="App" class="S" method="{name}">long</violation>'
            for j, name in enumerate(names)
        )
        body = f'<file name="app/s.php">{violations}</file>' if names else ""
        (directory / f"r{i}.xml").write_text(NO_SMELL_REPORT.replace("</pmd>", body + "</pmd>"))
        rows.append(f"spike,{i}.0,2020-0{i}-01,r{i}.xml,1000")
    manifest = directory / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


def history_from_bits(
    bits_by_key: dict[str, str],
    days: list[float] | None = None,
    app: str = "synthetic",
    lloc: int = 10_000,
    rule: str = "ExcessiveMethodLength",
) -> History:
    """History in which key k (used as the entity path) is present in
    version i exactly when bits_by_key[k][i] == '1'."""
    n_versions = len(next(iter(bits_by_key.values())))
    if days is None:
        days = [float(30 * i) for i in range(n_versions)]
    snapshots = []
    for i in range(n_versions):
        keys = tuple(
            InstanceKey(rule, "src/a.php", key, 0) for key, bits in sorted(bits_by_key.items()) if bits[i] == "1"
        )
        snapshots.append(
            VersionSnapshot(version_id=f"v{i + 1}", timestamp=ts(days[i]), keys=keys, size=SizeMetrics(lloc=lloc))
        )
    return History(app_name=app, snapshots=tuple(snapshots))


# (rule, file, class, method) -> presence in the eight versions of app "churn",
# read with CHURN_OPTIONS
CHURN_PRESENCE = {
    ("ExcessiveMethodLength", "app/a.php", "A", "m1"): "11011111",  # absent in v3 only: bridged
    ("ExcessiveMethodLength", "app/b.php", "B", "m2"): "11001101",  # absent in v3-v4: two runs, then v7 bridged
    ("ExcessiveMethodLength", "app/old.php", "R", "run"): "11110000",  # moves to new.php at v5: joined
    ("ExcessiveMethodLength", "app/new.php", "R", "run"): "00001111",
    ("ExcessiveParameterList", "app/x.php", "D", "n"): "11111000",  # moves to y.php at v6, but y.php's
    ("ExcessiveParameterList", "app/y.php", "D", "n"): "11110111",  # run bridges v5: the rename is refused
    ("DepthOfInheritance", "app/a.php", "A", None): "01110011",
    ("CouplingBetweenObjects", "app/b.php", "B", None): "11111100",
    ("UnusedPrivateField", "app/a.php", "A", None): "10101010",  # not a rule: skipped
}
CHURN_OPTIONS = ["--gap-tolerance", "1", "--rename-heuristic"]
CHURN_DATES = ["2020-01-01", "2020-02-15", "2020-03-01", "2020-05-10", "2020-06-01", "2020-08-20", "2020-09-01", "2020-12-01"]


def write_churn_history(directory: Path) -> Path:
    """Eight PMD versions of app "churn" laid out by CHURN_PRESENCE, with a
    growing lloc; returns the manifest."""
    rows = ["app,version,timestamp,report_path,lloc"]
    for i, date in enumerate(CHURN_DATES):
        files: dict[str, list[str]] = {}
        for j, ((rule, file, cls, method), bits) in enumerate(CHURN_PRESENCE.items()):
            if bits[i] == "1":
                entity = f' class="{cls}"' + (f' method="{method}"' if method else "")
                files.setdefault(file, []).append(
                    f'<violation beginline="{20 * j + 1}" endline="{20 * j + 15}" rule="{rule}"{entity}>x</violation>'
                )
        body = "".join(f'<file name="{file}">{"".join(v)}</file>' for file, v in sorted(files.items()))
        (directory / f"r{i + 1}.xml").write_text(NO_SMELL_REPORT.replace("</pmd>", body + "</pmd>"))
        rows.append(f"churn,{i + 1}.0,{date},r{i + 1}.xml,{1000 + 150 * i}")
    manifest = directory / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest
