"""Every module-level import in src/ and tests/ is used, and so is every
module-level name defined in src/.

No linter runs in CI, so this walks each file's syntax tree instead: a name
bound by an import at module level (including under a module-level ``if`` or
``try``) must be read somewhere in the same file, and a function, class or
variable defined at module level in src/ must be read somewhere in src/.

A fact that two modules need has one owner: only rules.py names a scope,
and only tracking.py compares a record's birth with the timeframe split or
reads an event off its end_date. No module imports one that imports it back,
at any depth, so no import hides a cycle behind TYPE_CHECKING or a function.

Every command pays for what the CLI imports, so the heavy modules it does not
need are pinned out of it too. The pins cover each command's run, not only
the import: a module that only some runs use is loaded by the function that
runs it, so a PMD gate loads no JSON codec and no tempfile, a code-model
analyze no expat, and only a chart run the chart module.

And every file in src/, tests/ and bench/ compiles without a SyntaxWarning,
such as an ``is`` against a literal.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import write_no_smell_history

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def module_statements(tree: ast.Module) -> list[ast.stmt]:
    """The statements run at module level, those under an ``if`` or ``try`` included."""
    found = []
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.If):
            statements.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            statements.extend(node.body + node.orelse + node.finalbody)
            statements.extend(s for handler in node.handlers for s in handler.body)
        else:
            found.append(node)
    return found


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in module_statements(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and assigned names that no source reads,
    as a name or as an attribute, as "module: name"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unused = []
    for module, tree in trees.items():
        for node in module_statements(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused.extend(f"{module}: {name}" for name in names if name not in read)
    return sorted(unused)


def read_sources(*dirs: str) -> dict[str, str]:
    return {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for d in dirs for p in (ROOT / d).rglob("*.py")}


def test_no_unused_module_level_name_in_src():
    assert unused_names(read_sources("src")) == []


def test_the_check_finds_an_unused_name():
    sources = {
        "a.py": "import b\nX = 1\nY: int = X\ndef f(): pass\nclass C: pass\nif True:\n    Z = b.g()\n",
        "b.py": "from a import f\ndef g(): return f()\nclass D: pass\n",
    }
    assert unused_names(sources) == ["a.py: C", "a.py: Y", "a.py: Z", "b.py: D"]


def unread_methods(defining: dict[str, str], reading: dict[str, str]) -> list[str]:
    """Non-dunder methods and properties of the module-level classes in
    defining that no source in reading reads as an attribute, as
    "module: Class.name"."""
    read = {
        node.attr
        for source in reading.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, source in defining.items():
        for cls in module_statements(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in read
                ):
                    unread.append(f"{module}: {cls.name}.{node.name}")
    return sorted(unread)


def test_every_method_in_src_is_read_by_src_or_bench():
    # bench counts: its tracer reads applies_to and skipped_count
    assert unread_methods(read_sources("src"), read_sources("src", "bench")) == []


def test_the_check_finds_an_unread_method():
    defining = {
        "a.py": (
            "class C:\n    def __init__(self): pass\n    def used(self): pass\n"
            "    @property\n    def unused(self): pass\n    def _private(self): pass\n"
        ),
    }
    reading = {"a.py": defining["a.py"], "b.py": "from a import C\nC().used()\nx = C.unused\n"}
    assert unread_methods(defining, {"a.py": defining["a.py"]}) == ["a.py: C._private", "a.py: C.unused", "a.py: C.used"]
    assert unread_methods(defining, reading) == ["a.py: C._private"]


def unread_fields(defining: dict[str, str], reading: dict[str, str]) -> list[str]:
    """Fields of the module-level NamedTuples in defining that no source in
    reading reads, as an attribute or as a string constant (how a field is
    looked up by name), as "module: Class.field"."""
    read = set()
    for source in reading.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for module, source in defining.items():
        for cls in module_statements(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(ast.unparse(base).endswith("NamedTuple") for base in cls.bases):
                unread.extend(
                    f"{module}: {cls.name}.{node.target.id}"
                    for node in cls.body
                    if isinstance(node, ast.AnnAssign) and node.target.id not in read
                )
    return sorted(unread)


def test_every_named_tuple_field_in_src_is_read_by_src_or_bench():
    assert unread_fields(read_sources("src"), read_sources("src", "bench")) == []


def test_the_check_finds_an_unread_field():
    defining = {
        "a.py": (
            "from typing import NamedTuple\nimport typing\n"
            "class P(NamedTuple):\n    x: int\n    y: int = 0\n    z: str = ''\n"
            "class Q(typing.NamedTuple):\n    w: int\nclass R:\n    v: int\n"
        ),
    }
    reading = {"b.py": "from a import P, Q\np = P(1)\nprint(p.x, getattr(p, 'z'))\n"}
    assert unread_fields(defining, reading) == ["a.py: P.y", "a.py: Q.w"]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport math as m\nfrom typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from a import B\nm.pi\n"
    assert unused_imports(source) == ["line 1: os", "line 5: B"]


def smellsurv_imports(source: str) -> list[str]:
    """Every import in source, at any depth, of smellsurv or of a module
    relative to its own package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "smellsurv"):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names if alias.name.partition(".")[0] == "smellsurv")
    return found


def test_survival_imports_nothing_from_smellsurv():
    # the statistics read (duration, event observed) pairs, not tracking's records
    source = (ROOT / "src" / "smellsurv" / "survival.py").read_text(encoding="utf-8")
    assert smellsurv_imports(source) == []


def test_the_check_finds_a_smellsurv_import():
    source = (
        "import math\nimport smellsurv.rules\nfrom . import tracking\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .tracking import SurvivalRecord\ndef f():\n    from smellsurv import rules\n"
    )
    assert smellsurv_imports(source) == ["smellsurv.rules", ".", ".tracking", "smellsurv"]


def imported_modules(source: str) -> set[str]:
    """The smellsurv modules that source imports, at any depth, as
    smellsurv_imports finds them, each by its name in the package:
    ``from . import svgplot`` names svgplot, and ``import smellsurv`` the
    package's ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "smellsurv"):
            module = (node.module or "").removeprefix("smellsurv").lstrip(".")
            found.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names = (alias.name for alias in node.names if alias.name.partition(".")[0] == "smellsurv")
            found.update(name.removeprefix("smellsurv").lstrip(".") or "__init__" for name in names)
    return found


def import_cycles(sources: dict[str, str]) -> list[str]:
    """Each module of a smellsurv package that its own imports lead back to,
    as the shortest chain "a → b → a"; sources maps each module's name in the
    package to its source. A name imported from the package that is no module
    there reads as its ``__init__``."""
    graph = {
        module: {name if name in sources else "__init__" for name in imported_modules(source)}
        for module, source in sources.items()
    }
    cycles = []
    for start in sorted(graph):
        chains, seen = [[start]], {start}
        while chains:  # breadth first, so the first chain back is a shortest one
            chain = chains.pop(0)
            ahead = sorted(graph[chain[-1]])
            if start in ahead:
                cycles.append(" → ".join(chain + [start]))
                break
            for module in ahead:
                if module not in seen:
                    seen.add(module)
                    chains.append(chain + [module])
    return cycles


def test_no_smellsurv_module_imports_one_that_imports_it_back():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in (ROOT / "src" / "smellsurv").glob("*.py")}
    assert import_cycles(sources) == []


def test_the_check_finds_an_import_cycle():
    sources = {
        "__init__": "",
        "a": "from .b import x\n",
        "b": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .c import y\n",
        "c": "def f():\n    from smellsurv.a import z\n",
        "d": "from . import a\nimport smellsurv.e\n",
        "e": "from smellsurv import d\n",
    }
    assert import_cycles(sources) == ["a → b → c → a", "b → c → a → b", "c → a → b → c", "d → e → d", "e → d → e"]
    sources.update({"a": "", "d": "from . import default_ruleset\n"})
    assert import_cycles(sources) == []
    sources["__init__"] = "import smellsurv.d\n"
    assert import_cycles(sources) == ["__init__ → d → __init__", "d → __init__ → d"]


def test_only_cli_imports_ingest():
    # ingest loads the version model that tracking owns; the layers after it read
    # that model, not the loader
    found = sorted(module for module, source in read_sources("src").items() if "ingest" in imported_modules(source))
    assert found == ["src/smellsurv/cli.py"]


def files_naming(sources: dict[str, str], texts: set[str]) -> list[str]:
    """The sources that hold one of texts as a whole string literal."""
    return sorted(
        module
        for module, source in sources.items()
        if any(isinstance(node, ast.Constant) and node.value in texts for node in ast.walk(ast.parse(source)))
    )


def test_only_rules_names_a_scope():
    # _RULES owns the scope names; every other module asks scope_of
    assert files_naming(read_sources("src"), {"localized", "scattered"}) == ["src/smellsurv/rules.py"]


def test_the_check_finds_a_string_literal():
    sources = {
        "a.py": 'x = "localized"\n',
        "b.py": '# "scattered"\ny = "scattered scope"\n',
        "c.py": "z = ('scattered',)\n",
    }
    assert files_naming(sources, {"localized", "scattered"}) == ["a.py", "c.py"]


def operand_name(node: ast.expr) -> str | None:
    """An operand's name, read as a name or an attribute."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def split_comparisons(source: str) -> list[int]:
    """The lines of source that compare a first_date with a split, each read
    as a name or an attribute."""
    compares = (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare))
    return [node.lineno for node in compares if {"first_date", "split"} <= {operand_name(n) for n in (node.left, *node.comparators)}]


def test_only_tracking_compares_a_birth_with_the_split():
    # the rule "born before the split is timeframe 1" is written once, in tracking.timeframe_of
    found = [module for module, source in sorted(read_sources("src").items()) if split_comparisons(source)]
    assert found == ["src/smellsurv/tracking.py"]


def test_the_check_finds_a_split_comparison():
    source = (
        "a = r.first_date < split\nb = bundle.split > first_date\nc = r.first_date < r.end_date\n"
        "d = 0 < first_date <= split\ne = first_date < other_split\n"
    )
    assert split_comparisons(source) == [1, 2, 4]


def end_date_checks(source: str) -> list[int]:
    """The lines of source that compare an end_date, read as a name or an
    attribute, with None."""
    compares = (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare))
    operands = ((node.lineno, (node.left, *node.comparators)) for node in compares)
    return [
        line
        for line, nodes in operands
        if "end_date" in map(operand_name, nodes) and any(isinstance(n, ast.Constant) and n.value is None for n in nodes)
    ]


def test_only_tracking_reads_an_event_off_end_date():
    # "an event is a set end_date" is written in tracking; every other module reads r.censored
    found = [module for module, source in sorted(read_sources("src").items()) if end_date_checks(source)]
    assert found == ["src/smellsurv/tracking.py"]


def test_the_check_finds_an_end_date_check():
    source = (
        "a = r.end_date is None\nb = None != end_date\nc = r.end_date < split\n"
        "d = r.first_date is None\ne = (r.end_date is not None)\n"
    )
    assert end_date_checks(source) == [1, 2, 5]


def modules_after(tmp_path: Path, *args: str) -> set[str]:
    """The modules a ``python -S`` child holds once it has imported the cli
    and built its parser (no args) or run main(args) to an exit code 0 or 2
    (a gate's verdict). -S keeps site's own imports out; a module the cli
    loads shows up with or without it."""
    code = (
        "import sys, smellsurv.cli\n"
        "smellsurv.cli.build_parser()\n"
        "code = smellsurv.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
        "print(code, *sys.modules, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    code, *modules = result.stderr.splitlines()[-1].split()
    assert code in ("0", "2"), result.stderr
    return set(modules)


def code_model_manifest(directory: Path) -> Path:
    """App beta's three code-model versions, and no PMD report; returns the manifest."""
    models = ROOT / "tests" / "data" / "triapp" / "models"
    rows = ["app,version,timestamp,report_path,lloc"]
    for version, date in (("0.9", "2019-06-01"), ("1.0", "2019-12-01"), ("1.1", "2020-06-01")):
        (directory / f"beta-{version}.json").write_bytes((models / f"beta-{version}.json").read_bytes())
        rows.append(f"beta,{version},{date},beta-{version}.json,8000")
    manifest = directory / "models.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


def test_the_cli_imports_none_of_the_modules_it_does_not_need(tmp_path):
    unneeded = {
        # dataclasses pulls in inspect, ast and dis: about a fifth of a gate run
        "dataclasses", "inspect",
        # these cost about 30 ms of start-up on every command, gate included;
        # xml.sax.saxutils is one module that pulls them in
        "urllib.request", "http.client", "email",
        # every path is a str named as written; pathlib would also load urllib.parse
        "pathlib", "urllib.parse",
    }
    # each of these is loaded by the one function that runs it, so a command
    # pays only for what its input and formats need
    deferred = {"json", "pyexpat", "tempfile", "smellsurv.svgplot"}
    # reports are read with expat alone; xml.etree and its ElementPath were
    # loaded on every command, gate and set-up included
    setup = modules_after(tmp_path)
    assert sorted(m for m in setup if m in unneeded | deferred or m.startswith("xml.etree")) == []

    # a PMD gate reads XML and writes no JSON and no file
    gate = modules_after(tmp_path, "gate", "--manifest", str(write_no_smell_history(tmp_path)))
    assert sorted(gate & (unneeded | {"json", "tempfile", "smellsurv.svgplot"})) == []
    assert "pyexpat" in gate

    # a code-model analyze without charts reads no XML and draws nothing
    manifest = str(code_model_manifest(tmp_path))
    analyze = modules_after(tmp_path, "analyze", "--manifest", manifest, "--formats", "csv,json", "--out", "out")
    assert sorted(analyze & (unneeded | {"pyexpat", "smellsurv.svgplot"})) == []
    assert {"json", "tempfile"} <= analyze


def test_a_run_that_draws_charts_loads_the_chart_module(tmp_path):
    manifest = str(code_model_manifest(tmp_path))
    assert "smellsurv.svgplot" in modules_after(tmp_path, "analyze", "--manifest", manifest, "--formats", "svg", "--out", "out")


def compile_strictly(source: str, filename: str) -> None:
    """Compile source with every SyntaxWarning raised as an error. pytest's
    assertion rewriting moves an assert's operands into temporaries before
    compiling, so ``-W error::SyntaxWarning`` never sees an ``is`` against a
    literal inside a test's assert; compiling the text itself does."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        compile(source, filename, "exec")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_syntax_warning(path):
    compile_strictly(path.read_text(encoding="utf-8"), str(path))


def test_the_check_finds_an_is_against_a_literal_in_an_assert():
    with pytest.raises(SyntaxError, match="literal"):
        compile_strictly('x = "a"\nassert x is "a"\n', "snippet.py")
