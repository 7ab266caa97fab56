"""Every module-level import in src/ and tests/ is used, and so is every
module-level name defined in src/.

No linter runs in CI, so this walks each file's syntax tree instead: a name
bound by an import at module level (including under a module-level ``if`` or
``try``) must be read somewhere in the same file, and a function, class or
variable defined at module level in src/ must be read somewhere in src/.

Every command pays for what the CLI imports, so the heavy modules it does not
need are pinned out of it too. And every file in src/, tests/ and bench/
compiles without a SyntaxWarning, such as an ``is`` against a literal.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

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
    # ChangeRates is written whole, each field under its own name, through _asdict()
    unread = unread_fields(read_sources("src"), read_sources("src", "bench"))
    assert [name for name in unread if not name.startswith("src/smellsurv/anomaly.py: ChangeRates.")] == []


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


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast and dis: about a fifth of a gate run
    code = "import sys, smellsurv.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


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
