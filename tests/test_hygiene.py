"""Source hygiene: no unused imports, a public API that resolves, a CLI
that leaves every per-method decision to the codec records, and record
fields stored in one place.

The unused-import scan reads each module's AST: a name an import binds
counts as used when a Name node, the root of an attribute chain, or a
quoted annotation mentions it.  Package `__init__.py` files re-export
their imports and `from __future__` imports bind nothing, so neither is
scanned.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdzip
from pdzip.container import METHODS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pdzip").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _bound_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "SparsePayload"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _bound_names(tree)
            if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nfrom fractions import Fraction as F\n"
           "def f(x: 'F'):\n    return os.path.join(x)\n")
    assert unused_imports(src) == [("math", 2)]


def cli_method_knowledge(source: str) -> list[str]:
    """What a CLI source decides per method itself: each package module it
    imports other than container and core, and each comparison with a
    method name literal as an operand (or inside one, as in a tuple)."""
    names = {m.name for m in METHODS.values()}
    found = []
    for node in ast.walk(ast.parse(source)):
        modules = []
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:  # an absolute import: pdzip's modules only
                if base.split(".")[0] != "pdzip":
                    continue
                base = base.removeprefix("pdzip").lstrip(".")
            modules = ([base.split(".")[0]] if base
                       else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            modules = [alias.name.partition(".")[2] or alias.name
                       for alias in node.names
                       if alias.name.split(".")[0] == "pdzip"]
        elif isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                found += [f"line {node.lineno} compares with {sub.value!r}"
                          for sub in ast.walk(operand)
                          if isinstance(sub, ast.Constant) and sub.value in names]
        found += [f"line {node.lineno} imports {module}" for module in modules
                  if module not in ("container", "core")]
    return found


def test_cli_leaves_methods_to_the_records():
    source = (ROOT / "src" / "pdzip" / "cli.py").read_text(encoding="utf-8")
    assert cli_method_knowledge(source) == []


def test_scan_finds_method_knowledge():
    src = ("from . import container as cont, treecode\nfrom .core import entropy\n"
           "from .refine import compress_refined\nimport pdzip.sparse\n"
           "from pdzip.core import parse_distribution\nimport os.path\n"
           "if m in ('tree', 'refine') or 'sparse' != m or m == 'trees':\n"
           "    pass\n")
    assert sorted(cli_method_knowledge(src)) == [
        "line 1 imports treecode", "line 3 imports refine",
        "line 4 imports sparse", "line 7 compares with 'refine'",
        "line 7 compares with 'sparse'", "line 7 compares with 'tree'"]


def raw_object_access(source: str, module: str) -> list[str]:
    """'scope: object.name' for each mention of object.__setattr__ or
    object.__new__, scope the module and the classes and functions around
    it, dotted."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "object"
                    and child.attr in ("__setattr__", "__new__")):
                found.append(f"{scope}: object.{child.attr}")
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


# Record.__init__ stores every record's fields and Record._trusted is the
# one constructor that skips a subclass's checks; Record._cache fills the
# caches of lazy properties
RAW_OBJECT_ACCESS = {"core.Record.__init__: object.__setattr__",
                     "core.Record._trusted: object.__new__",
                     "core.Record._cache: object.__setattr__"}


def test_records_store_fields_in_one_place():
    found = []
    for path in sorted((ROOT / "src" / "pdzip").glob("*.py")):
        found += raw_object_access(path.read_text(encoding="utf-8"), path.stem)
    assert [f for f in found if f not in RAW_OBJECT_ACCESS] == []


def test_scan_finds_raw_object_access():
    src = ("class A:\n"
           "    def __init__(self):\n"
           "        object.__setattr__(self, 'x', 1)\n"
           "    @classmethod\n"
           "    def make(cls):\n"
           "        return object.__new__(cls)\n"
           "def f(o):\n"
           "    store = object.__setattr__\n"
           "    return object.__getattribute__(o, 'x'), setattr(o, 'x', 2)\n")
    assert raw_object_access(src, "m") == [
        "m.A.__init__: object.__setattr__", "m.A.make: object.__new__",
        "m.f: object.__setattr__"]


def test_public_names_resolve_once():
    names = pdzip.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(pdzip, name) is not None


def test_reimport_frees_the_old_modules():
    # nothing built at import time may keep a module alive after it is
    # re-imported; a typing.Union alias did, through typing's cache
    script = (
        "import gc, importlib, pkgutil, sys\n"
        "import pdzip\n"
        "names = [m.name for m in pkgutil.iter_modules(pdzip.__path__, 'pdzip.')]\n"
        "del pdzip\n"
        "for _ in range(3):\n"
        "    for name in [m for m in sys.modules if m.startswith('pdzip')]:\n"
        "        del sys.modules[name]\n"
        "    for name in names:\n"
        "        importlib.import_module(name)\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, type) and o.__module__.startswith('pdzip')\n"
        "          and o.__name__ == 'ProbabilityDistribution'\n"
        "          for o in gc.get_objects()))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["1"]


def test_cli_import_leaves_out_dataclasses_and_typing():
    # a fresh `pdzip` command pays for every module it imports: with
    # dataclasses (which imports inspect) and typing, `import pdzip.cli`
    # took 87 ms under -S on CPython 3.11.7 with no cached bytecode, and
    # 60 ms without them.  Under -S, site's own imports do not hide them
    script = ("import sys, pdzip.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'typing'}"
              " & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.split() == ["[]"]


def test_fresh_import_holds_little_memory():
    # each fresh import pdzip holds its modules and tables until a full
    # collection frees the copy it replaced, so a 65 536-entry list built
    # at import (or at the first index) shows here: with the word tables
    # as lists a copy held about 1.9 MiB, as bytes about 0.6 MiB, and with
    # the byte tables as bytes too and no per-byte bit tuples, 0.54 MiB.
    # With slotted records in place of dataclasses a copy holds 478 KiB on
    # CPython 3.11.7 (528 KiB with the nine dataclasses); the bound leaves
    # about 10% headroom and is below the dataclass figure, so a figure
    # from another interpreter version may need a new bound
    script = (
        "import gc, sys, tracemalloc\n"
        "import pdzip\n"
        "for name in [m for m in sys.modules if m.startswith('pdzip')]:\n"
        "    del sys.modules[name]\n"
        "del pdzip\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "import pdzip\n"
        "shape = pdzip.StrictTreeShape((1, 2, 2))\n"
        "assert pdzip.SuccinctTreeIndex.from_tree_shape(shape).query_prob(3) == 0.25\n"
        "del shape\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0])\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert int(out) < 525 << 10
