"""Smoke test: the quick demos run to completion from the repository root.

Demo 04 trains a model for about 20 s, so it is left to be run by hand;
every demo's imports from slotie are still checked against the package,
and the package's own modules against imports they never use, against
module-level names and methods that nothing reads, and against a fork
outside ``worker.py``.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_masks_and_alignment.py",
        "02_matching_loss.py",
        "03_synthetic_corpus.py",
        "05_benchmark_scorers.py",
    ],
)
def test_demo_exits_zero(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_exist(demo):
    tree = ast.parse((ROOT / "demos" / demo).read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "slotie"
        for alias in node.names
    ]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{demo} imports names slotie lacks: {missing}"


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (ROOT / "src" / "slotie").glob("*.py") if p.name != "__init__.py")
)
def test_module_imports_are_used(module):
    source = (ROOT / "src" / "slotie" / module).read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        and not any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_only_the_worker_module_forks():
    """No module imports ``multiprocessing``, and only ``worker.py`` calls
    ``os.fork``: the package has one worker lifecycle."""
    imports, forks = [], []
    for path in sorted((ROOT / "src" / "slotie").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [path.name for alias in node.names
                            if alias.name.split(".")[0] == "multiprocessing"]
            elif isinstance(node, ast.ImportFrom):
                imports += [path.name] * ((node.module or "").split(".")[0] == "multiprocessing")
                forks += [path.name for alias in node.names
                          if node.module == "os" and alias.name == "fork"]
            elif (isinstance(node, ast.Attribute) and node.attr == "fork"
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                forks.append(path.name)
    assert imports == []
    assert forks == ["worker.py"]


def _references(tree: ast.AST) -> list[str]:
    """Every name ``tree`` reads, attribute it reads, and name it imports."""
    return [
        name
        for node in ast.walk(tree)
        for name in (
            [node.id] if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
    ]


def _parsed():
    """The package's parsed modules, and a count of every name read in the
    package, the tests, the demos or the benchmark."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "tests", "demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    references = Counter(name for tree in trees.values() for name in _references(tree))
    package = {path: tree for path, tree in trees.items() if path.parent == ROOT / "src" / "slotie"}
    return package, references


def test_module_level_names_are_referenced():
    """Every module-level function, class and UPPER_CASE constant of the
    package is read somewhere outside its own definition: in the package,
    the tests, the demos or the benchmark."""
    package, references = _parsed()
    unreferenced = []
    for path, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [(node.name, node)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(t.id, node) for t in targets
                           if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)]
            else:
                defined = []
            for name, definition in defined:
                if references[name] == _references(definition).count(name):
                    unreferenced.append(f"{path.name}:{name}")
    assert not unreferenced, f"module-level names nothing reads: {unreferenced}"


def test_methods_are_referenced():
    """Every method and property of a module-level package class, dunders
    aside, is read somewhere outside its own definition.  A class built
    inside a function (the YAML loader) only overrides hooks its library
    calls, so it is left out."""
    package, references = _parsed()
    unreferenced = [
        f"{path.name}:{cls.name}.{node.name}"
        for path, tree in package.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not re.fullmatch(r"__\w+__", node.name)
        and references[node.name] == _references(node).count(node.name)
    ]
    assert not unreferenced, f"methods nothing reads: {unreferenced}"
