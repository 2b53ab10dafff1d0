"""Smoke test: the quick demos run to completion from the repository root.

Demo 04 trains a model for about 20 s, so it is left to be run by hand;
every demo's imports from slotie are still checked against the package,
and the package's own modules against imports they never use.
"""

import ast
import importlib
import os
import subprocess
import sys
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
