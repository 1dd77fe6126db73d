"""Every name a module of legfol or of its tests imports is used there.

A name counts as used when it appears as a name or as the head of an
attribute chain anywhere in the module, string annotations included.  `from
__future__` imports bind no name and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "legfol").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _annotations(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation] if node.annotation else []
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations such as "_forms.DiffForm"
    for node in ast.walk(tree):
        for ann in _annotations(node):
            for const in ast.walk(ann):
                if isinstance(const, ast.Constant) \
                        and isinstance(const.value, str):
                    inner = ast.parse(const.value, mode="eval")
                    used |= {n.id for n in ast.walk(inner)
                             if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(
        bound.items(), key=lambda item: item[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import numpy as np\n"
              "from a.b import c, d as e\n"
              "x: 'np.ndarray' = c\n"
              "y = 'e'\n")
    assert unused_imports(source) == ["line 2: os", "line 2: osp",
                                      "line 4: e"]
