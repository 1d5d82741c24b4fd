"""Every name a source imports is read somewhere in it.  A name listed in
the module's __all__ counts as read, and so does a __future__ import."""

import ast

import pytest

from test_python_floor import SOURCES


def unused_imports(source):
    """The names bound by import statements of source that no expression
    loads, in order of first import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import comb, sqrt as root\n"
        "from typing import Iterator\n"
        "__all__ = ['Iterator']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == ["comb (line 3)", "root (line 3)"]
