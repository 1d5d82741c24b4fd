"""Every name a source imports is read somewhere in it.  A name listed in
the module's __all__ counts as read, and so does a __future__ import.
Every private function, class and method of the package is read somewhere
in the package outside its own definition, and so is every public
module-level name, and every public method, classmethod and property of a
public class, in the package or the benchmark; a name only the tests call
lives in tests/helpers.py or tests/oracles.py.  Every name a module of
the package exports in __all__ exists in it, and is not one it imports
from another module of the package.  Each CLI subcommand loads only the
package modules it runs, and no dataclasses, and the package root loads
none and serves no names."""

import ast
import importlib
import os
import subprocess
import sys
import types

import pytest

from test_python_floor import ROOT, SOURCES


def listed_in_all(tree):
    """The strings the module's __all__ lists; a computed part, such as
    *names, adds none."""
    return [
        c.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for c in ast.walk(node.value)
        if isinstance(c, ast.Constant)
    ]


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
    read.update(listed_in_all(tree))
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
        "__all__ = ['Iterator', *sorted(os.environ)]\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == ["comb (line 3)", "root (line 3)"]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def unused_private_names(sources):
    """The private module-level functions and classes, and the private
    methods, of the sources (a dict from file name to text) that no
    expression outside their own definition loads, as an ast.Name or an
    ast.Attribute, in any of the sources."""
    loads = []
    defined = []
    for file, source in sources.items():
        tree = ast.parse(source)
        loads += [
            (node.id if isinstance(node, ast.Name) else node.attr, node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        ]
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node] + [m for m in methods if isinstance(m, FUNCTIONS)]:
                if isinstance(item, (*FUNCTIONS, ast.ClassDef)) and _is_private(item.name):
                    defined.append((file, item))
    unused = []
    for file, item in defined:
        inside = {id(n) for n in ast.walk(item)}
        if not any(name == item.name and id(node) not in inside for name, node in loads):
            unused.append(f"{file}: {item.name} (line {item.lineno})")
    return unused


def test_no_unused_private_name():
    package = sorted((ROOT / "src" / "qturan").glob("*.py"))
    assert unused_private_names({p.name: p.read_text() for p in package}) == []


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a.py": (
            "def _walk(n):\n"
            "    return _walk(n - 1) if n else 0\n"
            "def _used():\n"
            "    return 1\n"
            "class _Kept:\n"
            "    def _twice(self):\n"
            "        return self._twice()\n"
            "    def _read(self):\n"
            "        return 2\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "class _Dropped:\n"
            "    pass\n"
        ),
        "b.py": "from a import _used, _Kept\nprint(_used(), _Kept()._read)\n",
    }
    assert unused_private_names(sources) == [
        "a.py: _walk (line 1)",
        "a.py: _twice (line 6)",
        "a.py: _Dropped (line 12)",
    ]


def _top_level_names(node):
    """The names a statement of a module body defines: a function's or a
    class's, or the plain names an assignment binds."""
    if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unused_public_names(sources, readers):
    """The public module-level functions, classes and constants of the
    sources (dicts from file name to text), and the public methods,
    classmethods and properties of their public classes, that no expression
    outside their own definition loads, in the sources or the readers.

    A module-level name is read by an ast.Name or an ast.Attribute load, a
    method by an ast.Attribute load.  A bare name in a file that defines
    the same name at its top level is that file's own, so it reads no other
    file's.  An attribute of a name that is a class of the sources, such as
    Shape.square or a.Shape.square, reads that class's member only.  A
    name's string in __all__ is not a read."""
    trees = {file: ast.parse(source) for file, source in sources.items()}
    # each load with the name of its source file (None in a reader) and
    # the top-level names of its file
    loads = []
    for file, tree in [*trees.items(), *((None, ast.parse(source)) for source in readers.values())]:
        own = {name for node in tree.body for name in _top_level_names(node)}
        loads += [
            (file, own, node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        ]
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    defined = []
    for file, tree in trees.items():
        for node in tree.body:
            defined += [(file, name, None, node) for name in _top_level_names(node) if not name.startswith("_")]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined += [
                    (file, item.name, node.name, item)
                    for item in node.body
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_")
                ]

    def reads(load, name, cls, at, file, own):
        if isinstance(load, ast.Attribute):
            owner = getattr(load.value, "id", getattr(load.value, "attr", None))
            return load.attr == name and (owner not in classes or owner == cls)
        return cls is None and load.id == name and (at == file or name not in own)

    unused = []
    for file, name, cls, item in defined:
        inside = {id(n) for n in ast.walk(item)}
        if not any(reads(load, name, cls, at, file, own) for at, own, load in loads if id(load) not in inside):
            unused.append(f"{file}: {name}" if cls is None else f"{file}: {cls}.{name}")
    return unused


def test_no_unread_public_name():
    """A public name of the package that nothing in it or in the benchmark
    reads belongs with the tests that call it."""
    package = sorted((ROOT / "src" / "qturan").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert unused_public_names({p.name: p.read_text() for p in package}, {p.name: p.read_text() for p in bench}) == []


def test_the_check_sees_an_unread_public_name():
    sources = {
        "a.py": (
            "__all__ = ['walk', 'Kept', 'LIMIT', 'Dropped']\n"
            "LIMIT = 3\n"
            "SCALE: int = 2\n"
            "def walk(n):\n"
            "    return walk(n - 1) if n else 0\n"
            "def used():\n"
            "    return LIMIT\n"
            "def parse(text):\n"
            "    return text\n"
            "class Kept:\n"
            "    pass\n"
            "class Dropped:\n"
            "    pass\n"
        ),
        "b.py": "from a import used\nprint(used())\n",
    }
    # r.py calls its own parse, which reads nothing of a.py's
    readers = {"r.py": "import a\nprint(a.Kept)\ndef parse(text):\n    return text\nparse('x')\n"}
    assert unused_public_names(sources, readers) == ["a.py: SCALE", "a.py: walk", "a.py: parse", "a.py: Dropped"]


def test_the_check_sees_an_unread_method():
    sources = {
        "a.py": (
            "class Tile:\n"
            "    @classmethod\n"
            "    def square(cls):\n"
            "        return cls()\n"
            "class Shape:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def area(self):\n"
            "        return self.area()\n"
            "    def _scale(self):\n"
            "        return 1\n"
            "    @classmethod\n"
            "    def square(cls):\n"
            "        return cls()\n"
            "    @classmethod\n"
            "    def empty(cls):\n"
            "        return cls()\n"
            "    @property\n"
            "    def sides(self):\n"
            "        return 4\n"
            "    @property\n"
            "    def name(self):\n"
            "        return 'shape'\n"
            "    def draw(self):\n"
            "        return None\n"
            "class _Hidden:\n"
            "    def unread(self):\n"
            "        return None\n"
            "def draw():\n"
            "    return Shape.square().sides\n"
        ),
    }
    # a bare name draw is the function, not the method; Shape.square is not
    # Tile's
    readers = {"r.py": "from a import Shape, Tile, _Hidden, draw\nprint(draw(), Shape().name, Tile, _Hidden)\n"}
    assert unused_public_names(sources, readers) == [
        "a.py: Tile.square",
        "a.py: Shape.area",
        "a.py: Shape.empty",
        "a.py: Shape.draw",
    ]


def missing_exports(module):
    """The names of module.__all__ that the module does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize(
    "name", ["qturan"] + [f"qturan.{p.stem}" for p in sorted((ROOT / "src" / "qturan").glob("*.py")) if p.stem != "__init__"]
)
def test_every_export_resolves(name):
    assert missing_exports(importlib.import_module(name)) == []


def test_the_check_sees_a_stale_export():
    module = types.ModuleType("synthetic")
    exec("__all__ = ['kept', 'removed', 'Gone']\ndef kept():\n    return 1\n", module.__dict__)
    assert missing_exports(module) == ["removed", "Gone"]


def reexports(source):
    """The names source lists in __all__ that it imports from another
    module of the package, by a relative import."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    return [name for name in listed_in_all(tree) if name in imported]


# cube's names that construction still exports, because bench/tracing.py
# reads them there, until the benchmark change that reads them from cube
TRACER_READS = {"construction.py": ["edge_count", "edge_pairs", "format_layer_graph", "parse_layer_graph"]}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "qturan").glob("*.py")), ids=lambda p: p.name)
def test_each_export_has_one_home(path):
    assert reexports(path.read_text()) == TRACER_READS.get(path.name, [])


def test_the_check_sees_a_reexport():
    source = (
        "from . import cube\n"
        "from .cube import LayerId, edge_pairs as pairs\n"
        "from math import comb\n"
        "__all__ = ['comb', 'pairs', 'LayerId', 'build', 'cube']\n"
        "def build():\n"
        "    return LayerId\n"
    )
    assert reexports(source) == ["pairs", "LayerId", "cube"]


def test_the_root_serves_no_names():
    """Its source is a docstring and __version__, with no __getattr__; a
    name is imported from its module."""
    import qturan

    tree = ast.parse((ROOT / "src" / "qturan" / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert [ast.unparse(node) for node in tree.body[1:]] == [f"__version__ = {qturan.__version__!r}"]


# A fresh interpreter runs cli.main on its arguments and prints, last, the
# exit code, whether dataclasses was loaded, and the qturan modules it loaded.
FOOTPRINT = (
    "import sys\n"
    "from qturan import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, 'dataclasses' in sys.modules, *sorted(m for m in sys.modules if m.split('.')[0] == 'qturan'))\n"
)


def loaded_modules(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )
    code, dataclasses, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), dataclasses == "True", {m.removeprefix("qturan.") for m in modules}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A layer file, an edge list and a coloring of Q_6 on disk."""
    from qturan import construction, cube

    from helpers import format_coloring, format_edge_list, monochromatic_certificate

    work = tmp_path_factory.mktemp("footprint")
    g = construction.build_layer_graph(construction.sample_assignment(6, 3, 0))
    (work / "layer.txt").write_text(cube.format_layer_graph(g))
    (work / "edges.txt").write_text(format_edge_list(6, list(cube.edge_pairs(g))))
    (work / "coloring.txt").write_text(format_coloring(monochromatic_certificate(6)))
    return work


ROOT_AND_CLI = {"qturan", "cli", "cube", "record"}
SAMPLER = {"gf2", "construction"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["verify", "layer.txt", "--target", "c6"], {"detector"}),
        (["verify", "edges.txt", "--target", "c10"], {"detector"}),
        (["construct", "--n", "6", "--r", "3", "--out", "out"], SAMPLER | {"bounds"}),
        (["pipeline", "--n", "6"], SAMPLER | {"bounds"}),
        (["pipeline", "--n", "6", "--coloring-rule", "rank"], SAMPLER | {"bounds", "detector"}),
        (["pipeline", "--n", "6", "--coloring", "coloring.txt"], SAMPLER | {"bounds", "detector"}),
        (["stats", "--r", "2", "--trials", "10"], SAMPLER),
    ],
    ids=["verify layer", "verify edges", "construct", "pipeline", "pipeline rank", "pipeline coloring", "stats"],
)
def test_a_subcommand_loads_only_what_it_runs(cli_inputs, argv, modules):
    code, dataclasses, loaded = loaded_modules(*argv, cwd=cli_inputs)
    assert code in (0, 1)
    assert loaded == ROOT_AND_CLI | modules
    assert not dataclasses


def test_importing_the_package_loads_no_submodule(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = "import sys, qturan\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'qturan'))\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.stdout.split() == ["qturan"]


class TestPackageRoot:
    def test_an_unknown_name_is_an_attribute_error(self):
        import qturan

        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            qturan.not_a_name
        assert not hasattr(qturan, "edge_key")

    def test_a_submodule_still_imports_by_name(self):
        from qturan import cli

        assert cli.main.__module__ == "qturan.cli"
