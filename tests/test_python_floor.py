"""The sources parse as Python 3.10, the floor that pyproject.toml declares
in requires-python, whichever newer interpreter runs the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/qturan/*.py")) + sorted(ROOT.glob("tests/*.py"))


def test_the_floor_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_a_3_11_feature_is_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
