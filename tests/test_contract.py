"""The scenario contract is decided in one module: input errors are raised only there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orbcheck"

OWNERS = {
    "ParseError": "scenario.py",
    "MissingSection": "scenario.py",
    "ShapeMismatch": "scenario.py",
    "UnknownPipeline": "scenario.py",
    "UnknownCatalogEntry": "catalog.py",
}


def raised(source: str) -> list[tuple[int, str]]:
    """(line, exception name) of every raise statement that names its exception."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            out.append((node.lineno, name))
    return out


def test_raise_detection():
    source = "def f(x):\n    raise ParseError(1, 'x')\n\ndef g():\n    raise errors.MissingSection\n\ndef h():\n    raise\n"
    assert raised(source) == [(2, "ParseError"), (5, "MissingSection")]


def test_each_owner_raises_its_errors():
    for name, owner in OWNERS.items():
        assert name in {n for _, n in raised((SRC / owner).read_text(encoding="utf-8"))}, name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_input_errors_raised_only_by_their_owner(path):
    found = raised(path.read_text(encoding="utf-8"))
    assert [f"line {ln}: {name}" for ln, name in found if OWNERS.get(name, path.name) != path.name] == []
