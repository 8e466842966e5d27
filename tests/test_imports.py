"""Every name a module under src/orbcheck imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orbcheck"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations and __all__ entries name what they use as strings
    used |= {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
    }
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_import_is_detected():
    source = "import os\nimport numpy as np\nfrom typing import List, Optional\nx: List = np.zeros(1)\ny: 'Optional' = None\n"
    assert unused_imports(source) == ["line 1: os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
