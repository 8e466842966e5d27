"""Every name a module under src/orbcheck imports is used in that module,
and no module imports numpy when it is itself imported."""

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


def import_time_modules(source: str) -> list[str]:
    """Top-level packages a module imports when it is itself imported:
    every import outside a function body (class bodies run at import)."""
    found = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.append(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return sorted(set(found))


def test_import_time_numpy_is_detected():
    source = (
        "import math\n"
        "def f():\n    import numpy as np\n"
        "class A:\n    from numpy import linalg\n"
        "try:\n    import scipy.sparse\nexcept ImportError:\n    pass\n"
        "from .errors import ParseError\n"
    )
    assert import_time_modules(source) == ["math", "numpy", "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_only_inside_functions(path):
    # the seifert and quotient suites never load numpy, and the taut
    # suite loads it on first use
    assert "numpy" not in import_time_modules(path.read_text(encoding="utf-8"))


def numpy_imports(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every import of numpy, at any depth."""
    found = []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(ast.parse(source), None)
    return found


def test_numpy_import_detection():
    source = "import numpy\ndef f():\n    from numpy.linalg import svd\n    def g():\n        import numpy as np\n"
    assert numpy_imports(source) == [(None, 1), ("f", 3), ("g", 5)]


def test_numpy_is_imported_only_by_the_transverse_kahler_check():
    # the one line to delete when the positivity check turns exact
    found = [
        (path.name, where)
        for path in sorted(SRC.glob("*.py"))
        for where, _ in numpy_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == [("foliated.py", "transverse_kahler_check")]


ROOT = SRC.parent.parent


def raised_names(source: str) -> set:
    """Names of what a module's raise statements raise."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names


def referenced_names(source: str) -> set:
    """Every name a module reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def probe_names(source: str) -> set:
    """The dotted parts of every string in a module: the benchmark's span
    table names the functions it wraps as "Class.method" strings."""
    return {
        part
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
        if part.isidentifier()
    }


def defined_names(source: str) -> set:
    """A module's top-level functions and classes, and the methods of its
    classes as "Class.method".  Dunder methods are left out: the language
    calls them, not a name in the code."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            }
    return names


def test_dead_code_guards_detect_what_they_look_for():
    assert raised_names("raise A('x')\nraise m.B\nraise\n") == {"A", "B"}
    source = "def f(): pass\nclass A:\n    x = 1\n    def __eq__(s, o): pass\n    def m(s): pass\n"
    assert defined_names(source) == {"f", "A", "A.m"}
    assert referenced_names("import os\nfrom a import b as c\nx.y(z)\n") == {"os", "b", "x", "y", "z"}
    assert probe_names("T = [('a.b', 'Cls.meth', 1)]\n") == {"a", "b", "Cls", "meth"}


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"OrbcheckError"}
    raised = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")))
    assert sorted(declared - raised) == []


def test_every_module_level_definition_is_referenced():
    # a method counts as used when its own name is read anywhere
    defined = {(path.name, name) for path in SRC.glob("*.py") for name in defined_names(path.read_text(encoding="utf-8"))}
    sources = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in sources))
    used |= probe_names((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    assert sorted(f"{module}: {name}" for module, name in defined if name.split(".")[-1] not in used) == []
