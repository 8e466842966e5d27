"""Contracts decided in one place: input errors are raised only by their
owner module, every number in a scenario file is read by
``scenario.parse_number``, a key left over in any scenario block is
rejected by one check, every scenario record is a named tuple, a pivot column enters an echelon only through
``linalg.insert``, floats start only where the taut suite hands numbers
to numpy, the quotient suite makes no walk whose result it already
knows, every permutation sign is ``linalg.sort_sign``, every distance
decision is ``atlas.Ball.meets``, and the Seifert suite's gluing walk is
eager: no function in ``frame_bundle`` yields."""

import ast
import inspect
from pathlib import Path

import pytest

from orbcheck import linalg

SRC = Path(__file__).resolve().parent.parent / "src" / "orbcheck"

OWNERS = {
    "ParseError": "scenario.py",
    "MissingSection": "scenario.py",
    "ShapeMismatch": "scenario.py",
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


def _names_pivots(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "pivots") or (
        isinstance(node, ast.Attribute) and node.attr == "pivots"
    )


def located(source: str, hit) -> list[tuple[str, int]]:
    """(enclosing function, line) of every node for which hit is true."""
    out = []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if hit(node):
            out.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(ast.parse(source), None)
    return out


def _stores_pivot(node) -> bool:
    """An item assignment into a dict named ``pivots``, or a call of its
    update, setdefault or __setitem__."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and _names_pivots(node.value):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("update", "setdefault", "__setitem__")
        and _names_pivots(node.func.value)
    )


def _numeric_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _converts_text(node) -> bool:
    """A call of int, float or Fraction on anything but numeric literals."""
    if not isinstance(node, ast.Call):
        return False
    name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
    return name in ("int", "float", "Fraction") and not all(map(_numeric_literal, node.args))


def keyword_calls(source: str, keyword: str) -> list[int]:
    """Lines of every call that passes the keyword argument."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and any(k.arg == keyword for k in node.keywords)
    ]


def test_pivot_store_and_keyword_detection():
    source = (
        "def f(pivots, b):\n    pivots[1] = 2\n    b.pivots.update({})\n    x = pivots[1]\n"
        "    def g(p):\n        p[1] = 2\n        b.pivots[3] += 1\n    reduce(x, lead=True)\n"
    )
    assert located(source, _stores_pivot) == [("f", 2), ("f", 3), ("g", 7)]
    assert keyword_calls(source, "lead") == [8]


def test_conversion_detection():
    source = (
        "def f(t):\n    a = Fraction(1), Fraction(-1), int(2.5)\n    return int(t)\n"
        "def g(t):\n    return fractions.Fraction(t, 2), float(t.strip())\n"
    )
    assert located(source, _converts_text) == [("f", 3), ("g", 5), ("g", 5)]


def test_scenario_reads_every_number_in_one_routine():
    # the one exception: [check taut] tol is a float, read by _check_tol
    found = located((SRC / "scenario.py").read_text(encoding="utf-8"), _converts_text)
    assert {where for where, _ in found} == {"parse_number", "_check_tol"}, found
    assert sum(where == "_check_tol" for where, _ in found) == 1, found


def _raises_unknown_key(node) -> bool:
    """A raise statement whose exception holds the text "unknown key"."""
    return isinstance(node, ast.Raise) and node.exc is not None and any(
        isinstance(n, ast.Constant) and isinstance(n.value, str) and "unknown key" in n.value for n in ast.walk(node.exc)
    )


def test_unknown_key_detection():
    source = (
        "def f(kv, k):\n    if kv:\n        raise ParseError(1, f'unknown key {k!r}')\n"
        "    def g():\n        raise ParseError(2, 'unknown key ' + k)\n    raise ParseError(3, 'unknown block')\n"
    )
    assert located(source, _raises_unknown_key) == [("f", 3), ("g", 5)]


def test_scenario_rejects_unknown_keys_in_one_place():
    # one check after the block dispatch, not one per kind of block
    found = located((SRC / "scenario.py").read_text(encoding="utf-8"), _raises_unknown_key)
    assert [where for where, _ in found] == ["parse_scenario"], found


def _plain_class(node) -> bool:
    """A class statement whose one base is not NamedTuple."""
    return isinstance(node, ast.ClassDef) and [ast.unparse(b) for b in node.bases] not in (["NamedTuple"], ["typing.NamedTuple"])


def test_plain_class_detection():
    source = "class A(NamedTuple):\n    x: int\n\nclass B:\n    __slots__ = ()\n\nclass C(A, tuple):\n    pass\n"
    assert located(source, _plain_class) == [(None, 4), (None, 7)]


def test_scenario_records_are_named_tuples():
    # each record is built once, at the end of its block: no __init__, no slots to fill
    assert located((SRC / "scenario.py").read_text(encoding="utf-8"), _plain_class) == []


def _is_float(node) -> bool:
    """The name float, or a float literal."""
    return (isinstance(node, ast.Name) and node.id == "float") or (
        isinstance(node, ast.Constant) and type(node.value) is float
    )


def _calls_float(node) -> bool:
    return isinstance(node, ast.Call) and _is_float(node.func)


def test_float_detection():
    source = "def f(x: float = 0.5):\n    return float(x), 1e-9, 2, '0.5'\n"
    assert located(source, _is_float) == [("f", 1), ("f", 1), ("f", 2), ("f", 2)]
    assert located(source, _calls_float) == [("f", 2)]


@pytest.mark.parametrize("module", ["polyform.py", "linalg.py"])
def test_exact_kernels_hold_no_float(module):
    # a value is an int until a division or a rational input makes it a Fraction
    assert located((SRC / module).read_text(encoding="utf-8"), _is_float) == []


def test_polyform_converts_no_coefficient():
    assert located((SRC / "polyform.py").read_text(encoding="utf-8"), _converts_text) == []


def test_floats_are_made_only_at_numpy_and_the_tolerance():
    calls = {
        (path.name, where)
        for path in sorted(SRC.glob("*.py"))
        for where, _ in located(path.read_text(encoding="utf-8"), _calls_float)
    }
    assert calls == {("foliated.py", "transverse_kahler_check"), ("scenario.py", "_check_tol")}, calls


def test_only_linalg_insert_stores_a_pivot_column():
    stores = [
        f"{path.name}:{line} in {where}"
        for path in sorted(SRC.glob("*.py"))
        for where, line in located(path.read_text(encoding="utf-8"), _stores_pivot)
    ]
    assert len(stores) == 1 and stores[0].startswith("linalg.py:") and stores[0].endswith(" in insert"), stores


def test_reduction_has_one_mode():
    assert list(inspect.signature(linalg.reduce_against).parameters) == ["v", "pivots"]
    for path in sorted(SRC.glob("*.py")):
        assert keyword_calls(path.read_text(encoding="utf-8"), "lead") == [], path.name


def calls_in(source: str, function: str) -> set[str]:
    """Names called inside the named function: a bare name, or the last
    part of an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function:
            return {
                call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
    raise LookupError(function)


def test_call_detection():
    source = "def f(a):\n    a.b.pullback_cochain(1)\n    g(h(2))\n\ndef k():\n    cup_product()\n"
    assert calls_in(source, "f") == {"pullback_cochain", "g", "h"}
    assert calls_in(source, "k") == {"cup_product"}
    with pytest.raises(LookupError):
        calls_in(source, "missing")


@pytest.mark.parametrize(
    "module, function, call",
    [
        # the generator's sign at one facet per component decides invariance
        ("pipeline.py", "run_quotient_pipeline", "pullback_cochain"),
        # each duality row is one cap product, not one cup per entry
        ("cohomology.py", "poincare_duality_verify", "cup_product"),
    ],
)
def test_removed_walks_stay_removed(module, function, call):
    assert call not in calls_in((SRC / module).read_text(encoding="utf-8"), function)


def _calls(*names):
    def hit(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in names

    return hit


def test_every_distance_decision_is_ball_meets():
    # a point lies in a ball, and an image in a chart, when two balls meet
    found = {
        (path.name, where)
        for path in sorted(SRC.glob("*.py"))
        for where, _ in located(path.read_text(encoding="utf-8"), _calls("compare_real", "vec_norm_sq"))
    }
    assert found == {("atlas.py", "meets")}, found


@pytest.mark.parametrize(
    "module, function",
    [
        ("simplicial.py", "map_simplex"),
        ("polyform.py", "wedge"),
        ("polyform.py", "exterior_derivative"),
        ("linalg.py", "dense_det"),
    ],
)
def test_permutation_signs_come_from_sort_sign(module, function):
    assert "sort_sign" in calls_in((SRC / module).read_text(encoding="utf-8"), function)


def test_no_second_sign_routine():
    defined = {
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "sort_sign" in defined and "_merge_sign" not in defined


def _yields(node) -> bool:
    return isinstance(node, (ast.Yield, ast.YieldFrom))


def test_the_gluing_walk_is_eager():
    # gluing_images returns a list: each g lifts the frame once, and
    # cocycle_check slices the first element's choices off it
    assert located("def f(g):\n    yield 1\n    yield from g\n", _yields) == [("f", 2), ("f", 3)]
    assert located((SRC / "frame_bundle.py").read_text(encoding="utf-8"), _yields) == []
