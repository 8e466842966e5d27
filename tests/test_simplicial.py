from fractions import Fraction

import pytest

from orbcheck.errors import DuplicateVertexInFacet, NonOrientable, NotPseudomanifold
from orbcheck.simplicial import (
    SimplicialComplex,
    SimplicialGroupAction,
    fundamental_cycle,
    pair_with_cycle,
    product_complex,
    verify_action,
)

OCTA_FACETS = [
    (0, 1, 2), (0, 2, 4), (0, 4, 5), (0, 5, 1),
    (3, 1, 2), (3, 2, 4), (3, 4, 5), (3, 5, 1),
]

TORUS_FACETS = [
    f for i in range(7)
    for f in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))
]


def octahedron():
    return SimplicialComplex(range(6), OCTA_FACETS)


def torus7(order=None):
    return SimplicialComplex(order if order is not None else range(7), TORUS_FACETS)


def test_downward_closure_counts():
    cx = octahedron()
    assert cx.count(0) == 6 and cx.count(1) == 12 and cx.count(2) == 8
    t = torus7()
    assert t.count(0) == 7 and t.count(1) == 21 and t.count(2) == 14
    # Euler characteristics: sphere 2, torus 0
    assert 6 - 12 + 8 == 2
    assert 7 - 21 + 14 == 0


def test_duplicate_vertex_rejected():
    with pytest.raises(DuplicateVertexInFacet):
        SimplicialComplex(range(3), [(0, 1, 1)])


def test_fundamental_cycle_boundary_free():
    for cx in (octahedron(), torus7()):
        cycle = fundamental_cycle(cx)
        assert set(cycle) == set(cx.simplices[cx.dim])
        assert all(c in (1, -1) for c in cycle.values())


def test_not_pseudomanifold_detected():
    # two triangles sharing only a vertex leave boundary edges
    cx = SimplicialComplex(range(5), [(0, 1, 2), (0, 3, 4)])
    with pytest.raises(NotPseudomanifold):
        fundamental_cycle(cx)


def test_nonorientable_surface_detected():
    # minimal 6-vertex triangulation of RP^2
    rp2 = SimplicialComplex(
        range(6),
        [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
            (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5),
            (1, 3, 5), (0, 1, 3),
        ],
    )
    with pytest.raises((NonOrientable, NotPseudomanifold)):
        fundamental_cycle(rp2)


def test_pair_with_cycle():
    cx = octahedron()
    cycle = fundamental_cycle(cx)
    top = {s: Fraction(c) for s, c in cycle.items()}
    assert pair_with_cycle(top, cycle) == len(cycle)


def test_product_complex_torus_counts():
    t = torus7()
    prod = product_complex(t, t)
    cx = prod.complex
    assert cx.count(0) == 49
    assert cx.count(4) == 14 * 14 * 6  # six staircases per cell pair
    euler = sum((-1) ** p * cx.count(p) for p in range(5))
    assert euler == 0


def test_cyclic_action_verifies_on_torus():
    t = torus7()
    inv = {v: (7 - v) % 7 for v in range(7)}
    action = SimplicialGroupAction.cyclic(t, 2, inv)
    verdict = verify_action(action)
    assert verdict.passed, verdict.detail
    assert verdict.detail == "homomorphism and simpliciality hold"


def test_product_action_needs_order_reversing_vertex_order():
    # with the order-reversing layout the diagonal involution stays simplicial
    t = torus7([1, 2, 3, 0, 4, 5, 6])
    prod = product_complex(t, t)
    inv = {v: (7 - v) % 7 for v in range(7)}
    factor = SimplicialGroupAction.cyclic(t, 2, inv)
    action = SimplicialGroupAction.product(prod, factor, factor)
    verdict = verify_action(action)
    assert verdict.passed, verdict.detail
    # with the natural order the same involution is not simplicial
    t_bad = torus7()
    prod_bad = product_complex(t_bad, t_bad)
    factor_bad = SimplicialGroupAction.cyclic(t_bad, 2, inv)
    action_bad = SimplicialGroupAction.product(prod_bad, factor_bad, factor_bad)
    verdict = verify_action(action_bad)
    assert not verdict.passed
    assert verdict.detail.endswith("is not a simplex")


def test_pullback_respects_signs():
    t = torus7()
    inv = {v: (7 - v) % 7 for v in range(7)}
    action = SimplicialGroupAction.cyclic(t, 2, inv)
    cycle = fundamental_cycle(t)
    moved = action.transform_cycle("g1", cycle)
    assert moved == cycle or moved == {s: -c for s, c in cycle.items()}
