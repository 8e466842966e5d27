import ast
import itertools
import random
import re
from fractions import Fraction

import pytest

from helpers import (
    coboundary_by_slicing,
    component_orbits_by_scan,
    fundamental_cycle_by_scan,
    invariant_betti,
    non_simplex_by_scan,
    product_by_closure,
    pullback_by_scan,
)

from orbcheck.catalog import catalog_scenario
from orbcheck.cohomology import CochainComplexQ
from orbcheck.errors import NonOrientable, NotPseudomanifold
from orbcheck.pipeline import build_quotient, build_simplicial, run_pipeline
from orbcheck.scenario import parse_scenario
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


TWO_OCTAHEDRA = OCTA_FACETS + [tuple(v + 6 for v in f) for f in OCTA_FACETS]

# two octahedra on vertices 0-5 and 6-11 (S^2 + S^2), each action with
# whether an invariant orientation exists
TWO_SPHERE_ACTIONS = {
    "reflected-swap": ("cyclic:2", "9, 7, 8, 6, 10, 11, 3, 1, 2, 0, 4, 5", True),
    "plain-swap": ("cyclic:2", "6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5", True),
    "trivial": ("trivial", None, True),
    # the square reflects each sphere through (0 3)
    "cyclic4-swap": ("cyclic:4", "6, 7, 8, 9, 10, 11, 3, 1, 2, 0, 4, 5", False),
}


def two_spheres_text(name: str) -> str:
    group, maps, _ = TWO_SPHERE_ACTIONS[name]
    facets = " ".join("({},{},{})".format(*f) for f in TWO_OCTAHEDRA)
    action = f"group = {group}" + (f"\nmaps = {maps}" if maps else "")
    return f"""
[scenario]
name = {name}
pipelines = quotient

[complex S]
vertices = 12
facets = {facets}

[action A]
{action}

[quotient]
complex = S
action = A
complex_dim_n = 1
"""


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


def cycle3():
    return SimplicialComplex(range(3), [(0, 1), (1, 2), (0, 2)])


PRODUCT_CASES = {
    "torus7xtorus7": lambda: (torus7(), torus7()),
    "torus7xtorus7-mirrored": lambda: (torus7([1, 2, 3, 0, 4, 5, 6]), torus7([1, 2, 3, 0, 4, 5, 6])),
    "torus7xtorus7-mixed": lambda: (torus7([6, 5, 4, 3, 2, 1, 0]), torus7([3, 0, 6, 1, 5, 2, 4])),
    "torus7xoctahedron": lambda: (torus7(), octahedron()),
    "octahedronxtorus7": lambda: (octahedron(), torus7()),
    "cycle3xtorus7": lambda: (cycle3(), torus7()),
    "nonpurexcycle3": lambda: (SimplicialComplex(range(4), [(0, 1, 2), (2, 3)]), cycle3()),
}


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_product_triples_match_the_closure_of_the_staircases(name):
    left, right = PRODUCT_CASES[name]()
    prod = product_complex(left, right)
    cx, ref = prod.complex, product_by_closure(left, right)
    assert cx.vertices == ref.vertices
    assert cx.facets == ref.facets
    assert cx.simplices == ref.simplices
    assert cx.index == ref.index
    rng = random.Random(17)
    for factor, pull, pull_ref in (
        (left, prod.pullback_left, ref.pullback_left),
        (right, prod.pullback_right, ref.pullback_right),
    ):
        cq = CochainComplexQ(factor)
        for p in range(factor.dim + 1):
            seeded = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for s in factor.simplices[p] if rng.random() < 0.5}
            for a in cq.cohomology_basis(p).reps + [seeded]:
                assert list(pull(a, p).items()) == list(pull_ref(a, p).items()), (name, p)


def test_complex_build_probe_sees_the_product(monkeypatch):
    # the benchmark's complex_build probe sums the simplices of every
    # complex built through SimplicialComplex.__init__
    counts = []
    original = SimplicialComplex.__init__

    def probed(self, *args, **kwargs):
        original(self, *args, **kwargs)
        counts.append(sum(len(s) for s in self.simplices.values()))

    monkeypatch.setattr(SimplicialComplex, "__init__", probed)
    cx = build_quotient(catalog_scenario("t4-z2")).cx
    assert counts == [42, 7350]  # T * T builds its factor once
    assert sum(cx.count(p) for p in range(cx.dim + 1)) == 7350


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
    moved = action.pullback_cochain(1, cycle, 2)
    assert moved == cycle or moved == {s: -c for s, c in cycle.items()}


# -- the support-driven and facet-only paths against the full scans ------

CATALOG_WITH_COMPLEXES = (
    "football:2", "football:3", "football:4", "pillowcase", "torus7", "t4-z2", "octahedron", "rp2-antipodal",
)


def torus_involution():
    t = torus7()
    action = SimplicialGroupAction.cyclic(t, 2, {v: (7 - v) % 7 for v in range(7)})
    return t, action, CochainComplexQ(t)


def t4_z2():
    setup = build_quotient(catalog_scenario("t4-z2"))
    return setup.cx, setup.action, setup.cq


def seeded_cochain(cx, p, rng):
    return {s: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for s in rng.sample(cx.simplices[p], 4)}


@pytest.mark.parametrize("build", [torus_involution, t4_z2], ids=["torus7-involution", "t4-z2"])
def test_support_pullback_and_cycle_transform_match_the_full_scan(build):
    cx, action, cq = build()
    assert verify_action(action).passed
    rng = random.Random(5)
    for p in range(cx.dim + 1):
        cochains = cq.cohomology_basis(p).reps + [seeded_cochain(cx, p, rng)]
        for e in action.elements:
            for a in cochains:
                assert action.pullback_cochain(e, a, p) == pullback_by_scan(action, e, a, p), (e, p)
    cycle = fundamental_cycle(cx)
    for e in action.elements:
        assert action.pullback_cochain(e, cycle, cx.dim) == pullback_by_scan(action, e, cycle, cx.dim) == cycle


def permutation_action(cx, perm):
    """The cyclic action generated by a vertex permutation, of its order."""
    k, power = 1, list(perm)
    while power != list(range(len(perm))):
        power = [perm[v] for v in power]
        k += 1
    return SimplicialGroupAction.cyclic(cx, k, dict(enumerate(perm)))


@pytest.mark.parametrize(
    "cx, automorphisms",
    [
        (octahedron(), [[3, 4, 5, 0, 1, 2], [0, 2, 4, 3, 5, 1]]),
        (torus7(), [[(7 - v) % 7 for v in range(7)], [(v + 1) % 7 for v in range(7)], [2 * v % 7 for v in range(7)]]),
    ],
    ids=["octahedron", "torus7"],
)
def test_facet_simpliciality_matches_the_all_simplex_scan(cx, automorphisms):
    rng = random.Random(11)
    perms = automorphisms + [rng.sample(range(cx.count(0)), cx.count(0)) for _ in range(40)]
    words = set()
    for perm in perms:
        action = permutation_action(cx, perm)
        verdict = verify_action(action)
        words.add(verdict.passed)
        assert verdict.passed == (non_simplex_by_scan(action) is None), perm
        if not verdict.passed:
            match = re.fullmatch(r"image of (\(.*\)) under g(\d+) is not a simplex", verdict.detail)
            assert match, verdict.detail
            facet, e = ast.literal_eval(match[1]), int(match[2])
            assert facet in cx.facets
            assert action.map_simplex(e, facet)[0] not in cx.index[cx.dim]
    assert words == {True, False}


def catalog_complexes(name):
    scenario = catalog_scenario(name)
    for section in scenario.complexes.values():
        if section.product:
            left, right = (build_simplicial(scenario.complexes[c]) for c in section.product)
            yield product_complex(left, right).complex
        else:
            yield build_simplicial(section)


@pytest.mark.parametrize("name", CATALOG_WITH_COMPLEXES)
def test_coboundary_matches_the_slicing_definition_and_squares_to_zero(name):
    complexes = list(catalog_complexes(name))
    assert complexes
    for cx in complexes:
        for p in range(-1, cx.dim + 1):
            cols = cx.coboundary(p)
            if p >= 0:
                assert cols == coboundary_by_slicing(cx, p), (name, p)
            if p + 1 < cx.dim:
                after = cx.coboundary(p + 1)
                for col in cols:
                    image = {}
                    for row, sign in col.items():
                        for r, c in after[row].items():
                            image[r] = image.get(r, 0) + sign * c
                    assert not any(image.values()), (name, p)


def cycle_or_error(fn, cx):
    try:
        return fn(cx)
    except (NonOrientable, NotPseudomanifold) as exc:
        return type(exc)


@pytest.mark.parametrize("name", CATALOG_WITH_COMPLEXES)
def test_indexed_ridge_signs_match_the_scan(name):
    complexes = list(catalog_complexes(name))
    assert complexes
    for cx in complexes:
        assert cycle_or_error(fundamental_cycle, cx) == cycle_or_error(fundamental_cycle_by_scan, cx)


def test_orientation_failures_keep_their_kind():
    # rp2-antipodal's complex is the octahedron, which orients; the
    # antipodal map reverses its cycle, so the quotient is NonOrientable
    scenario = catalog_scenario("rp2-antipodal")
    setup = build_quotient(scenario)
    cycle = fundamental_cycle(setup.cx)
    assert cycle == fundamental_cycle_by_scan(setup.cx)
    flipped = {s: -c for s, c in cycle.items()}
    assert setup.action.pullback_cochain(1, cycle, 2) == pullback_by_scan(setup.action, 1, cycle, 2) == flipped
    assert "pd.fundamental_cycle = FAIL NonOrientable" in run_pipeline(scenario).to_machine().splitlines()
    rp2_six = SimplicialComplex(
        range(6),
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1), (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)],
    )
    for fn in (fundamental_cycle, fundamental_cycle_by_scan):
        with pytest.raises(NonOrientable):
            fn(rp2_six)
        with pytest.raises(NotPseudomanifold):
            fn(SimplicialComplex(range(5), [(0, 1, 2), (0, 3, 4)]))


def octahedron_automorphisms() -> list[list[int]]:
    facets = {tuple(sorted(f)) for f in OCTA_FACETS}
    return [
        list(perm)
        for perm in itertools.permutations(range(6))
        if all(tuple(sorted(perm[v] for v in f)) in facets for f in facets)
    ]


def two_sphere_generators(count: int, seed: int) -> list[list[int]]:
    """Seeded automorphisms of two octahedra: a pair of octahedral
    automorphisms (a, b) either acts on each sphere or swaps them,
    v -> a(v) + 6 and v + 6 -> b(v)."""
    rng = random.Random(seed)
    autos = octahedron_automorphisms()
    out = []
    for _ in range(count):
        a, b = rng.choice(autos), rng.choice(autos)
        if rng.random() < 0.5:
            out.append(a + [w + 6 for w in b])
        else:
            out.append([w + 6 for w in a] + b)
    return out


def invariant_orientation_by_oracle(cx, generator: list[int]) -> bool:
    """An invariant orientation exists iff every component orients and
    each component orbit keeps its orientation: the invariant top Betti
    number counts the orbits whose orientation the group keeps."""
    perms = [list(range(len(generator)))]
    while len(perms) == 1 or perms[-1] != perms[0]:
        perms.append([generator[v] for v in perms[-1]])
    try:
        fundamental_cycle_by_scan(cx)
    except NonOrientable:
        return False
    return invariant_betti(cx.simplices, perms[:-1])[-1] == component_orbits_by_scan(cx, generator)


def orientation_cases():
    for name in TWO_SPHERE_ACTIONS:
        setup = build_quotient(parse_scenario(two_spheres_text(name)))
        yield name, setup.cx, setup.action
    for name in ("pillowcase", "torus7", "t4-z2", "octahedron", "rp2-antipodal", "football:3"):
        setup = build_quotient(catalog_scenario(name))
        yield name, setup.cx, setup.action
    yield "octahedron-reflection", octahedron(), SimplicialGroupAction.cyclic(octahedron(), 2, {0: 3, 1: 1, 2: 2, 3: 0, 4: 4, 5: 5})
    cx = SimplicialComplex(range(12), TWO_OCTAHEDRA)
    for i, generator in enumerate(two_sphere_generators(24, seed=31)):
        yield f"two-spheres-{i}", cx, permutation_action(cx, generator)


def test_orientation_by_component_orbit_matches_the_betti_oracle():
    words = set()
    for name, cx, action in orientation_cases():
        assert verify_action(action).passed, name
        expect = invariant_orientation_by_oracle(cx, action.generator)
        assert expect == TWO_SPHERE_ACTIONS.get(name, (None, None, expect))[2], name
        words.add(expect)
        cycle = cycle_or_error(lambda c: fundamental_cycle(c, action), cx)
        assert isinstance(cycle, dict) == expect, name
        if expect:
            assert set(cycle) == set(cx.simplices[cx.dim]) and {abs(c) for c in cycle.values()} == {1}, name
            assert all(pullback_by_scan(action, e, cycle, cx.dim) == cycle for e in action.elements), name
            # one component keeps the signs that the action-free orientation gives
            if component_orbits_by_scan(cx, list(range(cx.count(0)))) == 1:
                assert cycle == fundamental_cycle(cx), name
        else:
            assert cycle is NonOrientable, name
    assert words == {True, False}

