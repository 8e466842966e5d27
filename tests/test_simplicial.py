import ast
import itertools
import random
import re
from fractions import Fraction

import pytest

from helpers import (
    coboundary_by_slicing,
    component_orbits_by_scan,
    element_perms,
    fundamental_cycle_by_scan,
    invariant_betti,
    non_simplex_by_scan,
    product_by_closure,
    pullback_by_scan,
)

from orbcheck.catalog import catalog_scenario
from orbcheck.cohomology import (
    CochainComplexQ,
    InvariantCohomology,
    cup_product,
    kahler_class,
    lefschetz_verify,
    poincare_duality_verify,
)
from orbcheck.errors import NonOrientable, NotPseudomanifold
from orbcheck.pipeline import (
    QuotientSetup,
    build_quotient,
    build_simplicial,
    product_sum_kahler,
    run_pipeline,
    seed_product_bases,
)
from orbcheck.scenario import parse_scenario
from orbcheck.simplicial import (
    ProductAction,
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
    cx = product_complex(t, t)
    assert cx.count(0) == 49
    assert cx.count(4) == 14 * 14  # one cell per pair of facets
    assert [cx.count(k) for k in range(5)] == [
        sum(t.count(p) * t.count(k - p) for p in range(max(0, k - 2), min(k, 2) + 1)) for k in range(5)
    ]
    euler = sum((-1) ** p * cx.count(p) for p in range(5))
    assert euler == 0
    assert cx.simplices[4][0] == (t.simplices[2][0], t.simplices[2][0])


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


def staircase(left, right, actions=None):
    """The staircase triangulation of the test oracle as a plain complex,
    its diagonal action on label pairs and its cochain complex, seeded
    with the cups of the pulled-back factor representatives."""
    ref = product_by_closure(left, right)
    cx = SimplicialComplex(range(len(ref.vertices)), ref.facets)
    if actions is None:
        action = SimplicialGroupAction.trivial(cx)
    else:
        label = [
            {v: f.vertices[a.generator[f.position[v]]] for v in f.vertices} for f, a in zip((left, right), actions)
        ]
        position = {v: i for i, v in enumerate(ref.vertices)}
        action = SimplicialGroupAction(cx, actions[0].k, [position[label[0][a], label[1][b]] for a, b in ref.vertices])
    cq = CochainComplexQ(cx)
    factors = [CochainComplexQ(f) for f in (left, right)]
    for r in range(cx.dim + 1):
        cands = [
            cup_product(cx, ref.pullback_left(a, p), p, ref.pullback_right(b, r - p), r - p)
            for p in range(max(0, r - right.dim), min(r, left.dim) + 1)
            for a in factors[0].cohomology_basis(p).reps
            for b in factors[1].cohomology_basis(r - p).reps
        ]
        cq.cohomology_basis(r, candidates=cands)
    return cx, action, cq, ref


def quotient_summary(cx, action, cq, omega, n):
    """What the quotient suite decides of a model, through the package's
    verdicts: Betti numbers, invariant Betti numbers, the orientation,
    and with a Kahler class, the HLT and PD ranks."""
    inv = InvariantCohomology(cq, action)
    out = {"betti": cq.betti_numbers(), "inv": [inv.invariant_betti(p) for p in range(cq.dim + 1)]}
    try:
        cycle = fundamental_cycle(cx, action)
    except (NonOrientable, NotPseudomanifold) as exc:
        return {**out, "cycle": type(exc).__name__}
    if omega is not None:
        rep = kahler_class(inv, cycle, n, omega)
        out["pairing"] = abs(rep.pairing)
        out["hlt"] = [lefschetz_verify(inv, rep, k).detail for k in range(n + 1)]
        out["pd"] = [v.detail for v in poincare_duality_verify(inv, cycle, n)]
    return out


def cell_and_staircase_summaries(left, right, actions=None, n=None):
    """The same quotient decided on the cell product and on the staircase,
    each with the product-sum class w_L x 1 + 1 x w_R where n is given."""
    cx = product_complex(left, right)
    action = SimplicialGroupAction.trivial(cx) if actions is None else ProductAction(cx, *actions)
    cq = CochainComplexQ(cx)
    factor_cq = (CochainComplexQ(left), CochainComplexQ(right))
    seed_product_bases(cq, *factor_cq)
    omega = product_sum_kahler(QuotientSetup(cx, action, cq, factor_cq, n, True)) if n else None
    cell = quotient_summary(cx, action, cq, omega, n)
    st_cx, st_action, st_cq, ref = staircase(left, right, actions)
    st_omega = None
    if n:
        w_l, w_r = (
            {s: Fraction(v) / w for s, v in rep.items()}
            for fcq in factor_cq
            for rep in fcq.cohomology_basis(2).reps[:1]
            for w in [pair_with_cycle(rep, fundamental_cycle(fcq.cx))]
        )
        st_omega = ref.pullback_left(w_l, 2)
        for s, v in ref.pullback_right(w_r, 2).items():
            st_omega[s] = st_omega.get(s, 0) + v
    return cell, quotient_summary(st_cx, st_action, st_cq, st_omega, n)


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_product_triples_match_the_closure_of_the_staircases(name):
    # the cell product and the staircase triangulation (the test oracle)
    # have one cohomology ring: the same Betti numbers, orientation, and
    # for two oriented surfaces the same HLT and PD ranks
    left, right = PRODUCT_CASES[name]()
    n = 2 if left.dim == right.dim == 2 else None
    cell, stair = cell_and_staircase_summaries(left, right, n=n)
    assert cell == stair, name
    assert ("hlt" in cell) == (n is not None) and ("cycle" in cell) == (name == "nonpurexcycle3"), cell


def t4_trivial_factors():
    t = torus7([1, 2, 3, 0, 4, 5, 6])
    return t, t, None


def t4_z2_factors():
    t = torus7([1, 2, 3, 0, 4, 5, 6])
    f = SimplicialGroupAction.cyclic(t, 2, {v: (7 - v) % 7 for v in range(7)})
    return t, t, (f, f)


@pytest.mark.parametrize("factors", [t4_z2_factors, t4_trivial_factors], ids=["t4-z2", "t4-trivial"])
def test_cell_and_staircase_products_decide_the_quotient_alike(factors):
    left, right, actions = factors()
    cell, stair = cell_and_staircase_summaries(left, right, actions, n=2)
    assert cell == stair
    expect = [1, 0, 6, 0, 1] if actions else [1, 4, 6, 4, 1]
    assert cell["betti"] == [1, 4, 6, 4, 1] and cell["inv"] == expect and cell["pairing"] == 2
    assert cell["hlt"][2] == "rank=1 dims=1x1"


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
    # T * T builds its factor once; the cell product is no simplicial
    # complex, so the probe counts the factor's simplices only
    assert counts == [42]
    assert sum(cx.count(p) for p in range(cx.dim + 1)) == 42 * 42


def test_cyclic_action_verifies_on_torus():
    t = torus7()
    inv = {v: (7 - v) % 7 for v in range(7)}
    action = SimplicialGroupAction.cyclic(t, 2, inv)
    verdict = verify_action(action)
    assert verdict.passed, verdict.detail
    assert verdict.detail == "homomorphism and simpliciality hold"


def test_product_action_needs_order_reversing_vertex_order():
    # a diagonal action of two simplicial automorphisms is cellular in any
    # vertex order: the order-reversing layout and the natural one
    inv = {v: (7 - v) % 7 for v in range(7)}
    for t in (torus7([1, 2, 3, 0, 4, 5, 6]), torus7()):
        factor = SimplicialGroupAction.cyclic(t, 2, inv)
        verdict = verify_action(ProductAction(product_complex(t, t), factor, factor))
        assert verdict.passed, verdict.detail
        assert verdict.detail == "homomorphism and simpliciality hold"
    # a factor map that is no automorphism fails, and the FAIL names it
    t = torus7()
    shift = SimplicialGroupAction.cyclic(t, 2, {0: 1, 1: 0, **{v: v for v in range(2, 7)}})
    factor = SimplicialGroupAction.cyclic(t, 2, inv)
    verdict = verify_action(ProductAction(product_complex(t, t), factor, shift))
    assert not verdict.passed
    assert verdict.detail.startswith("right factor: image of ") and verdict.detail.endswith("is not a simplex")


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
            yield product_complex(left, right)
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


def invariant_orientation_by_oracle(cx, action) -> bool:
    """An invariant orientation exists iff every component orients and
    each component orbit keeps its orientation: the invariant top Betti
    number counts the orbits whose orientation the group keeps."""
    perms = element_perms(action)
    try:
        fundamental_cycle_by_scan(cx)
    except NonOrientable:
        return False
    return invariant_betti(cx.simplices, perms)[-1] == component_orbits_by_scan(cx, perms[1 % len(perms)])


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
        expect = invariant_orientation_by_oracle(cx, action)
        assert expect == TWO_SPHERE_ACTIONS.get(name, (None, None, expect))[2], name
        words.add(expect)
        cycle = cycle_or_error(lambda c: fundamental_cycle(c, action), cx)
        assert isinstance(cycle, dict) == expect, name
        if expect:
            assert set(cycle) == set(cx.simplices[cx.dim]) and {abs(c) for c in cycle.values()} == {1}, name
            assert all(pullback_by_scan(action, e, cycle, cx.dim) == cycle for e in action.elements), name
            # one component keeps the signs that the action-free orientation gives
            if component_orbits_by_scan(cx, element_perms(action)[0]) == 1:
                assert cycle == fundamental_cycle(cx), name
        else:
            assert cycle is NonOrientable, name
    assert words == {True, False}



# -- seeded diagonal involutions on products of surfaces -------------------

TETRA_FACETS = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

SURFACES = {"octahedron": (6, OCTA_FACETS), "tetrahedron": (4, TETRA_FACETS), "torus7": (7, TORUS_FACETS)}


def involutions(n: int, facets) -> list[list[int]]:
    """The automorphisms of order 2, by trying every vertex permutation."""
    keep = {tuple(sorted(f)) for f in facets}
    return [
        list(perm)
        for perm in itertools.permutations(range(n))
        if perm != tuple(range(n))
        and all(perm[perm[v]] == v for v in range(n))
        and all(tuple(sorted(perm[v] for v in f)) in keep for f in keep)
    ]


def product_corpus(count: int, seed: int):
    """Seeded pairs of surfaces in their natural vertex order, each with an
    involution, as a scenario of the diagonal action with the product-sum
    class, and each factor's (complex, involution)."""
    rng = random.Random(seed)
    autos = {name: involutions(*SURFACES[name]) for name in SURFACES}
    for i in range(count):
        picks = [rng.choice(sorted(SURFACES)) for _ in range(2)]
        maps = [rng.choice(autos[name]) for name in picks]
        blocks = []
        for label, name, perm in zip("AB", picks, maps):
            n, facets = SURFACES[name]
            blocks.append(
                f"[complex {label}]\nvertices = {n}\nfacets = {' '.join('({},{},{})'.format(*f) for f in facets)}\n\n"
                f"[action {label}g]\ngroup = cyclic:2\nmaps = {', '.join(map(str, perm))}\n"
            )
        text = (
            f"[scenario]\nname = {picks[0]}x{picks[1]}-{i}\npipelines = quotient\n\n" + "\n".join(blocks)
            + "\n[complex P]\nproduct = A * B\n\n[action D]\ngroup = product\nfactors = Ag, Bg\n\n"
            + "[quotient]\ncomplex = P\naction = D\ncomplex_dim_n = 2\nkahler = product-sum\n"
        )
        factors = [SimplicialComplex(range(SURFACES[name][0]), SURFACES[name][1]) for name in picks]
        yield text, list(zip(factors, maps))


def factor_betti_and_traces(cx, perm) -> tuple[list[int], list[int]]:
    """b_p by the transfer oracle with the trivial group, and the trace
    t_p = 2 inv_p - b_p of the involution on H^p."""
    b = invariant_betti(cx.simplices, [list(range(cx.count(0)))])
    inv = invariant_betti(cx.simplices, [list(range(cx.count(0))), perm])
    return b, [2 * i - bp for i, bp in zip(inv, b)]


def test_diagonal_involutions_on_products_match_the_kunneth_character():
    # natural vertex order throughout: the staircase triangulation made
    # these actions non-simplicial, the cell product keeps them cellular
    words = set()
    for text, factors in product_corpus(24, seed=37):
        (bl, tl), (br, tr) = (factor_betti_and_traces(cx, perm) for cx, perm in factors)
        lines = dict(line.split(" = ", 1) for line in run_pipeline(parse_scenario(text)).to_machine().splitlines()[1:])
        name = text.split("\n")[1]
        assert lines["quotient.action"] == "PASS homomorphism and simpliciality hold", name
        pairs = [[(p, r - p) for p in range(3) if 0 <= r - p <= 2] for r in range(5)]
        assert lines["betti.full"] == ",".join(str(sum(bl[p] * br[q] for p, q in ps)) for ps in pairs), name
        inv = [sum(bl[p] * br[q] + tl[p] * tr[q] for p, q in ps) for ps in pairs]
        assert all(x % 2 == 0 for x in inv), name
        assert lines["betti.inv"] == ",".join(str(x // 2) for x in inv), name
        orientable = tl[2] * tr[2] == 1
        assert lines["pd.fundamental_cycle"] == ("PASS" if orientable else "FAIL NonOrientable"), name
        kahler = "kahler.pairing" in lines
        assert not kahler or orientable, name
        if kahler:
            checked = [v for k, v in lines.items() if k.startswith(("hlt.k", "pd.p"))]
            assert len(checked) == 8 and all(v.startswith(("ISO ", "PASS ")) for v in checked), name
        words.add((orientable, kahler))
    assert words == {(False, False), (True, False), (True, True)}, words
