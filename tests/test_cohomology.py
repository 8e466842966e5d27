import random
from fractions import Fraction

import pytest

from helpers import bareiss_rank, build_echelon_full, cup_by_walk, invariant_betti, modular_rank

from orbcheck import cohomology
from orbcheck.catalog import catalog_scenario
from orbcheck.cohomology import (
    CochainComplexQ,
    InvariantCohomology,
    cup_power,
    cup_product,
    kahler_class,
    lefschetz_verify,
    poincare_duality_verify,
)
from orbcheck.errors import NoKahlerClass
from orbcheck.linalg import build_echelon, reduce_against
from orbcheck.pipeline import build_quotient, run_pipeline
from orbcheck.simplicial import (
    SimplicialComplex,
    SimplicialGroupAction,
    fundamental_cycle,
    pair_with_cycle,
    product_complex,
)
from test_simplicial import OCTA_FACETS, TORUS_FACETS, octahedron, torus7


def delta_dense(cq, p):
    cols = cq._delta_cols[p]
    rows = cq.cx.count(p + 1)
    return [[float(cols[j].get(i, 0)) for j in range(len(cols))] for i in range(rows)]


def test_betti_octahedron_and_torus_with_rank_oracle():
    for cx, expect in ((octahedron(), [1, 0, 1]), (torus7(), [1, 2, 1])):
        cq = CochainComplexQ(cx)
        assert cq.betti_numbers() == expect
        for p in range(cx.dim):
            cols = cq._delta_cols[p]
            nrows = cx.count(p + 1)
            dense = [
                [cols[j].get(i, Fraction(0)) for j in range(len(cols))]
                for i in range(nrows)
            ]
            assert cq.rank_delta(p) == bareiss_rank(dense)
            assert cq.rank_delta(p) == modular_rank(cols, nrows)


def test_cocycle_and_coboundary_structure():
    cq = CochainComplexQ(torus7())
    basis = cq.cohomology_basis(1)
    assert len(basis.reps) == 2
    for rep in basis.reps:
        assert cq.is_cocycle(rep, 1)
    # a coboundary has zero coordinates
    bump = {cq.cx.simplices[0][3]: Fraction(1)}
    cob = cq.apply_delta(bump, 0)
    assert cq.coords(cob, 1) == [Fraction(0), Fraction(0)]


def test_cup_product_skew_on_torus_h1():
    cx = torus7()
    cq = CochainComplexQ(cx)
    cycle = fundamental_cycle(cx)
    a, b = cq.cohomology_basis(1).reps
    ab = pair_with_cycle(cup_product(cx, a, 1, b, 1), cycle)
    ba = pair_with_cycle(cup_product(cx, b, 1, a, 1), cycle)
    aa = pair_with_cycle(cup_product(cx, a, 1, a, 1), cycle)
    bb = pair_with_cycle(cup_product(cx, b, 1, b, 1), cycle)
    assert ab == -ba != 0
    assert aa == bb == 0


def test_cup_power_unit():
    cx = octahedron()
    cq = CochainComplexQ(cx)
    omega = cq.cohomology_basis(2).reps[0]
    unit, deg = cup_power(cx, omega, 2, 0)
    assert deg == 0 and all(v == 1 for v in unit.values())


def test_candidate_basis_rejects_incomplete_spans():
    cx = torus7()
    cq = CochainComplexQ(cx)
    one = cq.cohomology_basis(1)  # force computation through kernel search
    cq2 = CochainComplexQ(cx)
    with pytest.raises(ValueError):
        cq2.cohomology_basis(1, candidates=[one.reps[0]])


def test_invariant_cohomology_projector_idempotent():
    cx = torus7()
    cq = CochainComplexQ(cx)
    inv_map = {v: (7 - v) % 7 for v in range(7)}
    action = SimplicialGroupAction.cyclic(cx, 2, inv_map)
    inv = InvariantCohomology(cq, action)
    for p in range(3):
        data = inv.degree(p)
        b = len(data.projector)
        sq = [
            [
                sum(data.projector[i][k] * data.projector[k][j] for k in range(b))
                for j in range(b)
            ]
            for i in range(b)
        ]
        assert sq == data.projector
    assert [inv.invariant_betti(p) for p in range(3)] == [1, 0, 1]


def test_betti_invariant_under_vertex_reordering():
    rng = random.Random(17)
    for _ in range(5):
        order = list(range(7))
        rng.shuffle(order)
        cq = CochainComplexQ(torus7(order))
        assert cq.betti_numbers() == [1, 2, 1]


def test_kahler_class_and_hlt_torus():
    cx = torus7()
    cq = CochainComplexQ(cx)
    action = SimplicialGroupAction.trivial(cx)
    inv = InvariantCohomology(cq, action)
    cycle = fundamental_cycle(cx)
    omega = kahler_class(inv, cycle, 1)
    assert omega.pairing != 0
    for k, detail in ((0, "rank=2 dims=2x2"), (1, "rank=1 dims=1x1")):
        entry = lefschetz_verify(inv, omega, k)
        assert entry.passed and entry.detail == detail
    pd = poincare_duality_verify(inv, cycle, 1)
    assert all(entry.passed for entry in pd)
    assert [entry.detail for entry in pd] == ["rank=1 dims=1x1", "rank=2 dims=2x2", "rank=1 dims=1x1"]


def test_no_kahler_class_when_pairing_vanishes():
    # two disjoint spheres: H^2 is 2-dimensional but the complex is not
    # a pseudomanifold; use a sphere with a zero cycle instead
    cx = octahedron()
    cq = CochainComplexQ(cx)
    inv = InvariantCohomology(cq, SimplicialGroupAction.trivial(cx))
    zero_cycle = {s: 0 for s in cx.simplices[2]}
    with pytest.raises(NoKahlerClass):
        kahler_class(inv, zero_cycle, 1)


QUOTIENT_CATALOG = ("pillowcase", "torus7", "t4-z2", "octahedron", "rp2-antipodal")


def raw_element_perms(scenario, cx):
    """Each group element's vertex permutation on positions, composed from
    the scenario's own `maps` lines (powers of the generator, factorwise
    on a product), without the package's action code."""
    section = scenario.actions[scenario.quotient.action]
    factors = [scenario.actions[f] for f in section.factors] if section.factors else [section]

    def power(sec, i, v):
        for _ in range(i if sec.maps else 0):
            v = sec.maps[v]
        return v

    perms = []
    for i in range(factors[0].order):
        if section.factors:
            images = [tuple(power(f, i, x) for f, x in zip(factors, v)) for v in cx.vertices]
        else:
            images = [power(section, i, v) for v in cx.vertices]
        perms.append([cx.position[w] for w in images])
    return perms


@pytest.mark.parametrize("name", QUOTIENT_CATALOG)
def test_betti_inv_matches_the_transfer_oracle(name):
    scenario = catalog_scenario(name)
    cx = build_quotient(scenario).cx
    expect = invariant_betti(cx.simplices, raw_element_perms(scenario, cx))
    lines = dict(line.split(" = ", 1) for line in run_pipeline(scenario).to_machine().splitlines()[1:])
    assert lines["betti.inv"] == ",".join(map(str, expect))


@pytest.mark.parametrize("name", QUOTIENT_CATALOG)
def test_projector_starting_from_the_identity_matches_the_full_sum(name):
    # degree() adds I for the first element instead of its action matrix
    setup = build_quotient(catalog_scenario(name))
    inv = InvariantCohomology(setup.cq, setup.action)
    elements = setup.action.elements
    for p in range(setup.cx.dim + 1):
        b = len(setup.cq.cohomology_basis(p).reps)
        assert inv.action_matrix(elements[0], p) == [[int(i == j) for j in range(b)] for i in range(b)]
        mats = [inv.action_matrix(e, p) for e in elements]
        full = [[Fraction(sum(m[i][j] for m in mats), len(elements)) for j in range(b)] for i in range(b)]
        assert inv.degree(p).projector == full


CLEARING_COMPLEXES = {
    "t4-z2": lambda: build_quotient(catalog_scenario("t4-z2")).cx,
    "torus7": torus7,
    "octahedron": octahedron,
    "pillowcase": lambda: build_quotient(catalog_scenario("pillowcase")).cx,
    "t7xt7-natural-order": lambda: product_complex(torus7(), torus7()).complex,
}


@pytest.mark.parametrize("name", CLEARING_COMPLEXES)
def test_leading_term_echelons_keep_the_full_lows_ranks_and_residues(name):
    cx = CLEARING_COMPLEXES[name]()
    cq = CochainComplexQ(cx)
    rng = random.Random(43)
    for p in range(1, cx.dim + 1):
        cleared = cq.image_echelon(p - 1)
        for cols in (cq._delta_cols[p - 1], [{} if j in cleared else c for j, c in enumerate(cq._delta_cols[p - 1])]):
            pivots, rank = build_echelon(cols)
            full, full_rank = build_echelon_full(cols)
            assert pivots.keys() == full.keys() and rank == full_rank, (name, p)
        assert cq.image_echelon(p).keys() == full.keys()
        for _ in range(5):
            v = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for i in rng.sample(range(cx.count(p)), min(6, cx.count(p)))}
            v = {i: x for i, x in v.items() if x}
            assert cq.residue(v, p) == reduce_against(dict(v), full), (name, p)


def _seeded_cochain(rng, simplices):
    # sparse, with explicit zero values among ints and Fractions
    out = {}
    for s in simplices:
        if rng.random() < 0.4:
            out[s] = rng.choice((0, 1, -1, 2, Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
    return out


CUP_COMPLEXES = {
    "t4-z2": lambda: build_quotient(catalog_scenario("t4-z2")).cx,
    "torus7": torus7,
    "octahedron": octahedron,
    "pillowcase": lambda: build_quotient(catalog_scenario("pillowcase")).cx,
}


@pytest.mark.parametrize("name", CUP_COMPLEXES)
def test_cup_by_front_face_matches_the_walk_over_every_simplex(name):
    cx = CUP_COMPLEXES[name]()
    rng = random.Random(47)
    for p in range(cx.dim + 1):
        for q in range(cx.dim - p + 1):
            pairs = [({}, _seeded_cochain(rng, cx.simplices[q])), (_seeded_cochain(rng, cx.simplices[p]), {})]
            pairs += [(_seeded_cochain(rng, cx.simplices[p]), _seeded_cochain(rng, cx.simplices[q])) for _ in range(3)]
            for alpha, beta in pairs:
                assert cup_product(cx, alpha, p, beta, q) == cup_by_walk(cx, alpha, p, beta, q), (name, p, q)


@pytest.mark.parametrize("name", CLEARING_COMPLEXES)
def test_cleared_echelon_keeps_every_pivot(name):
    cx = CLEARING_COMPLEXES[name]()
    cq = CochainComplexQ(cx)
    for p in range(1, cx.dim + 1):
        pivots, rank = build_echelon(cq._delta_cols[p - 1])
        assert cq.image_echelon(p) == pivots, (name, p)
        assert cq.rank_delta(p - 1) == rank == modular_rank(cq._delta_cols[p - 1], cx.count(p)), (name, p)


def test_echelon_probe_reads_one_column_per_simplex(monkeypatch):
    # the benchmark's build_echelon probe takes len(columns)
    cx = build_quotient(catalog_scenario("t4-z2")).cx
    expected = iter(cx.count(p - 1) for p in range(1, cx.dim + 1))
    original = cohomology.build_echelon

    def probed(columns):
        assert len(columns) == next(expected)
        return original(columns)

    monkeypatch.setattr(cohomology, "build_echelon", probed)
    assert CochainComplexQ(cx).betti_numbers() == [1, 4, 6, 4, 1]
    assert next(expected, None) is None
