import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    bareiss_rank,
    build_echelon_full,
    coboundary_by_slicing,
    cup_by_walk,
    duality_matrix_by_cup,
    invariant_betti,
    modular_rank,
    product_by_closure,
    reduce_full,
)

from orbcheck import cohomology
from orbcheck.catalog import catalog_scenario, catalog_text
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
from orbcheck.linalg import build_echelon
from orbcheck.pipeline import build_quotient, product_sum_kahler, run_pipeline
from orbcheck.scenario import parse_scenario
from orbcheck.simplicial import (
    ProductComplex,
    SimplicialComplex,
    SimplicialGroupAction,
    fundamental_cycle,
    pair_with_cycle,
    product_complex,
)
from test_simplicial import OCTA_FACETS, TORUS_FACETS, octahedron, torus7, two_spheres_text


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
    simplices = cq.cx.simplices[1]
    cob = {simplices[i]: Fraction(x) for i, x in cq.cx.coboundary(0)[3].items()}  # delta of the bump at vertex 3
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


def test_kahler_class_skips_a_non_invariant_explicit_candidate():
    # the antipodal map reverses H^2 of the octahedron, so its generator
    # is no Kahler class of the quotient however it pairs; the pillowcase
    # involution fixes H^2, so its generator is kept as given
    for name, kept in (("rp2-antipodal", False), ("pillowcase", True)):
        setup = build_quotient(catalog_scenario(name))
        inv = InvariantCohomology(setup.cq, setup.action)
        cycle = fundamental_cycle(setup.cx)
        [rep] = setup.cq.cohomology_basis(2).reps
        assert pair_with_cycle(rep, cycle)
        if kept:
            omega = kahler_class(inv, cycle, setup.n, explicit=rep)
            assert omega.cochain == rep and omega.pairing == 1
        else:
            with pytest.raises(NoKahlerClass):
                kahler_class(inv, cycle, setup.n, explicit=rep)


QUOTIENT_CATALOG = ("pillowcase", "torus7", "t4-z2", "octahedron", "rp2-antipodal")


def raw_element_perms(scenario, cx):
    """Each group element's vertex permutation on positions, composed from
    the scenario's own `maps` lines (powers of the generator), without the
    package's action code; on a product, the pair of the factors' own."""
    section = scenario.actions[scenario.quotient.action]
    if section.factors:
        factors = [scenario.actions[f] for f in section.factors]
        return list(zip(*(raw_element_perms_of(f, c) for f, c in zip(factors, (cx.left, cx.right)))))
    return raw_element_perms_of(section, cx)


def raw_element_perms_of(section, cx):
    def power(i, v):
        for _ in range(i if section.maps else 0):
            v = section.maps[v]
        return v

    return [[cx.position[power(i, v)] for v in cx.vertices] for i in range(section.order)]


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
    cq, action = setup.cq, setup.action
    inv = InvariantCohomology(cq, action)
    elements = action.elements

    def action_matrix(e, p):
        cols = [cq.coords(action.pullback_cochain(e, rep, p), p) for rep in cq.cohomology_basis(p).reps]
        return [list(row) for row in zip(*cols)]

    for p in range(setup.cx.dim + 1):
        b = len(cq.cohomology_basis(p).reps)
        assert action_matrix(elements[0], p) == [[int(i == j) for j in range(b)] for i in range(b)]
        mats = [action_matrix(e, p) for e in elements]
        full = [[Fraction(sum(m[i][j] for m in mats), len(elements)) for j in range(b)] for i in range(b)]
        assert inv.degree(p).projector == full


CLEARING_COMPLEXES = {
    "t4-z2": lambda: build_quotient(catalog_scenario("t4-z2")).cx,
    "torus7": torus7,
    "octahedron": octahedron,
    "pillowcase": lambda: build_quotient(catalog_scenario("pillowcase")).cx,
    # the staircase triangulation of the test oracle, a large plain complex
    "t7xt7-natural-order": lambda: SimplicialComplex(range(49), product_by_closure(torus7(), torus7()).facets),
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
            # the full residue is canonical: the leading-term echelon gives it too
            assert reduce_full(dict(v), cq.image_echelon(p)) == reduce_full(dict(v), full), (name, p)


@pytest.mark.parametrize("name", ("pillowcase", "torus7", "t4-z2", "octahedron", "rp2-antipodal", "football:3"))
def test_coords_read_back_a_combination_of_reps_plus_a_coboundary(name):
    cx = build_quotient(catalog_scenario(name)).cx
    cq = CochainComplexQ(cx)
    rng = random.Random(53)
    for p in range(cx.dim + 1):
        reps = cq.cohomology_basis(p).reps
        for _ in range(3):
            c = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in reps]
            cochain = {}
            for ci, rep in zip(c, reps):
                for s, x in rep.items():
                    cochain[s] = cochain.get(s, 0) + ci * x
            if p:  # plus delta of a random (p-1)-cochain, column by column
                for col in cx.coboundary(p - 1):
                    y = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for i, x in col.items():
                        s = cx.simplices[p][i]
                        cochain[s] = cochain.get(s, 0) + y * x
            assert cq.coords(cochain, p) == c, (name, p)


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


DUALITY_SCENARIOS = {
    **{name: lambda name=name: catalog_scenario(name) for name in ("t4-z2", "torus7", "pillowcase", "octahedron")},
    **{f"football:{k}": lambda k=k: catalog_scenario(f"football:{k}") for k in (2, 3, 4)},
    **{name: lambda name=name: parse_scenario(two_spheres_text(name)) for name in ("trivial", "reflected-swap")},
    # invariant H^1 of T^4 is nonzero, so p = 1 reads a transpose of sign (-1)^(1*3)
    "t4-trivial": lambda: parse_scenario(
        catalog_text("t4-z2").replace("action = D", "action = I") + "\n[action I]\ngroup = trivial\n"
    ),
}


@pytest.mark.parametrize("name", DUALITY_SCENARIOS)
def test_duality_rows_by_cap_match_the_cup_then_pair_oracle(monkeypatch, name):
    setup = build_quotient(DUALITY_SCENARIOS[name]())
    inv = InvariantCohomology(setup.cq, setup.action)
    cycle = fundamental_cycle(setup.cx, setup.action)
    matrices = []
    original = cohomology._full_rank

    def recording(matrix, source, target):
        matrices.append(matrix)
        return original(matrix, source, target)

    monkeypatch.setattr(cohomology, "_full_rank", recording)
    verdicts = poincare_duality_verify(inv, cycle, setup.n)
    top = 2 * setup.n
    # p >= n is built and equals the oracle; p < n is read as the transpose
    # of 2n - p, which is (-1)^(p(2n-p)) times the oracle
    expect = [
        [
            [x * (-1) ** (p * (top - p) * (p < setup.n)) for x in row]
            for row in duality_matrix_by_cup(setup.cx, inv.degree(p).cochains, p, inv.degree(top - p).cochains, top - p, cycle)
        ]
        for p in range(top + 1)
    ]
    assert matrices == expect and all(v.passed for v in verdicts), name
    assert all(type(x) is Fraction for m in matrices for row in m for x in row)
    assert matrices[0] and matrices[0][0][0]


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


def test_coboundary_columns_stay_as_built_through_a_full_run(monkeypatch):
    # an apparent column is its own pivot, so the echelons share the
    # coboundary columns: a whole t4-z2 run must leave them as built
    built = []

    def recording(original):
        def coboundary(self, p):
            fresh = p not in self._coboundary
            cols = original(self, p)
            if fresh:
                built.append((cols, [dict(c) for c in cols]))
            return cols

        return coboundary

    # the cell product reads its columns off the factor's
    for cls in (SimplicialComplex, ProductComplex):
        monkeypatch.setattr(cls, "coboundary", recording(cls.coboundary))
    assert run_pipeline(catalog_scenario("t4-z2")).overall
    assert len(built) >= 5 and all(cols == copy for cols, copy in built)
    cq = build_quotient(catalog_scenario("t4-z2")).cq
    for p in range(1, cq.dim + 1):
        delta = {id(c) for c in cq._delta_cols[p - 1]}
        assert any(id(col) in delta for col, _ in cq.image_echelon(p).values()), p


@pytest.mark.parametrize("name", ("pillowcase", "torus7", "t4-z2", "octahedron"))
def test_integral_cochains_hold_ints(name):
    setup = build_quotient(catalog_scenario(name))
    inv = InvariantCohomology(setup.cq, setup.action)
    for p in range(setup.cq.dim + 1):
        data = inv.degree(p)
        # the projector is Fraction-valued; its entries here are integral,
        # so the invariant cochains combine the reps as ints
        assert all(type(x) is Fraction and x.denominator == 1 for row in data.projector for x in row)
        assert all(type(v) is int for c in data.cochains for v in c.values())
    explicit = product_sum_kahler(setup) if setup.product_sum else None
    assert explicit is None or all(type(v) is int for v in explicit.values())
    omega = kahler_class(inv, fundamental_cycle(setup.cx), setup.n, explicit)
    assert all(type(v) is int for v in omega.cochain.values())
    assert type(omega.pairing) is Fraction
    unit, deg = cup_power(setup.cx, omega.cochain, 2, 0)
    assert deg == 0 and all(type(v) is int and v == 1 for v in unit.values())


def test_a_rational_kahler_candidate_is_scaled_back_to_ints():
    cx = torus7()
    cq = CochainComplexQ(cx)
    inv = InvariantCohomology(cq, SimplicialGroupAction.trivial(cx))
    rep = inv.degree(2).cochains[0]
    cycle = fundamental_cycle(cx)
    third = {s: Fraction(v, 3) for s, v in rep.items()}
    omega = kahler_class(inv, cycle, 1, third)
    assert omega.cochain == rep and all(type(v) is int for v in omega.cochain.values())
    assert omega.pairing == pair_with_cycle(rep, cycle) and type(omega.pairing) is Fraction


def coboundary_of(cx, cochain, p):
    """delta_p of a tuple-keyed cochain through the slicing oracle."""
    cols, out = coboundary_by_slicing(cx, p), {}
    for s, v in cochain.items():
        for row, sign in cols[cx.index[p][s]].items():
            t = cx.simplices[p + 1][row]
            out[t] = out.get(t, 0) + sign * v
    return {t: v for t, v in out.items() if v}


def combined(*terms):
    """sum of c * cochain over the (c, cochain) terms, zeros dropped."""
    out = {}
    for c, cochain in terms:
        for s, v in cochain.items():
            out[s] = out.get(s, 0) + c * v
    return {s: v for s, v in out.items() if v}


KOSZUL_PRODUCTS = {
    "torus7xoctahedron": lambda: product_complex(torus7(), octahedron()),
    "t7xt7-mirrored": lambda: product_complex(*[torus7([1, 2, 3, 0, 4, 5, 6])] * 2),
}


@pytest.mark.parametrize("name", KOSZUL_PRODUCTS)
def test_cell_cup_is_a_graded_leibniz_associative_product_of_cross_products(name):
    cx = KOSZUL_PRODUCTS[name]()
    left, right = cx.left, cx.right
    rng = random.Random(59)

    def seeded(k):  # dense, so that the products below are not empty
        return {s: rng.choice((-1, 1, 2)) for s in cx.simplices[k] if rng.random() < 0.3}

    def cross(a, b):
        return {(s, t): x * y for s, x in a.items() for t, y in b.items() if x * y}

    for p in range(cx.dim + 1):
        for q in range(cx.dim - p + 1):
            a, b = seeded(p), seeded(q)
            ab = cup_product(cx, a, p, b, q)
            assert ab, (name, p, q)
            if p + q < cx.dim:  # delta(a cup b) = delta a cup b + (-1)^p a cup delta b
                lhs = coboundary_of(cx, ab, p + q)
                da_b = cup_product(cx, coboundary_of(cx, a, p), p + 1, b, q) if p < cx.dim else {}
                a_db = cup_product(cx, a, p, coboundary_of(cx, b, q), q + 1)
                assert lhs == combined((1, da_b), ((-1) ** p, a_db)), (name, p, q)
            for r in range(cx.dim - p - q + 1):
                c = seeded(r)
                bc = cup_product(cx, b, q, c, r)
                assert cup_product(cx, ab, p + q, c, r) == cup_product(cx, a, p, bc, q + r), (name, p, q, r)
    # (a x b) cup (c x d) = (-1)^(|b||c|) (a cup c) x (b cup d), the factor
    # cups by the walk over every simplex, and delta(a x b) = delta a x b +
    # (-1)^|a| a x delta b, on seeded factor cochains
    nonzero = [0, 0]  # products without and with a Koszul sign
    for (i, j, k, m) in itertools.product(range(3), repeat=4):
        if i + k > left.dim or j + m > right.dim:
            continue
        a, c = ({s: rng.choice((-1, 1, 2)) for s in left.simplices[e] if rng.random() < 0.5} for e in (i, k))
        b, d = ({t: rng.choice((-1, 1, 2)) for t in right.simplices[e] if rng.random() < 0.5} for e in (j, m))
        lhs = cup_product(cx, cross(a, b), i + j, cross(c, d), k + m)
        rhs = cross(cup_by_walk(left, a, i, c, k), cup_by_walk(right, b, j, d, m))
        nonzero[j * k % 2] += bool(lhs)
        assert lhs == {s: (-1) ** (j * k) * v for s, v in rhs.items()}, (name, i, j, k, m)
        if i + j < cx.dim:
            da = coboundary_of(left, a, i) if i < left.dim else {}
            db = coboundary_of(right, b, j) if j < right.dim else {}
            expect = combined((1, cross(da, b)), ((-1) ** i, cross(a, db)))
            assert coboundary_of(cx, cross(a, b), i + j) == expect, (name, i, j)
    assert nonzero[0] >= 25 and nonzero[1] >= 4, nonzero
