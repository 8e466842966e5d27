import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from helpers import bareiss_rank, build_echelon_full, modular_rank

from orbcheck.catalog import catalog_scenario
from orbcheck.cohomology import InvariantCohomology, kahler_class
from orbcheck.foliated import conformal_factor
from orbcheck.linalg import (
    TrackedEchelon,
    add_scaled,
    build_echelon,
    dense_det,
    dense_rank,
    dense_solve,
    kernel_search,
    rational_root,
    reduce_against,
)
from orbcheck.pipeline import build_quotient, product_sum_kahler, run_pipeline
from orbcheck.scenario import parse_scenario
from orbcheck.simplicial import fundamental_cycle


def sparse_cols(matrix):
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    return [
        {i: Fraction(matrix[i][j]) for i in range(rows) if matrix[i][j]}
        for j in range(cols)
    ], rows


def test_build_echelon_rank_matches_oracles():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        sc, nrows = sparse_cols(m)
        pivots, rank = build_echelon(sc)
        assert rank == bareiss_rank(m)
        assert rank == modular_rank(sc, nrows)
        # stopping each column at its leading row keeps the full echelon's lows
        assert pivots.keys() == build_echelon_full(sc)[0].keys()


def int_cols(matrix):
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(len(matrix[0]))]


def test_integer_echelon_with_non_unit_pivots_matches_oracles():
    # coboundaries only ever give +-1 pivots; these matrices reach the
    # exact Fraction factor of a non-unit pivot as well
    rng = random.Random(31)
    non_unit = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        sc = int_cols(m)
        pivots, rank = build_echelon(sc)
        assert rank == bareiss_rank(m) == modular_rank(sc, rows)
        assert pivots.keys() == build_echelon_full(sc)[0].keys()
        for r, (col, pcoeff) in pivots.items():
            assert max(col) == r and col[r] == pcoeff and all(col.values())
            assert all(type(x) in (int, Fraction) for x in col.values())
        non_unit += sum(1 for _, pcoeff in pivots.values() if abs(pcoeff) != 1)
    assert non_unit > 0


def test_residue_of_a_fraction_vector_against_an_integer_echelon():
    rng = random.Random(37)
    for _ in range(40):
        rows, cols = rng.randint(2, 7), rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        pivots, rank = build_echelon(int_cols(m))
        v = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(rows)}
        v = {i: x for i, x in v.items() if x}
        res = reduce_against(dict(v), pivots)
        assert not any(r in res for r in pivots)
        # the full residue is canonical: the fully reduced echelon gives it too
        assert res == reduce_against(dict(v), build_echelon_full(int_cols(m))[0])
        # v - residue lies in the column span
        diff = [v.get(i, 0) - res.get(i, 0) for i in range(rows)]
        assert bareiss_rank([row + [d] for row, d in zip(m, diff)]) == bareiss_rank(m) == rank


@pytest.mark.parametrize("name", ("pillowcase", "torus7", "t4-z2", "octahedron", "rp2-antipodal"))
def test_quotient_arithmetic_never_turns_float(name):
    # an int / int slipped into the cochain code would give a float here
    exact = (int, Fraction)
    setup = build_quotient(catalog_scenario(name))
    cq = setup.cq
    inv = InvariantCohomology(cq, setup.action)
    for p in range(cq.dim + 1):
        for rep in cq.cohomology_basis(p).reps:
            assert all(type(v) in exact for v in rep.values())
            assert all(type(x) in exact for x in cq.coords(rep, p))
        data = inv.degree(p)
        assert all(type(x) in exact for vec in data.vectors for x in vec)
        assert all(type(v) in exact for c in data.cochains for v in c.values())
    cycle = fundamental_cycle(setup.cx)
    if any(setup.action.transform_cycle(e, cycle) != cycle for e in setup.action.elements):
        assert name == "rp2-antipodal"  # the antipodal map reverses orientation
        return
    explicit = product_sum_kahler(setup) if setup.product_sum else None
    assert type(kahler_class(inv, cycle, setup.n, explicit).pairing) is Fraction


GOLDEN = Path(__file__).parent / "golden"


def test_t9xt9_golden_runs_on_integer_echelons():
    scenario = parse_scenario((GOLDEN / "t9xt9.scn").read_text())
    assert run_pipeline(scenario).to_machine() == (GOLDEN / "t9xt9.machine").read_text()
    cq = build_quotient(scenario).cq
    echelons = [cq.image_echelon(p) for p in range(1, cq.dim + 1)]
    pivots = [piv for ech in echelons for piv in ech.values()]
    assert all(pcoeff in (1, -1) for _, pcoeff in pivots)
    assert all(type(x) is int for col, _ in pivots for x in col.values())
    # reduced all the way down, the same (cleared) columns fill in +-2
    # entries below some pivots, and they stay ints
    full = []
    for p in range(1, cq.dim + 1):
        cleared = echelons[p - 2] if p > 1 else {}
        cols = [{} if j in cleared else col for j, col in enumerate(cq._delta_cols[p - 1])]
        ech, rank = build_echelon_full(cols)
        assert ech.keys() == echelons[p - 1].keys() and rank == cq.rank_delta(p - 1)
        full.extend(ech.values())
    assert all(type(x) is int for col, _ in full for x in col.values())
    assert any(abs(x) == 2 for col, _ in full for x in col.values())
    # stopping at the leading row leaves fewer entries to reduce against
    assert sum(len(col) for col, _ in pivots) < sum(len(col) for col, _ in full)


def test_echelon_columns_stop_at_their_leading_row():
    # c1's leading row 1 has no pivot: it goes in as it is, with row 0
    # unreduced against c0; a full reduction would clear row 0
    cols = [{0: 1}, {0: 1, 1: 1}]
    pivots, rank = build_echelon(cols)
    assert rank == 2 and pivots[1] == ({0: 1, 1: 1}, 1)
    assert build_echelon_full(cols)[0][1] == ({1: 1}, 1)


def test_reduce_against_residue_is_zero_for_span_members():
    m = [[1, 0, 2], [0, 1, 1], [0, 0, 0]]
    sc, _ = sparse_cols(m)
    pivots, rank = build_echelon(sc)
    assert rank == 2
    combo = {0: Fraction(3), 1: Fraction(-2), 2: Fraction(4)}  # 3c0 - 2c1 + 4c2
    v = {}
    for j, w in combo.items():
        for i, x in sc[j].items():
            v[i] = v.get(i, Fraction(0)) + w * x
    v = {i: x for i, x in v.items() if x}
    reduce_against(v, pivots)
    assert not v


def test_kernel_search_finds_null_combinations():
    # columns: c2 = c0 + c1
    m = [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    sc, _ = sparse_cols(m)
    found = []

    def keep(comb):
        found.append(dict(comb))
        return True

    rank = kernel_search(sc, keep, want=1)
    assert rank == 2
    assert len(found) == 1
    comb = found[0]
    # verify the combination really is in the kernel
    acc = {}
    for j, w in comb.items():
        for i, x in sc[j].items():
            acc[i] = acc.get(i, Fraction(0)) + w * x
    assert all(x == 0 for x in acc.values())


def test_dense_helpers():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert dense_det(m) == 1
    assert dense_rank(m) == 2
    sol = dense_solve(m, [Fraction(3), Fraction(2)])
    assert sol == [Fraction(1), Fraction(1)]
    singular = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert dense_solve(singular, [Fraction(0), Fraction(1)]) is None

    rng = random.Random(23)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.randint(0, min(rows, cols))
        # a product of (rows x rank) and (rank x cols) factors is rank-deficient
        left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
        a = [[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(cols)] for i in range(rows)]
        assert dense_rank(a) == bareiss_rank(a)

        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = [sum(a[i][j] * x0[j] for j in range(cols)) for i in range(rows)]
        x = dense_solve(a, b)
        assert [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)] == b
        b_off = [v + rng.randint(-2, 2) for v in b]
        augmented = [row + [v] for row, v in zip(a, b_off)]
        if bareiss_rank(augmented) > bareiss_rank(a):
            assert dense_solve(a, b_off) is None
        else:
            x = dense_solve(a, b_off)
            assert [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)] == b_off

        k = min(rows, cols)
        square = [row[:k] for row in a[:k]]
        det = dense_det(square)
        assert type(det) is Fraction and det == cofactor_det(square)

        # a float entry enters as its exact binary value
        n = rng.randint(1, 6)
        floats = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
        det = dense_det(floats)
        assert type(det) is Fraction and det == cofactor_det([[Fraction(x) for x in row] for row in floats])
    singular_float = dense_det([[0.5, 1.0], [1.0, 2.0]])
    assert type(singular_float) is Fraction and singular_float == 0
    assert type(dense_det([[1, 2], [2, 4]])) is Fraction

    # the leading columns come out in every order; the sign follows it
    for perm in permutations(range(4)):
        matrix = [[int(perm[i] == j) for j in range(4)] for i in range(4)]
        assert dense_det(matrix) == cycle_sign(perm)

    assert dense_rank([]) == dense_rank([[], []]) == 0
    assert dense_solve([], []) == [] and dense_solve([[], []], [0, 0]) == []
    assert dense_solve([[], []], [0, Fraction(1, 2)]) is None

    acc = {0: 1, 1: Fraction(1, 2)}
    assert add_scaled(acc, {1: 1, 2: 3}, Fraction(-1, 2)) is acc
    assert acc == {0: 1, 2: Fraction(-3, 2)}


def cycle_sign(perm):
    """(-1) ** (n - number of cycles)."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return (-1) ** (len(perm) - cycles)


def cofactor_det(m):
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def test_tracked_echelon_coordinates_rebuild_inserted_vectors():
    def combine(coeffs, vectors):
        acc = {}
        for c, v in zip(coeffs, vectors):
            for i, x in v.items():
                acc[i] = acc.get(i, Fraction(0)) + c * x
        return {i: x for i, x in acc.items() if x}

    rng = random.Random(29)
    gens = [{i: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for i in range(8)} for _ in range(4)]
    ech = TrackedEchelon()
    basis = []
    for _ in range(10):  # vectors of a span of dimension at most 4
        v = combine([rng.randint(-2, 2) for _ in gens], gens)
        if ech.insert(v):
            basis.append(v)
    assert len(basis) == bareiss_rank([[v.get(i, 0) for i in range(8)] for v in basis])
    for k, v in enumerate(basis):
        assert ech.express(v) == [Fraction(int(j == k)) for j in range(len(basis))]
    for _ in range(10):
        target = combine([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis], basis)
        assert combine(ech.express(target), basis) == target
    outside = {i: Fraction(rng.randint(-3, 3)) for i in range(8)}
    span_rank = bareiss_rank([[v.get(i, 0) for i in range(8)] for v in basis + [outside]])
    assert (ech.express(outside) is None) == (span_rank > len(basis))


def test_rational_root():
    assert rational_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_root(Fraction(8), 3) == 2
    assert rational_root(Fraction(2), 2) is None
    # beyond a float's 53 bits and range the root stays exact
    big = Fraction(3**40 + 2, 7)
    assert rational_root(big**3, 3) == big
    assert rational_root(big**3 + Fraction(1, 7**3), 3) is None
    assert conformal_factor([[(10**20 + 1) ** 2]], 1) == Fraction(1, (10**20 + 1) ** 2)
    assert rational_root(Fraction(10**400), 2) == 10**200
    rng = random.Random(41)
    for m in range(1, 7):
        for _ in range(30):
            r = Fraction(rng.randint(1, 10 ** rng.randint(1, 30)), rng.randint(1, 10 ** rng.randint(1, 30)))
            assert rational_root(r**m, m) == r
