import random
from fractions import Fraction
from itertools import permutations
from math import prod
from pathlib import Path

import pytest
from helpers import bareiss_rank, build_echelon_full, modular_rank, reduce_full

from orbcheck import linalg
from orbcheck.catalog import catalog_scenario
from orbcheck.cohomology import InvariantCohomology, kahler_class
from orbcheck.foliated import conformal_factor
from orbcheck.linalg import (
    add_scaled,
    build_echelon,
    dense_det,
    dense_rank,
    dense_solve,
    insert,
    kernel_search,
    rational_root,
    reduce_against,
    sort_sign,
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
        res = reduce_full(dict(v), pivots)
        assert not any(r in res for r in pivots)
        # the full residue is canonical: the fully reduced echelon gives it too
        assert res == reduce_full(dict(v), build_echelon_full(int_cols(m))[0])
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
        assert all(type(x) in exact for row in data.projector for x in row)
        assert all(type(v) in exact for c in data.cochains for v in c.values())
    cycle = fundamental_cycle(setup.cx)
    if any(setup.action.pullback_cochain(e, cycle, setup.cx.dim) != cycle for e in setup.action.elements):
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
    # most columns are apparent: their pivot is the coboundary column itself
    apparent = []
    for p, ech in enumerate(echelons, 1):
        delta = {id(c) for c in cq._delta_cols[p - 1]}
        apparent.append(sum(id(col) in delta for col, _ in ech.values()))
    assert apparent == [80, 398, 634, 318]  # of the cell product's 2916 columns


def test_apparent_columns_are_pivots_as_they_are_and_the_rest_reduced():
    # a column whose largest row has no pivot yet is its own pivot column,
    # uncopied; the others are copied and reduced.  Either way the pivot
    # rows are the full echelon's and no input column changes.
    rng = random.Random(53)
    mixed = 0
    for _ in range(80):
        rows, ncols = rng.randint(2, 9), rng.randint(1, 9)
        cols = [
            {i: rng.choice((1, -1)) for i in rng.sample(range(rows), rng.randint(0, min(4, rows)))}
            for _ in range(ncols)
        ]
        before = [dict(c) for c in cols]
        pivots, rank = build_echelon(cols)
        full, full_rank = build_echelon_full(cols)
        assert pivots.keys() == full.keys() and rank == full_rank == modular_rank(cols, rows)
        assert cols == before
        kept = sum(1 for col, _ in pivots.values() if any(col is c for c in cols))
        mixed += 0 < kept < rank
    assert mixed >= 20


def test_dense_det_signs_rows_that_are_all_apparent_out_of_order(monkeypatch):
    # row i leads at column perm[i] and has its other entries left of it,
    # so every row is apparent: none is reduced, and the sign still comes
    # from the order of the leading columns
    calls = []
    monkeypatch.setattr(linalg, "reduce_against", lambda *args, **kw: calls.append(args))
    rng = random.Random(59)
    for perm in permutations(range(4)):
        lead = [rng.choice((1, -1, 2, Fraction(1, 3))) for _ in range(4)]
        m = [[lead[i] if j == perm[i] else (rng.randint(-2, 2) if j < perm[i] else 0) for j in range(4)] for i in range(4)]
        assert dense_det(m) == cycle_sign(perm) * prod(lead) == cofactor_det(m)
    assert not calls


def test_apparent_labelled_vectors_go_in_with_no_reduction(monkeypatch):
    # a vector whose largest row has no pivot yet goes in as it is, and a
    # zero column is a kernel relation at once; only the rest are reduced
    calls = []
    real = linalg.reduce_against
    monkeypatch.setattr(linalg, "reduce_against", lambda v, pivots: calls.append(dict(v)) or real(v, pivots))
    pivots = {}
    v = {0: 1, 2: -1, ~0: 1}
    assert insert(pivots, v) and pivots == {2: (v, -1)} and pivots[2][0] is v
    assert not insert(pivots, {~1: 1}) and not calls
    cols = [{0: 1}, {}, {0: 2, 1: 1}, {1: 3, 4: 1}]
    found = []
    assert kernel_search(cols, lambda comb: found.append(comb) or True, want=2) == 3
    assert found == [{1: 1}] and not calls
    found.clear()
    assert kernel_search(cols + [{0: 5}], lambda comb: found.append(comb) or True, want=2) == 3
    assert found == [{1: 1}, {4: 1, 0: -5}] and calls == [{0: 5, ~4: 1}]


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

        # the exact binary values of seeded floats, entered as Fractions
        n = rng.randint(1, 6)
        binary = [[Fraction(rng.uniform(-2.0, 2.0)) for _ in range(n)] for _ in range(n)]
        det = dense_det(binary)
        assert type(det) is Fraction and det == cofactor_det(binary)
    half = dense_det([[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert type(half) is Fraction and half == 0
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


@pytest.mark.parametrize("length", range(6))
def test_sort_sign_is_the_parity_of_every_permutation(length):
    # entries need not be 0..n-1: labels 3v + 1 sort as v does
    for perm in permutations(range(length)):
        labels = [3 * v + 1 for v in perm]
        for seq in (labels, tuple(labels)):
            assert sort_sign(seq) == (tuple(3 * v + 1 for v in range(length)), cycle_sign(perm))


def cofactor_det(m):
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def test_labelled_echelon_coordinates_rebuild_inserted_vectors():
    def combine(coeffs, vectors):
        acc = {}
        for c, v in zip(coeffs, vectors):
            for i, x in v.items():
                acc[i] = acc.get(i, Fraction(0)) + c * x
        return {i: x for i, x in acc.items() if x}

    def express(pivots, v, k):
        # the negated labels of v reduced to labels alone, or None
        v = reduce_against(dict(v), pivots)
        return None if max(v, default=-1) >= 0 else [-v.get(~j, 0) for j in range(k)]

    rng = random.Random(29)
    gens = [{i: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for i in range(8)} for _ in range(4)]
    pivots = {}
    basis = []
    for _ in range(10):  # vectors of a span of dimension at most 4
        v = combine([rng.randint(-2, 2) for _ in gens], gens)
        if insert(pivots, {**v, ~len(basis): 1}):
            basis.append(v)
    assert len(basis) == bareiss_rank([[v.get(i, 0) for i in range(8)] for v in basis])
    for k, v in enumerate(basis):
        assert express(pivots, v, len(basis)) == [Fraction(int(j == k)) for j in range(len(basis))]
    for _ in range(10):
        target = combine([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis], basis)
        assert combine(express(pivots, target, len(basis)), basis) == target
    outside = {i: Fraction(rng.randint(-3, 3)) for i in range(8)}
    span_rank = bareiss_rank([[v.get(i, 0) for i in range(8)] for v in basis + [outside]])
    assert (express(pivots, outside, len(basis)) is None) == (span_rank > len(basis))


def test_kernel_search_reads_no_column_after_its_last_wanted_vector():
    class Unread(dict):
        def keys(self):
            raise AssertionError("a column after the last wanted kernel vector was read")

        __iter__ = items = keys

    # c1 = c0 and c3 = c2: the second relation is the last one wanted
    cols = [{0: 1}, {0: 1}, {1: 1}, {1: 1}, Unread({2: 1})]
    found = []
    assert kernel_search(cols, lambda comb: found.append(comb) or True, want=2) == 2
    assert found == [{1: 1, 0: -1}, {3: 1, 2: -1}]


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
