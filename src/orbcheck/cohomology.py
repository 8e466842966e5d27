"""Cohomology of simplicial complexes and their cell products over exact
rationals, with group averaging, cup products, and the Lefschetz /
duality verdicts.

Cochains exposed to callers are dicts keyed by simplices (sorted
vertex-position tuples) or cells (pairs of them); the linear algebra
runs on integer-indexed sparse vectors.
Coboundary entries are the ints +-1, and cochain values stay ints until
a non-unit pivot, a rational input or a non-integral entry of the
averaging projector brings in a Fraction; the Kahler cochain is scaled
back to ints.  delta_(p-1)'s echelon skips the columns cleared by
delta_(p-2)'s pivots, keeps each apparent column as its own pivot, and
reduces the others down to their leading row only; its size is the
rank of delta_(p-1).  Every pivot enters through `linalg.insert`.  Each
degree keeps one echelon, a copy of that image echelon plus
representative i labelled ~i, so a class's coordinates are one
reduction: the negated labels left on it.  Pullbacks walk a cochain's
support, cup products walk alpha's support by front face, and a duality
row is one cap product of the cycle with a cochain.  Both read the
complex only through `splits`: Alexander-Whitney on a simplicial
complex, and on a product K x L the sum over the splits of sigma x tau,
(alpha cup beta)(sigma x tau) = sum_(i+j=|alpha|) (-1)^((p-i)j)
alpha(sigma[..i] x tau[..j]) beta(sigma[i..] x tau[j..]), with p =
dim sigma.  Invariance is decided in the full cohomology basis: the
columns of the averaging projector P average the pullbacks of the basis
representatives, and a class is invariant iff P fixes its coordinates.
The Kahler class is chosen on each component orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import NoKahlerClass
from .linalg import (
    add_scaled,
    build_echelon,
    dense_rank,
    insert,
    kernel_search,
    reduce_against,
)
from .simplicial import (
    Simplex,
    SimplicialComplex,
    SimplicialGroupAction,
    pair_with_cycle,
)
from .verdict import Verdict

Cochain = dict  # Simplex -> int or Fraction


@dataclass
class CohomologyBasis:
    reps: list  # tuple-keyed cocycle representatives
    pivots: dict  # delta_(p-1)'s image echelon, then rep i labelled ~i


class CochainComplexQ:
    """Coboundary matrices and cohomology data of a simplicial complex."""

    def __init__(self, cx: SimplicialComplex):
        self.cx = cx
        self.dim = cx.dim
        self._delta_cols: dict[int, list[dict]] = {p: cx.coboundary(p) for p in range(self.dim + 1)}
        self._image_echelon: dict[int, dict] = {}
        self._basis: dict[int, CohomologyBasis] = {}

    # -- indexing helpers --------------------------------------------

    def to_indexed(self, cochain: Cochain, p: int) -> dict:
        idx = self.cx.index[p]
        return {idx[s]: v for s, v in cochain.items() if v}

    def _delta(self, cochain: Cochain, p: int) -> dict:
        """delta_p of a tuple-keyed cochain, indexed."""
        cols, idx = self._delta_cols[p], self.cx.index[p]
        out: dict[int, Fraction] = {}
        for s, v in cochain.items():
            add_scaled(out, cols[idx[s]], v)
        return out

    def is_cocycle(self, cochain: Cochain, p: int) -> bool:
        return p == self.dim or not self._delta(cochain, p)

    # -- ranks and betti ---------------------------------------------

    def rank_delta(self, p: int) -> int:
        """Rank of the coboundary C^p -> C^(p+1): one pivot per dimension
        of its image."""
        return len(self.image_echelon(p + 1))

    def image_echelon(self, p: int) -> dict:
        """Echelonized image of delta_(p-1) inside C^p.  Its columns at the
        pivot rows of delta_(p-2)'s echelon go in empty (clearing): as delta^2
        = 0 and a pivot is its column's largest row, they reduce to zero.
        An apparent column is its own pivot, so pivot columns can be the
        delta columns themselves: neither may be mutated."""
        if p not in self._image_echelon:
            if p <= 0 or p > self.dim:
                self._image_echelon[p] = {}
            else:
                cleared = self.image_echelon(p - 1)
                cols = [{} if j in cleared else col for j, col in enumerate(self._delta_cols[p - 1])]
                self._image_echelon[p] = build_echelon(cols)[0]
        return self._image_echelon[p]

    def betti(self, p: int) -> int:
        if p < 0 or p > self.dim:
            return 0
        return self.cx.count(p) - self.rank_delta(p) - self.rank_delta(p - 1)

    def betti_numbers(self) -> list[int]:
        return [self.betti(p) for p in range(self.dim + 1)]

    # -- cohomology bases --------------------------------------------

    def cohomology_basis(self, p: int, candidates: Optional[list[Cochain]] = None) -> CohomologyBasis:
        """Cocycles whose classes are a basis of H^p: the candidates, or
        kernel vectors of delta_p, each kept when its class is new.  The
        pivots start as a copy of delta_(p-1)'s image echelon, since
        `image_echelon(p + 1)` clears columns by that dict's keys."""
        if p in self._basis:
            return self._basis[p]
        b = self.betti(p)
        basis = CohomologyBasis([], dict(self.image_echelon(p)))

        def keep(cocycle: Cochain) -> bool:
            if insert(basis.pivots, {**self.to_indexed(cocycle, p), ~len(basis.reps): 1}):
                basis.reps.append(cocycle)
                return True
            return False

        if b and candidates is not None:
            for cand in candidates:
                if not self.is_cocycle(cand, p):
                    raise ValueError(f"candidate in degree {p} is not a cocycle")
                keep(dict(cand))
            if len(basis.reps) != b:
                raise ValueError(
                    f"candidates span {len(basis.reps)} of {b} dimensions in degree {p}"
                )
        elif b:
            simplices = self.cx.simplices[p]
            kernel_search(self._delta_cols[p], lambda comb: keep({simplices[j]: c for j, c in comb.items()}), b)
            if len(basis.reps) != b:
                raise AssertionError("kernel search did not span cohomology")
        self._basis[p] = basis
        return basis

    def coords(self, cochain: Cochain, p: int) -> list[Fraction]:
        """Coordinates of a cocycle's class in the degree-p basis: the
        negated labels left when it reduces to labels alone."""
        basis = self.cohomology_basis(p)
        v = self.to_indexed(cochain, p)
        reduce_against(v, basis.pivots)
        if max(v, default=-1) >= 0:
            raise ValueError("cochain is not in the span of the cohomology basis")
        return [-v.get(~i, 0) for i in range(len(basis.reps))]


def cup_product(cx: SimplicialComplex, alpha: Cochain, p: int, beta: Cochain, q: int) -> Cochain:
    """Cup product by front face: each front face in alpha's support, times
    beta on the back faces of the (p+q)-cells that it splits off, with the
    complex's sign.  On a simplicial complex that is Alexander-Whitney on
    the fixed vertex order, one split per simplex; on a product it is the
    sum over the splits of sigma x tau at a vertex of each factor."""
    out: Cochain = {}
    for front, a in alpha.items():
        if a:
            for s, back, sign in cx.splits(front, p + q):
                b = beta.get(back)
                if b:
                    out[s] = out.get(s, 0) + sign * a * b
    return {s: v for s, v in out.items() if v}


def cup_power(cx: SimplicialComplex, alpha: Cochain, p: int, k: int) -> tuple[Cochain, int]:
    """k-fold cup power of a p-cochain; returns (cochain, degree)."""
    if k == 0:
        unit = dict.fromkeys(cx.simplices[0], 1)
        return unit, 0
    acc, deg = dict(alpha), p
    for _ in range(k - 1):
        acc = cup_product(cx, acc, deg, alpha, p)
        deg += p
    return acc, deg


@dataclass
class InvariantDegree:
    projector: list[list[Fraction]]  # the average of the action matrices, in the full basis
    cochains: list  # cocycles whose classes are a basis of the invariant classes

    @property
    def dim(self) -> int:
        return len(self.cochains)

    def fixes(self, x: list) -> bool:  # a class is invariant iff the projector fixes its coordinates
        return all(sum(a * b for a, b in zip(row, x)) == xi for row, xi in zip(self.projector, x))


class InvariantCohomology:
    """Averaging projector and invariant bases, degree by degree."""

    def __init__(self, complex_q: CochainComplexQ, action: SimplicialGroupAction):
        self.cq = complex_q
        self.action = action
        self._data: dict[int, InvariantDegree] = {}

    def degree(self, p: int) -> InvariantDegree:
        if p in self._data:
            return self._data[p]
        reps = self.cq.cohomology_basis(p).reps
        b = len(reps)
        # column j averages g* rep_j over the group, in the full basis;
        # element 0 is the identity, so the sum starts at e_j
        cols = [[Fraction(int(i == j)) for i in range(b)] for j in range(b)]
        for e in self.action.elements[1:]:
            for col, rep in zip(cols, reps):
                for i, x in enumerate(self.cq.coords(self.action.pullback_cochain(e, rep, p), p)):
                    col[i] += x
        cols = [[x / self.action.k for x in col] for col in cols]
        # the invariant classes are the column space of the projector; an
        # integral entry combines the reps as an int
        pivots: dict = {}
        cochains = []
        for col in cols:
            if insert(pivots, {i: x for i, x in enumerate(col) if x}):
                acc: Cochain = {}
                for coeff, rep in zip(col, reps):
                    if coeff:
                        add_scaled(acc, rep, coeff.numerator if coeff.denominator == 1 else coeff)
                cochains.append(acc)
        data = InvariantDegree([list(row) for row in zip(*cols)], cochains)
        self._data[p] = data
        return data

    def invariant_betti(self, p: int) -> int:
        return self.degree(p).dim


@dataclass
class KahlerClassRep:
    cochain: Cochain
    n: int
    pairing: Fraction


def kahler_class(
    invariant: InvariantCohomology,
    cycle: dict[Simplex, int],
    n: int,
    explicit: Optional[Cochain] = None,
) -> KahlerClassRep:
    """An invariant 2-cocycle whose top cup power pairs nonzero with the
    cycle on every component orbit, normalized to integers.

    The invariant 0-cocycles are constant on each orbit of the connected
    components, so their values sort the vertices into the orbits.  Each
    orbit keeps the first candidate (an explicit one, then the invariant
    degree-2 basis) that is an invariant cocycle whose restriction to the
    orbit has a top power pairing nonzero; the restriction is the cup
    with the orbit's indicator 0-cochain.  The orbits share no vertex,
    so omega, the sum of the kept restrictions, pairs as their sum.
    """
    cq = invariant.cq
    cx = cq.cx
    candidates = ([] if explicit is None else [explicit]) + invariant.degree(2).cochains
    orbits: dict = {}
    vertices = cx.simplices[0]
    for v, key in zip(vertices, zip(*(map(c.get, vertices) for c in invariant.degree(0).cochains))):
        orbits.setdefault(key, {})[v] = 1
    omega, pairing = {}, Fraction(0)
    for orbit in orbits.values():
        for cand in candidates:
            if not cq.is_cocycle(cand, 2):
                continue
            part = cup_product(cx, orbit, 0, cand, 2)
            part_pairing = pair_with_cycle(cup_power(cx, part, 2, n)[0], cycle)
            if part_pairing and invariant.degree(2).fixes(cq.coords(cand, 2)):
                omega.update(part)
                pairing += part_pairing
                break
        else:
            raise NoKahlerClass("no invariant degree-2 class has nonzero top cup power on a component orbit")
    # the cup power is multilinear, so scaling scales the pairing by scale^n
    scale = lcm(*(v.denominator for v in omega.values()))
    scaled = {s: v.numerator * (scale // v.denominator) for s, v in omega.items()}
    return KahlerClassRep(scaled, n, scale**n * pairing)


def lefschetz_verify(
    invariant: InvariantCohomology, omega: KahlerClassRep, k: int
) -> Verdict:
    """Cup with omega^k from invariant H^(n-k) to H^(n+k) is an isomorphism.
    The images are invariant, as omega is, so their rank in the full
    basis of H^(n+k) is the rank of the map."""
    n = omega.n
    cq = invariant.cq
    src = invariant.degree(n - k)
    tgt = invariant.degree(n + k)
    power, pdeg = cup_power(cq.cx, omega.cochain, 2, k)
    cols = []
    for alpha in src.cochains:
        image = cup_product(cq.cx, alpha, n - k, power, pdeg) if k else dict(alpha)
        cols.append(cq.coords(image, n + k))
    return _full_rank(cols, src.dim, tgt.dim)


def _full_rank(matrix: list[list[Fraction]], source: int, target: int) -> Verdict:
    """Passes when the source and target dimensions agree and the matrix
    between them has full rank."""
    rank = dense_rank(matrix)
    return Verdict(source == target == rank, f"rank={rank} dims={source}x{target}")


def poincare_duality_verify(
    invariant: InvariantCohomology, cycle: dict[Simplex, int], n: int
) -> list[Verdict]:
    """Cup pairing of invariant H^p with H^(2n-p) against the cycle, p = 0..2n.
    <a cup b, z> = <b, z cap a>: one walk over a's support by front face
    builds the cycle z cap a as a map from back face to value, and each
    entry of a's row pairs b with it.  Only p = n..2n are walked: on
    cocycles <b cup a, z> = (-1)^(p(2n-p)) <a cup b, z> by Steenrod's cup-1
    formula, so the matrix for p < n is, up to that sign, the transpose of
    the one for 2n - p, and has its rank."""
    cx = invariant.cq.cx
    matrices = {}
    for p in range(n, 2 * n + 1):
        matrix = matrices[p] = []
        for a in invariant.degree(p).cochains:
            cap: Cochain = {}
            for front, x in a.items():
                for s, back, sign in cx.splits(front, 2 * n):
                    cap[back] = cap.get(back, 0) + sign * x * cycle[s]
            matrix.append([pair_with_cycle(b, cap) for b in invariant.degree(2 * n - p).cochains])
        if p > n:
            matrices[2 * n - p] = [list(row) for row in zip(*matrix)]
    return [_full_rank(matrices[p], invariant.degree(p).dim, invariant.degree(2 * n - p).dim) for p in range(2 * n + 1)]
