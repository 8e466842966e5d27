"""Simplicial cohomology over exact rationals with group averaging,
Alexander-Whitney cup products, and the Lefschetz / duality verdicts.

Cochains exposed to callers are dicts keyed by sorted vertex-position
tuples; the linear algebra runs on integer-indexed sparse vectors.
Coboundary entries are the ints +-1, and cochain values stay ints until
a non-unit pivot or a rational input (an averaged class, a normalized
Kahler form) brings in a Fraction.  delta_(p-1)'s echelon skips the columns
cleared by delta_(p-2)'s pivots and reduces each column down to its
leading row only; residues reduce fully.  Actions are simplicial when
their facets map to simplices, pullbacks walk a cochain's support, cup
products walk alpha's support by front face, and the orientation is
read off delta_(d-1).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from typing import Optional

from .errors import NoKahlerClass
from .linalg import (
    TrackedEchelon,
    build_echelon,
    dense_rank,
    dense_solve,
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

Cochain = dict  # Simplex -> Fraction


@dataclass
class CohomologyBasis:
    degree: int
    reps: list  # tuple-keyed cocycle representatives
    echelon: TrackedEchelon


class CochainComplexQ:
    """Coboundary matrices and cohomology data of a simplicial complex."""

    def __init__(self, cx: SimplicialComplex):
        self.cx = cx
        self.dim = cx.dim
        self._delta_cols: dict[int, list[dict]] = {p: cx.coboundary(p) for p in range(self.dim + 1)}
        self._image_echelon: dict[int, dict] = {}
        self._rank: dict[int, int] = {}
        self._basis: dict[int, CohomologyBasis] = {}

    # -- indexing helpers --------------------------------------------

    def to_indexed(self, cochain: Cochain, p: int) -> dict:
        idx = self.cx.index[p]
        return {idx[s]: v for s, v in cochain.items() if v}

    def to_tuple_keyed(self, vec: dict, p: int) -> Cochain:
        simplices = self.cx.simplices[p]
        return {simplices[i]: v for i, v in vec.items() if v}

    def apply_delta(self, cochain: Cochain, p: int) -> Cochain:
        cols = self._delta_cols[p]
        out: dict[int, Fraction] = {}
        for s, v in cochain.items():
            j = self.cx.index[p][s]
            for row, c in cols[j].items():
                nv = out.get(row, 0) + v * c
                if nv:
                    out[row] = nv
                else:
                    out.pop(row, None)
        return self.to_tuple_keyed(out, p + 1)

    def is_cocycle(self, cochain: Cochain, p: int) -> bool:
        return p == self.dim or not self.apply_delta(cochain, p)

    # -- ranks and betti ---------------------------------------------

    def rank_delta(self, p: int) -> int:
        """Rank of the coboundary C^p -> C^(p+1)."""
        if p < 0 or p >= self.dim:
            return 0
        if p not in self._rank:
            self.image_echelon(p + 1)
        return self._rank[p]

    def image_echelon(self, p: int) -> dict:
        """Echelonized image of delta_(p-1) inside C^p.  Its columns at the
        pivot rows of delta_(p-2)'s echelon go in empty (clearing): as delta^2
        = 0 and a pivot is its column's largest row, they reduce to zero."""
        if p not in self._image_echelon:
            if p == 0 or p > self.dim:
                self._image_echelon[p] = {}
            else:
                cleared = self.image_echelon(p - 1)
                cols = [{} if j in cleared else col for j, col in enumerate(self._delta_cols[p - 1])]
                pivots, rank = build_echelon(cols)
                self._image_echelon[p] = pivots
                self._rank[p - 1] = rank
        return self._image_echelon[p]

    def betti(self, p: int) -> int:
        if p < 0 or p > self.dim:
            return 0
        return self.cx.count(p) - self.rank_delta(p) - self.rank_delta(p - 1)

    def betti_numbers(self) -> list[int]:
        return [self.betti(p) for p in range(self.dim + 1)]

    def residue(self, vec: dict, p: int) -> dict:
        """Canonical representative of a cochain modulo coboundaries."""
        v = dict(vec)
        reduce_against(v, self.image_echelon(p))
        return v

    # -- cohomology bases --------------------------------------------

    def cohomology_basis(self, p: int, candidates: Optional[list[Cochain]] = None) -> CohomologyBasis:
        if p in self._basis:
            return self._basis[p]
        b = self.betti(p)
        basis = CohomologyBasis(p, [], TrackedEchelon())
        if b == 0:
            self._basis[p] = basis
            return basis
        if candidates is not None:
            for cand in candidates:
                if not self.is_cocycle(cand, p):
                    raise ValueError(f"candidate in degree {p} is not a cocycle")
                res = self.residue(self.to_indexed(cand, p), p)
                if basis.echelon.insert(res):
                    basis.reps.append(dict(cand))
            if len(basis.reps) != b:
                raise ValueError(
                    f"candidates span {len(basis.reps)} of {b} dimensions in degree {p}"
                )
        else:
            simplices = self.cx.simplices[p]

            def keep(comb: dict) -> bool:
                cocycle = {simplices[j]: c for j, c in comb.items()}
                res = self.residue(self.to_indexed(cocycle, p), p)
                if basis.echelon.insert(res):
                    basis.reps.append(cocycle)
                    return True
                return False

            rank = kernel_search(self._delta_cols[p], keep, b)
            self._rank[p] = rank
            if len(basis.reps) != b:
                raise AssertionError("kernel search did not span cohomology")
        self._basis[p] = basis
        return basis

    def coords(self, cochain: Cochain, p: int) -> list[Fraction]:
        """Coordinates of a cocycle's class in the degree-p basis."""
        basis = self.cohomology_basis(p)
        res = self.residue(self.to_indexed(cochain, p), p)
        out = basis.echelon.express(res)
        if out is None:
            raise ValueError("cochain is not in the span of the cohomology basis")
        return out


def cup_product(cx: SimplicialComplex, alpha: Cochain, p: int, beta: Cochain, q: int) -> Cochain:
    """Alexander-Whitney cup product on the fixed vertex order: each
    front face in alpha's support, times beta on the back faces of the
    (p+q)-simplices that begin with it.  Those simplices are contiguous
    in the sorted simplex list, between front and front + (inf,)."""
    simplices = cx.simplices[p + q]
    out: Cochain = {}
    for front, a in alpha.items():
        if not a:
            continue
        lo = bisect_left(simplices, front)
        for s in simplices[lo : bisect_left(simplices, front + (inf,), lo)]:
            b = beta.get(s[p:])
            if b:
                out[s] = a * b
    return out


def cup_power(cx: SimplicialComplex, alpha: Cochain, p: int, k: int) -> tuple[Cochain, int]:
    """k-fold cup power of a p-cochain; returns (cochain, degree)."""
    if k == 0:
        unit = {s: Fraction(1) for s in cx.simplices[0]}
        return unit, 0
    acc, deg = dict(alpha), p
    for _ in range(k - 1):
        acc = cup_product(cx, acc, deg, alpha, p)
        deg += p
    return acc, deg


@dataclass
class InvariantDegree:
    degree: int
    projector: list[list[Fraction]]
    vectors: list[list[Fraction]]  # invariant classes, coords in the full basis
    cochains: list  # matching cocycle representatives

    @property
    def dim(self) -> int:
        return len(self.vectors)


class InvariantCohomology:
    """Averaging projector and invariant bases, degree by degree."""

    def __init__(self, complex_q: CochainComplexQ, action: SimplicialGroupAction):
        self.cq = complex_q
        self.action = action
        self._data: dict[int, InvariantDegree] = {}

    def action_matrix(self, e: str, p: int) -> list[list[Fraction]]:
        basis = self.cq.cohomology_basis(p)
        b = len(basis.reps)
        cols = []
        for rep in basis.reps:
            pulled = self.action.pullback_cochain(e, rep, p)
            cols.append(self.cq.coords(pulled, p))
        return [[cols[j][i] for j in range(b)] for i in range(b)]

    def degree(self, p: int) -> InvariantDegree:
        if p in self._data:
            return self._data[p]
        basis = self.cq.cohomology_basis(p)
        b = len(basis.reps)
        elements = self.action.elements
        # g0 is the identity permutation, whose action matrix is I: start
        # the sum there
        proj = [[Fraction(int(i == j)) for j in range(b)] for i in range(b)]
        for e in elements[1:]:
            mat = self.action_matrix(e, p)
            for i in range(b):
                for j in range(b):
                    proj[i][j] += mat[i][j]
        proj = [[x / len(elements) for x in row] for row in proj]
        # invariant subspace = column space of the projector
        ech = TrackedEchelon()
        vectors = []
        for j in range(b):
            col = {i: proj[i][j] for i in range(b) if proj[i][j]}
            if ech.insert(col):
                vectors.append([proj[i][j] for i in range(b)])
        cochains = []
        for vec in vectors:
            acc: Cochain = {}
            for coeff, rep in zip(vec, basis.reps):
                if not coeff:
                    continue
                for s, v in rep.items():
                    nv = acc.get(s, 0) + coeff * v
                    if nv:
                        acc[s] = nv
                    else:
                        acc.pop(s, None)
            cochains.append(acc)
        data = InvariantDegree(p, proj, vectors, cochains)
        self._data[p] = data
        return data

    def invariant_betti(self, p: int) -> int:
        return self.degree(p).dim

    def invariant_coords(self, cochain: Cochain, p: int) -> list[Fraction]:
        """Coordinates of an invariant class in the invariant basis."""
        data = self.degree(p)
        full = self.cq.coords(cochain, p)
        b = len(full)
        a = [[data.vectors[j][i] for j in range(data.dim)] for i in range(b)]
        sol = dense_solve(a, full) if data.dim else ([] if all(x == 0 for x in full) else None)
        if sol is None:
            raise ValueError("class is not invariant")
        return sol


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
    """An invariant 2-cocycle with nonvanishing top cup power.

    Scans the invariant degree-2 basis (or verifies an explicit
    candidate) and normalizes to an integer top pairing.
    """
    cq = invariant.cq
    cx = cq.cx
    candidates = []
    if explicit is not None:
        candidates.append(explicit)
    candidates.extend(invariant.degree(2).cochains)
    for cand in candidates:
        if not cq.is_cocycle(cand, 2):
            continue
        power, deg = cup_power(cx, cand, 2, n)
        pairing = pair_with_cycle(power, cycle)
        if pairing:
            # verify class-level invariance
            try:
                invariant.invariant_coords(cand, 2)
            except ValueError:
                continue
            # the cup power is multilinear, so scaling scales the pairing by scale^n
            scale = Fraction(lcm(*(v.denominator for v in cand.values())))
            scaled = {s: v * scale for s, v in cand.items()}
            return KahlerClassRep(scaled, n, scale**n * pairing)
    raise NoKahlerClass("no invariant degree-2 class has nonzero top cup power")


def lefschetz_verify(
    invariant: InvariantCohomology, omega: KahlerClassRep, k: int
) -> Verdict:
    """Cup with omega^k from invariant H^(n-k) to H^(n+k) is an isomorphism."""
    n = omega.n
    cq = invariant.cq
    src = invariant.degree(n - k)
    tgt = invariant.degree(n + k)
    power, pdeg = cup_power(cq.cx, omega.cochain, 2, k)
    cols = []
    for alpha in src.cochains:
        image = cup_product(cq.cx, alpha, n - k, power, pdeg) if k else dict(alpha)
        cols.append(invariant.invariant_coords(image, n + k))
    matrix = [[cols[j][i] for j in range(src.dim)] for i in range(tgt.dim)]
    return _full_rank(matrix, src.dim, tgt.dim)


def _full_rank(matrix: list[list[Fraction]], source: int, target: int) -> Verdict:
    """Passes when the source and target dimensions agree and the matrix
    between them has full rank."""
    rank = dense_rank(matrix) if source and target else 0
    return Verdict(source == target == rank, f"rank={rank} dims={source}x{target}")


def poincare_duality_verify(
    invariant: InvariantCohomology, cycle: dict[Simplex, int], n: int
) -> list[Verdict]:
    """Cup pairing of invariant H^p with H^(2n-p) against the cycle, p = 0..2n."""
    cq = invariant.cq
    out = []
    for p in range(2 * n + 1):
        src = invariant.degree(p)
        tgt = invariant.degree(2 * n - p)
        matrix = []
        for a in src.cochains:
            row = []
            for b in tgt.cochains:
                prod = cup_product(cq.cx, a, p, b, 2 * n - p)
                row.append(pair_with_cycle(prod, cycle))
            matrix.append(row)
        out.append(_full_rank(matrix, src.dim, tgt.dim))
    return out
