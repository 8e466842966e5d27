"""Exact linear algebra: every elimination in orbcheck runs here.

Sparse vectors are dicts row-index -> int or Fraction.  Coboundary
columns arrive as ints (+-1), and a unit pivot reduces with integer
multiples only, so their echelons stay integer; a Fraction appears only
where a non-unit pivot or a rational input needs one.  Every pivot
column stores its largest nonzero row (its leading row) as the pivot,
so reduction can walk rows in decreasing order with a lazy heap and
terminates without fill surprises.  `reduce_against` is the one sparse
reduction.  `build_echelon` stops each column at its leading row, the
first row counting down without a pivot, as persistence reduction
does: the pivot rows and the rank do not depend on the rows below.
Residues and `TrackedEchelon` reduce fully, and a full residue is
canonical against either kind of echelon, since a nonzero combination
of pivot columns is nonzero at its largest pivot row.
`TrackedEchelon` records the steps to write each pivot column as a
combination of the inserted vectors (coordinates and kernel
relations).  There is no second, dense elimination: a small dense
matrix enters as sparse vectors of exact Fractions, and its rank,
determinant and solve are read off these same echelons.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Iterable, Optional

SparseVec = dict  # row index -> int or Fraction


def add_scaled(acc: SparseVec, v: SparseVec, c) -> SparseVec:
    """acc += c * v in place, dropping the entries that cancel."""
    get = acc.get
    for i, x in v.items():
        nv = get(i, 0) + c * x
        if nv:
            acc[i] = nv
        else:
            acc.pop(i, None)
    return acc


def reduce_against(
    v: SparseVec,
    pivots: dict[int, tuple[SparseVec, Fraction]],
    record: Optional[list] = None,
    lead: bool = False,
) -> SparseVec:
    """Reduce v in place against an echelon set; returns the residue.

    Every pivot column has its pivot at its maximum row, so reduction
    only introduces entries at smaller rows.  The factor c / pivot is
    c * pivot on a +-1 pivot, which keeps integer entries integer; any
    other pivot takes the exact Fraction.  With a `record` list, each
    step appends (pivot row, factor): v lost factor times that column.
    With `lead`, reduction stops at the first nonzero row without a
    pivot, which is then v's largest row; the rows below stay as they
    are.
    """
    heap = [-r for r in v]
    heapq.heapify(heap)
    get, push = v.get, heapq.heappush
    while heap:
        r = -heapq.heappop(heap)
        c = get(r)
        if not c:
            continue
        piv = pivots.get(r)
        if piv is None:
            if lead:
                break
            continue
        pcol, pcoeff = piv
        factor = c * pcoeff if pcoeff == 1 or pcoeff == -1 else Fraction(c) / pcoeff
        # add_scaled inlined: a row new to v also goes onto the heap
        for row, val in pcol.items():
            old = get(row)
            if old is None:
                push(heap, -row)
                v[row] = -factor * val
            else:
                nv = old - factor * val
                if nv:
                    v[row] = nv
                else:
                    del v[row]
        if record is not None:
            record.append((r, factor))
    return v


def build_echelon(columns: Iterable[SparseVec]) -> tuple[dict, int]:
    """Column echelon of a sparse matrix; returns (pivots, rank).  Each
    column is reduced down to its leading row only."""
    pivots: dict[int, tuple[SparseVec, Fraction]] = {}
    rank = 0
    for col in columns:
        v = dict(col)
        reduce_against(v, pivots, lead=True)
        if v:
            r = max(v)
            pivots[r] = (v, v[r])
            rank += 1
    return pivots, rank


class TrackedEchelon:
    """Echelon set that writes each pivot column as a combination of the
    vectors inserted so far, keyed by their labels."""

    def __init__(self):
        self.pivots: dict[int, tuple[SparseVec, Fraction]] = {}
        self.coords: dict[int, SparseVec] = {}  # pivot row -> combination

    def reduce(self, v: SparseVec, comb: SparseVec) -> tuple[SparseVec, SparseVec]:
        """Residue of a copy of v, and comb minus the combination removed.

        Started from comb = {label: 1} for a vector labelled `label`, the
        residue equals the returned combination of the inserted vectors;
        an empty residue makes that combination a kernel relation.
        """
        v = dict(v)
        record: list = []
        reduce_against(v, self.pivots, record)
        for prow, factor in record:
            add_scaled(comb, self.coords[prow], -factor)
        return v, comb

    def add(self, residue: SparseVec, comb: SparseVec) -> None:
        r = max(residue)
        self.pivots[r] = (residue, residue[r])
        self.coords[r] = comb

    def insert(self, v: SparseVec) -> bool:
        """Insert v as the next basis vector unless it lies in the span."""
        residue, comb = self.reduce(v, {len(self.coords): 1})
        if residue:
            self.add(residue, comb)
        return bool(residue)

    def express(self, v: SparseVec) -> Optional[list[Fraction]]:
        """Coordinates of v in the inserted basis, or None if outside."""
        residue, comb = self.reduce(v, {})
        if residue:
            return None
        return [-comb.get(i, 0) for i in range(len(self.coords))]


def kernel_search(
    columns: list[SparseVec],
    keep: Callable[[SparseVec], bool],
    want: int,
) -> int:
    """Echelonize columns while harvesting kernel combinations.

    A column that reduces to zero gives a combination of columns in the
    kernel, which is offered to `keep`.  Tracking stops once `want`
    kernel vectors were accepted (the remaining pass still counts rank).
    Returns the rank.
    """
    ech = TrackedEchelon()
    found = 0
    for j, col in enumerate(columns):
        if found < want:
            residue, comb = ech.reduce(col, {j: 1})
            if residue:
                ech.add(residue, comb)
            elif keep(comb):
                found += 1
        else:
            residue = reduce_against(dict(col), ech.pivots)
            if residue:
                ech.add(residue, {})
    return len(ech.pivots)


# -- small dense matrices -------------------------------------------------


def _sparse(vectors) -> list[SparseVec]:
    """Dense vectors as sparse ones with exact Fraction entries."""
    return [{i: Fraction(x) for i, x in enumerate(vec) if x} for vec in vectors]


def dense_rank(rows: list[list]) -> int:
    """Rank of a small dense matrix: the rank of its rows."""
    return build_echelon(_sparse(rows))[1]


def dense_det(rows: list[list]) -> Fraction:
    """Exact determinant of a square matrix, read off the echelon of its
    rows.  Reducing a row against earlier ones keeps the determinant, and
    a reduced row has no entry right of its leading column, so the rows
    ordered by leading column are triangular: the determinant is the
    sign of that order times the product of the pivots."""
    pivots, rank = build_echelon(_sparse(rows))
    if rank < len(rows):
        return Fraction(0)
    order = list(pivots)
    det = Fraction((-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1 :]))
    for _, pcoeff in pivots.values():
        det *= pcoeff
    return det


def dense_solve(a: list[list], b: list) -> Optional[list[Fraction]]:
    """One solution of A x = b over Q, or None when inconsistent.  Only
    the columns outside the span of earlier ones carry a coordinate, so
    the free variables are zero."""
    ech = TrackedEchelon()
    kept = [j for j, col in enumerate(_sparse(zip(*a))) if ech.insert(col)]
    coords = ech.express(_sparse([b])[0])
    if coords is None:
        return None
    x = [Fraction(0)] * (len(a[0]) if a else 0)
    for j, c in zip(kept, coords):
        x[j] = c
    return x


def _exact_root(n: int, m: int) -> Optional[int]:
    """The integer m-th root of n >= 1, if there is one.  Integer Newton
    steps from 2 ** ceil(bits / m), above the root, fall to floor(n ** (1/m))."""
    x = 1 << -(-n.bit_length() // m)
    while (y := ((m - 1) * x + n // x ** (m - 1)) // m) < x:
        x = y
    return x if x**m == n else None


def rational_root(value: Fraction, m: int) -> Optional[Fraction]:
    """The positive rational m-th root of value, if one exists."""
    if value <= 0:
        return None
    p, q = _exact_root(value.numerator, m), _exact_root(value.denominator, m)
    return None if p is None or q is None else Fraction(p, q)
