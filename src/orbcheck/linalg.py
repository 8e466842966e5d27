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
relations).  Small dense matrices go through one forward elimination,
`_echelon`, read as a rank, a determinant or a solve.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Iterable, Optional

SparseVec = dict  # row index -> int or Fraction


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
            for cj, cv in self.coords[prow].items():
                nv = comb.get(cj, 0) - factor * cv
                if nv:
                    comb[cj] = nv
                else:
                    comb.pop(cj, None)
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


def _echelon(rows: list[list], ncols: int):
    """Forward elimination on a copy of rows, largest-magnitude pivots.

    Pivots are sought in the first ncols columns; later columns ride
    along (the right-hand side of a solve).  Entries become floats if any
    entry is a float, Fractions otherwise.  Returns (m, cols, sign, num):
    row i of m holds the pivot of column cols[i], the rows after
    len(cols) are zero in the first ncols columns, sign is the parity of
    the row swaps and num the entry type.
    """
    num = float if any(isinstance(x, float) for row in rows for x in row) else Fraction
    m = [list(map(num, row)) for row in rows]
    nrows = len(m)
    width = len(m[0]) if m else 0
    cols: list[int] = []
    sign = 1
    for col in range(ncols):
        rank = len(cols)
        if rank == nrows:
            break
        piv, best = rank, abs(m[rank][col])
        for r in range(rank + 1, nrows):
            if abs(m[r][col]) > best:
                piv, best = r, abs(m[r][col])
        if not best:
            continue
        pv = m[piv][col]
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        prow = m[rank]
        for r in range(rank + 1, nrows):
            row = m[r]
            if row[col]:
                f = row[col] / pv
                for c in range(col + 1, width):
                    row[c] -= f * prow[c]
        cols.append(col)
    return m, cols, sign, num


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a small dense matrix."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def dense_det(rows: list[list]):
    """Determinant; a float when any entry is a float, else a Fraction.

    A singular matrix gives a zero of the same type.
    """
    m, cols, sign, num = _echelon(rows, len(rows))
    if len(cols) < len(rows):
        return num(0)
    det = num(sign)
    for i in range(len(rows)):
        det *= m[i][i]
    return det


def dense_solve(a: list[list[Fraction]], b: list[Fraction]) -> Optional[list[Fraction]]:
    """One solution of A x = b over Q (free variables zero), or None
    when inconsistent."""
    ncols = len(a[0]) if a else 0
    m, cols, _, num = _echelon([list(row) + [rhs] for row, rhs in zip(a, b)], ncols)
    if any(row[ncols] for row in m[len(cols):]):
        return None
    x = [num(0)] * ncols
    for i in reversed(range(len(cols))):
        row, col = m[i], cols[i]
        acc = row[ncols]
        for c in cols[i + 1 :]:
            acc -= row[c] * x[c]
        x[col] = acc / row[col]
    return x


def rational_root(value: Fraction, m: int) -> Optional[Fraction]:
    """The positive rational m-th root of value, if one exists."""
    if value <= 0:
        return None

    def iroot(n: int) -> Optional[int]:
        if n == 0:
            return 0
        r = round(n ** (1.0 / m))
        for cand in (r - 1, r, r + 1):
            if cand >= 0 and cand**m == n:
                return cand
        return None

    p = iroot(value.numerator)
    q = iroot(value.denominator)
    if p is None or q is None:
        return None
    return Fraction(p, q)
