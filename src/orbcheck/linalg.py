"""Exact linear algebra: every elimination in orbcheck runs here.

Sparse vectors are dicts row-index -> int or Fraction.  Coboundary
columns arrive as ints (+-1), and a unit pivot reduces with integer
multiples only, so their echelons stay integer; a Fraction appears only
where a non-unit pivot or a rational input needs one.  Every pivot
column stores its largest nonzero row (its leading row) as the pivot,
so reduction can walk rows in decreasing order with a lazy heap and
terminates without fill surprises.  `reduce_against` is the one sparse
reduction, and it stops a vector at its leading row, the first row
counting down without a pivot, as persistence reduction does: the pivot
rows and the rank do not depend on the rows below.  `insert` is the one
step that adds a pivot column.  A vector whose largest row has no pivot
yet (an apparent pair, in Ripser's terms) needs no reduction at all: it
becomes a pivot column as it is, so pivot columns can be the caller's
dicts and are only ever read.  Coordinates and kernel relations ride in
the vectors: a labelled vector carries its combination at label rows
~j = -1 - j, below every real row, so no label is ever a pivot and the
one reduction moves the labels along with the real entries (R = D V).
There is no second, dense elimination: a small dense matrix enters as
sparse vectors of its entries as given, and its rank, determinant and
solve are read off these same echelons, so an integer matrix reduces on
unit pivots with integers as the coboundaries do.  Nothing here is a
float: an entry is an int until a division makes it a Fraction.
`sort_sign` is orbcheck's one permutation parity: determinants, simplex
images under a vertex map and wedges of forms take their sign from it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Iterable, Optional

SparseVec = dict  # row index -> int or Fraction


def sort_sign(seq) -> tuple[tuple, int]:
    """Distinct entries sorted, and the sign of the sorting permutation:
    -1 to the number of pairs that stand out of order."""
    sign = 1
    for i, a in enumerate(seq):
        for b in seq[i + 1 :]:
            if a > b:
                sign = -sign
    return tuple(sorted(seq)), sign


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


def reduce_against(v: SparseVec, pivots: dict[int, tuple[SparseVec, Fraction]]) -> SparseVec:
    """Reduce v in place down to its leading row; returns v.

    Every pivot column has its pivot at its maximum row, so reduction
    only introduces entries at smaller rows.  The factor c / pivot is
    c * pivot on a +-1 pivot, which keeps integer entries integer; any
    other pivot takes the exact Fraction.  Reduction stops at the first
    nonzero row without a pivot, which is then v's largest row; the rows
    below stay as they are.  The pivot columns are only read.
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
            break
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
    return v


def insert(pivots: dict[int, tuple[SparseVec, Fraction]], v: SparseVec) -> bool:
    """Reduce v in place down to its leading row; if a real row (>= 0)
    is left, v becomes the pivot column there.  An apparent v, whose
    largest row has no pivot yet, goes in as it is.  A labelled vector
    carries its combination at rows below every real one (label j at
    row ~j), so the labels left on a v that reduced to them alone are
    the relation it satisfies."""
    r = max(v) if v else -1
    if r in pivots:
        reduce_against(v, pivots)
        r = max(v) if v else -1
    if r < 0:
        return False
    pivots[r] = (v, v[r])
    return True


def build_echelon(columns: Iterable[SparseVec]) -> tuple[dict, int]:
    """Column echelon of a sparse matrix; returns (pivots, rank).  Each
    column is reduced down to its leading row only.  An apparent column
    goes in uncopied, so the caller's dicts may be pivot columns, and
    nothing may mutate them afterwards; only the other columns are
    copied and reduced."""
    pivots: dict[int, tuple[SparseVec, Fraction]] = {}
    for col in columns:
        if col:
            insert(pivots, dict(col) if max(col) in pivots else col)
    return pivots, len(pivots)


def kernel_search(
    columns: list[SparseVec],
    keep: Callable[[SparseVec], bool],
    want: int,
) -> int:
    """Echelonize columns while harvesting kernel combinations.

    Column j enters labelled ~j; one that reduces to labels alone gives
    a combination of columns in the kernel, which is offered to `keep`.
    The search stops at the `want`-th accepted kernel vector and reads
    no column after it.  Returns the rank of the columns read.
    """
    pivots: dict[int, tuple[SparseVec, Fraction]] = {}
    found = 0
    for j, col in enumerate(columns):
        v = {**col, ~j: 1}
        if not insert(pivots, v) and keep({~r: c for r, c in v.items()}):
            found += 1
            if found == want:
                break
    return len(pivots)


# -- small dense matrices -------------------------------------------------


def _sparse(vectors) -> list[SparseVec]:
    """Dense vectors as sparse ones with their entries as given, fresh
    dicts that `build_echelon` may keep as its pivot columns."""
    return [{i: x for i, x in enumerate(vec) if x} for vec in vectors]


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
    det = Fraction(sort_sign(tuple(pivots))[1])
    for _, pcoeff in pivots.values():
        det *= pcoeff
    return det


def dense_solve(a: list[list], b: list) -> Optional[list[Fraction]]:
    """One solution of A x = b over Q, or None when inconsistent.  Only
    the columns outside the span of earlier ones carry a coordinate, so
    the free variables are zero."""
    pivots: dict[int, tuple[SparseVec, Fraction]] = {}
    for j, col in enumerate(_sparse(zip(*a))):
        insert(pivots, {**col, ~j: 1})
    v = _sparse([b])[0]
    if insert(pivots, v):  # a real row is left: b is outside the span
        return None
    return [-Fraction(v.get(~j, 0)) for j in range(len(a[0]) if a else 0)]


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
