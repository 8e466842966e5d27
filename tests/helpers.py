"""Independent oracles used by the test suite.

These deliberately avoid the package's own elimination, cochain and
cyclotomic code: a dense fraction-free (Bareiss) rank for small
matrices, a modular elimination rank for large sparse coboundaries, the
invariant Betti numbers from orbit sums of simplices (the transfer), and
Fraction-polynomial arithmetic modulo a cyclotomic polynomial built by
its Mobius product.  The orbit-volume reference rotates and evaluates
one node at a time, apart from the package's batched orbit path, and
the Gram reference contracts the fields through the whole d x d metric
matrix, as a general metric would, rather than along its diagonal.  The
frame-class reference scans the whole chart group instead of
solving for the one candidate element.  The simplicial references walk
every simplex: pullbacks over all p-simplices rather than a cochain's
support, simpliciality over every degree rather than the facets, and
orientation signs by scanning each facet for the vertex a ridge omits,
and cup products over every (p + q)-simplex rather than one factor's
support.  The full echelon reduces each column below its leading row as
well, where the package stops at that row.  The eager gluing reference forms every lift and image before testing a
change's domain.

The last section holds constructions only the tests use: explicit
chart groups, seeded frames and right-action matrices, and the complex
embedding of a cyclotomic number.
"""

from __future__ import annotations

import cmath
import heapq
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from orbcheck.atlas import FiniteMatrixGroup, sample_grid
from orbcheck.cyclotomic import CycMatrix, CyclotomicNumber
from orbcheck.errors import OrbcheckError
from orbcheck.frame_bundle import FrameClass, UnitaryFrame, _frames_at, lift_group_action
from orbcheck.polyform import Polynomial


def bareiss_rank(matrix) -> int:
    """Fraction-free integer elimination rank (dense, exact)."""
    if not matrix or not matrix[0]:
        return 0
    denom = 1
    for row in matrix:
        for x in row:
            denom = denom * Fraction(x).denominator // __import__("math").gcd(
                denom, Fraction(x).denominator
            )
    m = [[int(Fraction(x) * denom) for x in row] for row in matrix]
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def modular_rank(columns: list[dict], nrows: int, p: int = 1_000_003) -> int:
    """Rank of a sparse rational column list by elimination mod p.

    rank_p <= rank_Q always; the suite pairs this with the package's
    claimed rank, so agreement certifies the exact value.
    """
    ncols = len(columns)
    if ncols == 0 or nrows == 0:
        return 0
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for j, col in enumerate(columns):
        for i, v in col.items():
            f = Fraction(v)
            a[i, j] = (f.numerator * pow(f.denominator, -1, p)) % p
    rank = 0
    row = 0
    for col in range(ncols):
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), -1, p)
        a[row, col:] = (a[row, col:] * inv) % p
        below = a[row + 1 :, col]
        nzr = np.nonzero(below)[0]
        if nzr.size:
            rows = row + 1 + nzr
            a[rows, col:] = (
                a[rows, col:] - np.outer(below[nzr], a[row, col:])
            ) % p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def sort_sign(perm: list[int], s: tuple) -> tuple[tuple, int]:
    """The sorted image of s under a vertex permutation on positions, and
    the sign of the permutation that sorts it, read from its cycles."""
    image = [perm[v] for v in s]
    order = sorted(range(len(image)), key=image.__getitem__)
    parity, seen = 0, set()
    for start in range(len(order)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = order[k]
            length += 1
        parity ^= max(length - 1, 0) & 1
    return tuple(sorted(image)), -1 if parity else 1


def invariant_betti(simplices: dict[int, list[tuple]], perms: list[list[int]]) -> list[int]:
    """Betti numbers of the invariant cochain complex C^G over Q.

    `simplices[p]` lists the p-simplices as sorted tuples of vertex
    positions and `perms` the group's vertex permutations on positions.
    C^G_p is spanned by the orbit sums u_s = sum_g sign(g, s) e_(g.s),
    where sign(g, s) is the parity of the permutation that sorts g.s.
    An invariant cochain is fixed by its values on one simplex per orbit,
    so the coboundary of each orbit sum is read in those coordinates and
    ranked mod p.  By the transfer, H(C^G) = H(C)^G over Q (Bredon,
    Introduction to Compact Transformation Groups, 1972, ch. III), so
    these are the dimensions of the invariant cohomology.
    """
    top = max(simplices)
    orbit_sums, rep_row = {}, {}
    for p in range(top + 1):
        sums, rows = [], {}
        for s in simplices[p]:
            if s in rows:
                continue
            u = {}
            for perm in perms:
                image, sign = sort_sign(perm, s)
                u[image] = u.get(image, 0) + sign
                rows[image] = None
            rows[s] = len(sums)
            sums.append({t: c for t, c in u.items() if c})
        # orbit members other than the representative carry no row
        rep_row[p] = {t: r for t, r in rows.items() if r is not None}
        orbit_sums[p] = sums
    ranks = {}
    for p in range(top):
        cofaces = {}
        for tau in simplices[p + 1]:
            for i in range(len(tau)):
                cofaces.setdefault(tau[:i] + tau[i + 1 :], []).append((tau, -1 if i % 2 else 1))
        columns = []
        for u in orbit_sums[p]:
            col = {}
            for t, c in u.items():
                for tau, sign in cofaces.get(t, ()):
                    row = rep_row[p + 1].get(tau)
                    if row is not None:
                        col[row] = col.get(row, 0) + sign * c
            columns.append({r: c for r, c in col.items() if c})
        ranks[p] = modular_rank(columns, len(orbit_sums[p + 1]))
    return [
        sum(1 for u in orbit_sums[p] if u) - ranks.get(p, 0) - ranks.get(p - 1, 0)
        for p in range(top + 1)
    ]


def poly_mul(a, b) -> list[Fraction]:
    """Product of Fraction polynomials (coefficients low degree first)."""
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b) -> list[Fraction]:
    size = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (size - len(a))
    b = list(b) + [Fraction(0)] * (size - len(b))
    return [x + y for x, y in zip(a, b)]


def poly_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder (padded to len(b) - 1 entries) of a by b."""
    a = [Fraction(x) for x in a] + [Fraction(0)] * len(b)
    while len(a) > len(b) - 1 and a[-1] == 0:
        a.pop()
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    rem = a[: len(b) - 1] + [Fraction(0)] * (len(b) - 1 - len(a))
    return quot, rem


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def mobius_cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Phi_n = prod_{d | n} (z^d - 1)^mu(n/d), by exact division."""
    num, den = [Fraction(1)], [Fraction(1)]
    for d in range(1, n + 1):
        if n % d == 0:
            factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
            mu = _mobius(n // d)
            if mu == 1:
                num = poly_mul(num, factor)
            elif mu == -1:
                den = poly_mul(den, factor)
    quot, rem = poly_divmod(num, den)
    assert not any(rem)
    return tuple(quot)


def cyclotomic_reduce(coeffs, n: int) -> tuple[Fraction, ...]:
    """sum_k coeffs[k] z^k as its phi(n) coordinates modulo Phi_n."""
    return tuple(poly_divmod(coeffs, mobius_cyclotomic_polynomial(n))[1])


def cyclotomic_conjugate(coeffs, n: int) -> tuple[Fraction, ...]:
    """The image of sum_k coeffs[k] z^k under z -> z^(n-1), reduced."""
    out = [Fraction(0)] * (len(coeffs) * (n - 1) + 1)
    for k, c in enumerate(coeffs):
        out[k * (n - 1)] += c
    return cyclotomic_reduce(out, n)


def matmul_by_polynomials(a, b) -> list[list[tuple[Fraction, ...]]]:
    """Entries of the product of two cyclotomic matrices as reduced
    Fraction coordinates: Fraction-polynomial products and sums of the
    entries' coordinates, reduced modulo the Mobius Phi_N."""
    out = []
    for row in a.rows:
        out_row = []
        for col in zip(*b.rows):
            acc = []
            for x, y in zip(row, col):
                acc = poly_add(acc, poly_mul(x.coeffs, y.coeffs))
            out_row.append(cyclotomic_reduce(acc, a.order))
        out.append(out_row)
    return out


def rotate_point(weights: list[int], t: float, point) -> list[float]:
    """z_k -> exp(i w_k t) z_k on (x_1, y_1, ..., x_n, y_n), one point."""
    out = []
    for k, w in enumerate(weights):
        c, s = math.cos(w * t), math.sin(w * t)
        x, y = float(point[2 * k]), float(point[2 * k + 1])
        out.extend([c * x - s * y, s * x + c * y])
    return out


def orbit_volume_per_node(gram, weights: list[int], point, nodes: int) -> float:
    """Circle integral of (det Gram)^(1/2), one node at a time.

    `gram(point)` is the 1x1 Gram matrix of the circle's fundamental
    field at a single point.
    """
    vals = []
    for idx in range(nodes):
        det = float(gram(rotate_point(weights, 2 * math.pi * idx / nodes, point))[0][0])
        assert det > 0
        vals.append(math.sqrt(det))
    return 2 * math.pi * math.fsum(vals) / nodes


def gram_by_metric_pairing(fields, point, u=1):
    """The Gram matrix as the full d x d pairing sum_ij (v_k,i g_ij) v_l,j
    in the metric g = u times the Euclidean one, its entries the constant
    polynomials 1 and 0 evaluated at the point and scaled by u."""
    d = fields[0].d
    g = [[u * Polynomial.constant(d, int(i == j)).evaluate(point) for j in range(d)] for i in range(d)]
    vals = [f.evaluate(point) for f in fields]
    return [
        [sum(vk[i] * g[i][j] * vl[j] for i in range(d) for j in range(d)) for vl in vals]
        for vk in vals
    ]


def same_class_by_scan(cls, other):
    """The element g of cls's group with g.x' = x and g xi' = xi, found by
    trying every element, or None; frame classes over different charts
    never match."""
    if cls.chart != other.chart:
        return None
    ours, theirs = cls.representative, other.representative
    for g in cls.group:
        if g.apply(theirs.basepoint) == ours.basepoint and g @ theirs.frame == ours.frame:
            return g
    return None


def pullback_by_scan(action, e: str, cochain: dict, degree: int) -> dict:
    """(e* a)(s) = sign(e, s) a(e.s), walking every p-simplex of the
    complex instead of the support of a."""
    out = {}
    for s in action.complex.simplices[degree]:
        image, sign = sort_sign(action.perms[e], s)
        val = cochain.get(image)
        if val:
            out[s] = sign * val
    return out


def transform_cycle_by_scan(action, e: str, cycle: dict) -> dict:
    """The push-forward of a signed facet sum, one facet at a time."""
    out = {}
    for s, c in cycle.items():
        image, sign = sort_sign(action.perms[e], s)
        out[image] = out.get(image, 0) + sign * c
    return out


def non_simplex_by_scan(action):
    """The first (simplex, element) whose image is not a simplex, scanning
    every simplex of every degree, or None when the action is simplicial."""
    cx = action.complex
    for p, simplices in cx.simplices.items():
        for s in simplices:
            for e in action.elements:
                if sort_sign(action.perms[e], s)[0] not in cx.index[p]:
                    return s, e
    return None


def fundamental_cycle_by_scan(cx) -> dict:
    """Coherent facet signs by ridge propagation, each ridge sign found by
    scanning the facet for the vertex the ridge omits."""
    from orbcheck.errors import NonOrientable, NotPseudomanifold

    if any(len(f) != cx.dim + 1 for f in cx.facets):
        raise NotPseudomanifold("complex is not pure")
    facets = sorted(set(cx.facets))
    ridge_to_facets = {}
    for f in facets:
        for i in range(len(f)):
            ridge_to_facets.setdefault(f[:i] + f[i + 1 :], []).append(f)
    for ridge, fs in ridge_to_facets.items():
        if len(fs) != 2:
            raise NotPseudomanifold(f"ridge {ridge} lies in {len(fs)} facets")

    def ridge_sign(facet, ridge):
        i = next(k for k, v in enumerate(facet) if v not in ridge)
        return -1 if i % 2 else 1

    signs = {}
    for start in facets:
        if start in signs:
            continue
        signs[start] = 1
        stack = [start]
        while stack:
            f = stack.pop()
            for i in range(len(f)):
                ridge = f[:i] + f[i + 1 :]
                other = next(g for g in ridge_to_facets[ridge] if g != f)
                needed = -signs[f] * ridge_sign(f, ridge) * ridge_sign(other, ridge)
                if other in signs:
                    if signs[other] != needed:
                        raise NonOrientable("orientation propagation contradiction")
                else:
                    signs[other] = needed
                    stack.append(other)
    return signs


def build_echelon_full(columns) -> tuple[dict, int]:
    """Column echelon with every column reduced all the way down: each
    row of the column, largest first, is cleared against an earlier pivot
    where one exists.  Returns (pivots, rank) like ``build_echelon``."""
    pivots = {}
    for col in columns:
        v = dict(col)
        heap = [-r for r in v]
        heapq.heapify(heap)
        while heap:
            r = -heapq.heappop(heap)
            c = v.get(r)
            if not c or r not in pivots:
                continue
            pcol, pcoeff = pivots[r]
            factor = c * pcoeff if pcoeff in (1, -1) else Fraction(c) / pcoeff
            for row, val in pcol.items():
                if row not in v:
                    heapq.heappush(heap, -row)
                nv = v.get(row, 0) - factor * val
                if nv:
                    v[row] = nv
                else:
                    del v[row]
        if v:
            r = max(v)
            pivots[r] = (v, v[r])
    return pivots, len(pivots)


def cup_by_walk(cx, alpha: dict, p: int, beta: dict, q: int) -> dict:
    """Alexander-Whitney cup product over every (p + q)-simplex."""
    out = {}
    for s in cx.simplices[p + q]:
        a, b = alpha.get(s[: p + 1]), beta.get(s[p:])
        if a and b:
            out[s] = a * b
    return out


def gluing_images_eager(atlas, cls, target) -> list:
    """Every image class of the gluing, in the order ``gluing_images``
    yields them, lifting the whole frame (g.x, g.xi) for every g before
    testing any change's domain."""
    out = []
    group = atlas.chart(target).group
    for g in cls.group:
        moved = lift_group_action(g, cls.representative)
        for phi in atlas.changes_between(cls.chart, target):
            if phi.source_domain.contains(moved.basepoint):
                image = UnitaryFrame(target, phi.apply(moved.basepoint), phi.linear @ moved.frame)
                out.append(FrameClass(target, image, group))
    return out


# -- constructions only the tests use ---------------------------------------


class DuplicateGroupElement(OrbcheckError):
    pass


def make_group(elements: list) -> FiniteMatrixGroup:
    """Wrap an explicit element list, rejecting duplicates (faithfulness)."""
    if len(set(elements)) != len(elements):
        raise DuplicateGroupElement("group elements must be distinct matrices")
    return FiniteMatrixGroup(tuple(elements))


def to_complex(x: CyclotomicNumber) -> complex:
    """The embedding zeta_N -> exp(2 pi i / N)."""
    z = cmath.exp(2j * math.pi / x.order)
    return sum(c / x.den * z**k for k, c in enumerate(x.num))


def sample_frames(chart, count: int = 10, seed: int = 7) -> list:
    """Deterministic exact unitary frames at rational grid basepoints."""
    pts = sample_grid(chart.cyclotomic_order, chart.domain, count)
    return _frames_at(chart, [pts[i % len(pts)] for i in range(count)], seed)


def right_action(frame: UnitaryFrame, a: CycMatrix) -> UnitaryFrame:
    """Right U(n)-action: basepoint fixed, frame part xi A."""
    return UnitaryFrame(frame.chart, frame.basepoint, frame.frame @ a)


def equivariance_samples(chart) -> list:
    """Right-action samples: zeta-power monomial matrices, unitary by construction."""
    order, n = chart.cyclotomic_order, chart.n
    diag = [[int(i == j) for j in range(n)] for i in range(n)]
    diag[0][0] = CyclotomicNumber.zeta(order)
    if n >= 2:
        swap = [[int((i, j) in ((0, 1), (1, 0)) or i == j > 1) for j in range(n)] for i in range(n)]
    else:
        swap = [[CyclotomicNumber.zeta(order, 2)]]
    return [CycMatrix.identity(order, n), CycMatrix(order, diag), CycMatrix(order, swap)]
