"""Independent oracles used by the test suite.

These deliberately avoid the package's own elimination, cochain and
cyclotomic code: a dense fraction-free (Bareiss) rank for small
matrices, a modular elimination rank for large sparse coboundaries, the
invariant Betti numbers from orbit sums of simplices (the transfer), and
Fraction-polynomial arithmetic modulo a cyclotomic polynomial built by
its Mobius product.  The Gram reference contracts the fields through the whole d x d metric
matrix, as a general metric would, rather than along its diagonal.  The
frame-class reference scans the whole chart group instead of
solving for the one candidate element.  The simplicial references walk
every simplex: pullbacks over all p-simplices rather than a cochain's
support, simpliciality over every degree rather than the facets, and
orientation signs by scanning each facet for the vertex a ridge omits,
and cup products over every (p + q)-simplex rather than one factor's
support; the duality matrix pairs each such cup with the cycle, where
the package caps the cycle with a source cochain, and component orbits
are joined by union-find over ridges and the generator, where the
package follows the generator from one facet per component.  The
coboundary reference drops each vertex by slicing, and the product
reference closes the staircase facets downward and projects
every simplex, where the package enumerates (simplex, simplex, path)
triples.  The full reduction clears a vector below its leading row as
well, where the package stops at that row, and the full echelon reduces
each column that way.  The lazy gluing reference
pulls each change's ball back through the class's frame, M^H (g^H c - a),
and lifts by g only for choices that pass, where the package lifts once
per group element and pulls back through the lifted frame,
(gM)^H (c - g a).  The cocycle reference walks composites through every
first-level choice and tests every pair of balls, where the package
walks those of the first group element and skips shared balls.

The last section holds constructions only the tests use: explicit
chart groups, seeded frames and right-action matrices, and the complex
embedding of a cyclotomic number.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from orbcheck.atlas import Ball, FiniteMatrixGroup
from orbcheck.cyclotomic import CycMatrix, CyclotomicNumber, vec_sub
from orbcheck.errors import OrbcheckError
from orbcheck.frame_bundle import FrameClass, UnitaryFrame, common_point, identity_class, lift_group_action
from orbcheck.polyform import Polynomial
from orbcheck.verdict import Verdict


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


def pullback_by_scan(action, e: int, cochain: dict, degree: int) -> dict:
    """(e* a)(s) = sign(e, s) a(e.s), walking every p-simplex of the
    complex instead of the support of a."""
    out = {}
    for s in action.complex.simplices[degree]:
        image, sign = sort_sign(action.perms[e], s)
        val = cochain.get(image)
        if val:
            out[s] = sign * val
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


def reduce_full(v: dict, pivots: dict) -> dict:
    """Reduce v in place all the way down; returns the residue.  Each row
    of v, largest first, is cleared against a pivot where one exists; a
    row without one stays and the reduction goes on below it.  The
    residue has no entry at a pivot row, so it is canonical: every
    echelon of one span gives the same residue, since a nonzero
    combination of pivot columns is nonzero at its largest pivot row."""
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
    return v


def build_echelon_full(columns) -> tuple[dict, int]:
    """Column echelon with every column reduced all the way down by
    ``reduce_full``.  Returns (pivots, rank) like ``build_echelon``."""
    pivots = {}
    for col in columns:
        v = reduce_full(dict(col), pivots)
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


def duality_matrix_by_cup(cx, sources: list, p: int, targets: list, q: int, cycle: dict) -> list[list[Fraction]]:
    """<a cup b, z> for every a in sources and b in targets: each cup
    product over every (p + q)-simplex, then paired with the cycle."""
    return [
        [Fraction(sum(v * cycle.get(s, 0) for s, v in cup_by_walk(cx, a, p, b, q).items())) for b in targets]
        for a in sources
    ]


def component_orbits_by_scan(cx, generator: list[int]) -> int:
    """The number of orbits of a vertex permutation on the ridge-connected
    components: classes of facets joined when they share a ridge, found
    by scanning each facet's ridges, or when the generator maps one to
    the other."""
    facets = sorted(set(cx.facets))
    parent = {f: f for f in facets}

    def root(f):
        while parent[f] != f:
            f = parent[f]
        return f

    by_ridge = {}
    for f in facets:
        for i in range(len(f)):
            other = by_ridge.setdefault(f[:i] + f[i + 1 :], f)
            parent[root(other)] = root(f)
        parent[root(tuple(sorted(generator[v] for v in f)))] = root(f)
    return sum(1 for f in facets if root(f) == f)


def coboundary_by_slicing(cx, p: int) -> list[dict]:
    """Columns of delta_p by the slicing definition: the i-th face of each
    (p+1)-simplex drops its i-th vertex and carries (-1)^i."""
    cols = [{} for _ in cx.simplices[p]]
    for row, tau in enumerate(cx.simplices.get(p + 1, [])):
        for i in range(len(tau)):
            cols[cx.index[p][tau[:i] + tau[i + 1 :]]][row] = (-1) ** i
    return cols


def product_by_closure(left, right) -> SimpleNamespace:
    """The staircase product as the downward closure of its facets, with
    pullbacks by projecting every simplex to each factor.  The staircases
    of a facet pair (p, q) are its p + q step words in lexicographic order
    with a left step before a right one, read off the positions of the p
    left steps; vertices are label pairs in factor position order."""
    vertices = sorted(
        ((a, b) for a in left.vertices for b in right.vertices),
        key=lambda ab: (left.position[ab[0]], right.position[ab[1]]),
    )
    position = {v: i for i, v in enumerate(vertices)}
    facets = []
    for sf in left.facets:
        for tf in right.facets:
            p, q = len(sf) - 1, len(tf) - 1
            for left_steps in itertools.combinations(range(p + q), p):
                i = j = 0
                cell = [(i, j)]
                for step in range(p + q):
                    if step in left_steps:
                        i += 1
                    else:
                        j += 1
                    cell.append((i, j))
                labels = [(left.vertices[sf[a]], right.vertices[tf[b]]) for a, b in cell]
                facets.append(tuple(sorted(position[v] for v in labels)))
    closure = {face for f in facets for k in range(1, len(f) + 1) for face in itertools.combinations(f, k)}
    dim = max(len(f) for f in facets) - 1
    simplices = {k: sorted(s for s in closure if len(s) == k + 1) for k in range(dim + 1)}
    index = {k: {s: i for i, s in enumerate(lst)} for k, lst in simplices.items()}

    def pullback(side, factor):
        def pull(cochain, degree):
            out = {}
            for s in simplices[degree]:
                proj = sorted(factor.position[vertices[v][side]] for v in s)
                if len(set(proj)) == len(proj) and cochain.get(tuple(proj)):
                    out[s] = cochain[tuple(proj)]
            return out

        return pull

    return SimpleNamespace(
        vertices=vertices,
        facets=facets,
        simplices=simplices,
        index=index,
        pullback_left=pullback(0, left),
        pullback_right=pullback(1, right),
    )


def gluing_images_by_preimage(atlas, cls, target) -> list:
    """Every choice of the gluing, in the order ``gluing_images`` lists
    them, testing each ball before any lift: with ``cls`` the map
    x -> Mx + a, (g, phi) applies on B(M^H (g^H c - a), r), and only a
    choice whose ball meets each ball of the region is lifted by g."""
    out = []
    group = atlas.chart(target).group
    changes = atlas.changes_between(cls.chart, target)
    rep = cls.representative
    m_h = rep.frame.conjugate_transpose()
    for index, g in enumerate(cls.group):
        g_h = g.conjugate_transpose()
        for number, phi in enumerate(changes, 1):
            dom = phi.source_domain
            ball = Ball(m_h.apply(vec_sub(g_h.apply(dom.center), rep.basepoint)), dom.radius)
            if all(ball.meets(b) for b in cls.region):
                moved = lift_group_action(g, rep)
                image = UnitaryFrame(target, phi.apply(moved.basepoint), phi.linear @ moved.frame)
                label = (cls.choice + " then " if cls.choice else "") + f"g{index} {cls.chart}->{target} #{number}"
                out.append(FrameClass(target, image, group, cls.region | {ball}, label))
    return out


def cocycle_by_full_walk(atlas, i, j, k) -> Verdict:
    """The cocycle verdict with composites through every first-level
    choice, classes by group scan, and every pair of balls tested (each
    distinct pair once)."""
    meets = lru_cache(maxsize=None)(Ball.meets)
    start = identity_class(atlas, i)
    direct = gluing_images_by_preimage(atlas, start, k)
    composite = [
        via for over_j in gluing_images_by_preimage(atlas, start, j) for via in gluing_images_by_preimage(atlas, over_j, k)
    ]
    met = witnessed = False
    for d, c in itertools.product(direct, composite):
        if all(meets(a, b) for a in d.region for b in c.region):
            if same_class_by_scan(d, c) is None:
                return Verdict(False, f"{d.choice} differs from {c.choice} where their balls meet")
            met = True
            witnessed = witnessed or common_point(d.region | c.region) is not None
    counts = f"{len(direct)} direct and {len(composite)} composite choices"
    if not met:
        return Verdict(False, f"empty triple overlap: {counts}, no two with pairwise meeting balls")
    if not witnessed:
        return Verdict(False, f"{counts} agree where they meet, but no common point of their balls is certified")
    return Verdict(True, f"{counts} agree where they meet; a common point is certified")


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
    """Deterministic exact unitary frames: at basepoint k/8 zeta^k e_(k mod n),
    a seeded permutation matrix whose entries are powers of zeta_N."""
    rng = random.Random(seed)
    n, order = chart.n, chart.cyclotomic_order
    frames = []
    for k in range(count):
        point = [CyclotomicNumber.zero(order)] * n
        point[k % n] = CyclotomicNumber.zeta(order, k) * Fraction(k, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = []
        for r in range(n):
            row = [CyclotomicNumber.zero(order)] * n
            row[perm[r]] = CyclotomicNumber.zeta(order, rng.randrange(order))
            rows.append(row)
        frames.append(UnitaryFrame(chart.id, tuple(point), CycMatrix(order, rows)))
    return frames


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
