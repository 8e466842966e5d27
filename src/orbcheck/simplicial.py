"""Finite simplicial complexes with a fixed global vertex order, and
their products as cell complexes.

Simplices are stored as tuples of vertex *positions* in the declared
order; coboundary signs and Alexander-Whitney cup products are taken
relative to that order.  A complex is the downward closure of its
facets.  A product K x L is the cell complex of the pairs (sigma, tau)
of simplices of the factors (Eilenberg-Zilber); its coboundary is read
off the factors', and a diagonal action moves each factor by its own
vertex map.  The cup and cap products read a complex only through
`splits`.  Coboundary columns are built once, on first use; the
orientation is read off delta_(d-1), and made invariant by following
the generator from one facet per ridge-connected component.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import inf
from typing import Hashable, Optional, Sequence

from .errors import NonOrientable, NotPseudomanifold
from .linalg import sort_sign
from .verdict import Verdict

Simplex = tuple  # sorted tuple of vertex positions, or a cell (sigma, tau) of a product


class Cells:
    """Cells by degree, sorted and indexed, with the coboundary columns
    built once, on first use.  delta_(-1) is the augmentation: the empty
    simplex lies in every vertex, with sign +1."""

    simplices: dict[int, list[Simplex]]
    _coboundary: dict[int, list[dict]]

    def count(self, p: int) -> int:
        return len(self.simplices.get(p, []))

    def coboundary(self, p: int) -> list[dict]:
        if p not in self._coboundary:
            self._coboundary[p] = self._columns(p) if p >= 0 else [dict.fromkeys(range(self.count(0)), 1)]
        return self._coboundary[p]


class SimplicialComplex(Cells):
    """Downward closure of a facet list over an ordered vertex set."""

    def __init__(self, vertices: Sequence[Hashable], facets: Sequence[Sequence]):
        """``facets`` are vertex labels."""
        self.vertices = list(vertices)
        self.position = {v: i for i, v in enumerate(self.vertices)}
        self.facets = [tuple(sorted(self.position[v] for v in f)) for f in facets]
        simplices: dict[int, list[Simplex]] = {}
        for face in {c for f in self.facets for size in range(1, len(f) + 1) for c in combinations(f, size)}:
            simplices.setdefault(len(face) - 1, []).append(face)
        self.dim = max(len(f) for f in self.facets) - 1
        self.simplices = {p: sorted(simplices[p]) for p in range(self.dim + 1)}
        self.index: dict[int, dict[Simplex, int]] = {
            p: {s: i for i, s in enumerate(lst)} for p, lst in self.simplices.items()
        }
        self._coboundary = {}

    def _columns(self, p: int) -> list[dict]:
        """Columns of delta_p : C^p -> C^(p+1): the column of a p-simplex
        maps the index of each (p+1)-simplex tau it lies in to (-1)^i, i
        the position in tau of the vertex it omits.  The m-th face
        combinations() gives omits vertex p+1-m."""
        cols: list[dict] = [{} for _ in self.simplices[p]]
        if p < self.dim:
            idx_p = self.index[p]
            signs = [(-1) ** (p + 1 - m) for m in range(p + 2)]
            for row, tau in enumerate(self.simplices[p + 1]):
                for face, sign in zip(combinations(tau, p + 1), signs):
                    cols[idx_p[face]][row] = sign
        return cols

    def is_pure(self) -> bool:
        return all(len(f) == self.dim + 1 for f in self.facets)

    def splits(self, front: Simplex, k: int) -> list[tuple[Simplex, Simplex, int]]:
        """(s, back, +1) for every k-simplex s that begins with front, back
        the face of s from front's last vertex on: the Alexander-Whitney
        split.  Those s are contiguous in the sorted list, between front
        and front + (inf,)."""
        simplices = self.simplices.get(k, [])
        lo = bisect_left(simplices, front)
        i = len(front) - 1
        return [(s, s[i:], 1) for s in simplices[lo : bisect_left(simplices, front + (inf,), lo)]]


class ProductComplex(Cells):
    """The cell complex K x L: a k-cell is a pair (sigma, tau) of simplices
    of the factors with dim sigma + dim tau = k, and the cells of each
    degree are sorted, so that with pure factors the first top cell is the
    pair of the factors' first facets."""

    def __init__(self, left: SimplicialComplex, right: SimplicialComplex):
        self.left, self.right = left, right
        self.dim = left.dim + right.dim
        self.simplices = {
            k: sorted(
                (s, t) for p, sigmas in left.simplices.items() for s in sigmas for t in right.simplices.get(k - p, ())
            )
            for k in range(self.dim + 1)
        }
        self.index = {k: {c: i for i, c in enumerate(cells)} for k, cells in self.simplices.items()}
        self._coboundary = {}

    def _columns(self, k: int) -> list[dict]:
        """Columns of delta_k, read off the factors' columns: the column of
        sigma x tau, with dim sigma = p, holds [sigma':sigma] at sigma' x
        tau and (-1)^p [tau':tau] at sigma x tau'."""
        up, cols = self.index.get(k + 1), []
        # each factor simplex's cofaces with their signs
        left, right = (
            {
                s: [(f.simplices[p + 1][r], c) for r, c in col.items()]
                for p in f.simplices
                for s, col in zip(f.simplices[p], f.coboundary(p))
            }
            for f in (self.left, self.right)
        )
        for s, t in self.simplices[k]:
            col = {up[f, t]: c for f, c in left[s]}
            sign = 1 if len(s) % 2 else -1  # (-1)^dim sigma
            for f, c in right[t]:
                col[up[s, f]] = sign * c
            cols.append(col)
        return cols

    def is_pure(self) -> bool:
        return self.left.is_pure() and self.right.is_pure()

    def splits(self, front: Simplex, k: int) -> list[tuple[Simplex, Simplex, int]]:
        """(sigma x tau, back, sign) for every k-cell whose front face is
        front = (sigma[..i], tau[..j]): back is (sigma[i..], tau[j..]) and
        the sign (-1)^((dim sigma - i) j) is the Koszul sign of the
        product of the factors' Alexander-Whitney diagonals, so that
        (a x b) cup (c x d) = (-1)^(|b||c|) (a cup c) x (b cup d)."""
        (sf, tf), out = front, []
        i, j = len(sf) - 1, len(tf) - 1
        for p in range(i, k - j + 1):
            taus = self.right.splits(tf, k - p)
            if taus:
                sign = -1 if (p - i) * j % 2 else 1
                for s, sb, _ in self.left.splits(sf, p):
                    out += [((s, t), (sb, tb), sign) for t, tb, _ in taus]
        return out

    def _pullback(self, a: dict, b: dict) -> dict:
        """The cross product a x b = pr_L* a cup pr_R* b, (sigma, tau) ->
        a(sigma) b(tau); with b the unit 0-cochain of the right factor it is
        the pullback of a along the left projection, and symmetrically."""
        return {(s, t): x * y for s, x in a.items() if x for t, y in b.items() if y}


def product_complex(left: SimplicialComplex, right: SimplicialComplex) -> ProductComplex:
    return ProductComplex(left, right)


def fundamental_cycle(complex_: SimplicialComplex, action: Optional[SimplicialGroupAction] = None) -> dict[Simplex, int]:
    """Coherent orientation signs on facets, read off delta_(d-1).

    Raises NotPseudomanifold unless the complex is pure and every ridge
    column holds exactly two facets, with signs a and b; across that ridge
    the neighbour's sign is -sign * a * b, and a contradiction raises
    NonOrientable.  The signed facet sum has boundary zero: every ridge
    column sums to zero (verified).  For d = 0 the one ridge is the empty
    simplex.

    Given a verified action, the cycle is invariant: g* maps the cycle of
    a ridge-connected component to a multiple of another's, fixed by the
    sign(g, s) of one facet s.  The generator's image of each component's
    first facet seeds the next component of its orbit, and an orbit
    closing on the opposite sign raises NonOrientable.
    """
    if not complex_.is_pure():
        raise NotPseudomanifold("complex is not pure")
    d = complex_.dim
    ridges = complex_.coboundary(d - 1)
    across: list[list[tuple[int, int]]] = [[] for _ in complex_.simplices[d]]
    for j, col in enumerate(ridges):
        if len(col) != 2:
            ridge = complex_.simplices[d - 1][j] if d else ()
            raise NotPseudomanifold(f"ridge {ridge} lies in {len(col)} facets")
        (f, a), (g, b) = col.items()
        across[f].append((g, -a * b))
        across[g].append((f, -a * b))

    signs = [0] * len(across)
    for start in range(len(across)):
        if signs[start]:
            continue
        seed, sign = start, 1
        # orient the component of seed, then the next one of its orbit
        while not signs[seed]:
            signs[seed] = sign
            stack = [seed]
            while stack:
                f = stack.pop()
                for g, rel in across[f]:
                    needed = rel * signs[f]
                    if not signs[g]:
                        signs[g] = needed
                        stack.append(g)
                    elif signs[g] != needed:
                        raise NonOrientable("orientation propagation contradiction")
            if action is None or action.k == 1:
                break
            image, sign = action.map_simplex(1, complex_.simplices[d][seed])
            sign, seed = sign * signs[seed], complex_.index[d][image]
        if signs[seed] != sign:
            raise NonOrientable("the generator reverses the orientation of a component orbit")

    if any(sum(signs[f] * a for f, a in col.items()) for col in ridges):
        raise AssertionError("propagated orientation has nonzero boundary")
    return dict(zip(complex_.simplices[d], signs))


def pair_with_cycle(cochain: dict[Simplex, Fraction], cycle: dict[Simplex, int]) -> Fraction:
    """<cochain, signed facet sum>, exact: a sum over the shared support."""
    return Fraction(sum(v * cycle[f] for f, v in cochain.items() if f in cycle))


class SimplicialGroupAction:
    """Z/k acting on a complex through the powers of one vertex permutation.

    ``generator`` sends vertex position v to generator[v]; the elements
    are 0..k-1, element i acts by the i-th power ``perms[i]``, and its
    inverse is -i % k.
    """

    def __init__(self, complex_: SimplicialComplex, k: int, generator: Sequence[int]):
        self.complex = complex_
        self.k = k
        self.generator = list(generator)
        self.elements = range(k)
        self.perms: list[list[int]] = [list(range(len(complex_.vertices)))]
        for _ in range(k - 1):
            self.perms.append([self.generator[v] for v in self.perms[-1]])

    @classmethod
    def cyclic(cls, complex_: SimplicialComplex, k: int, generator_map: dict) -> "SimplicialGroupAction":
        """Z/k generated by the vertex map v -> generator_map[v], on labels."""
        return cls(complex_, k, [complex_.position[generator_map[v]] for v in complex_.vertices])

    @classmethod
    def trivial(cls, complex_: SimplicialComplex | ProductComplex) -> "SimplicialGroupAction":
        if isinstance(complex_, ProductComplex):
            return ProductAction(complex_, cls.trivial(complex_.left), cls.trivial(complex_.right))
        return cls(complex_, 1, range(len(complex_.vertices)))

    def map_simplex(self, e: int, s: Simplex) -> tuple[Simplex, int]:
        """Image simplex and the sign of the sorting permutation."""
        perm = self.perms[e]
        return sort_sign([perm[v] for v in s])

    def pullback_cochain(self, e: int, cochain: dict[Simplex, Fraction], degree: int) -> dict[Simplex, Fraction]:
        """(e* a)(s) = sign(e, s) * a(e . s) on a verified action, read off the
        support of a: t pulls back to s = e^-1 . t, and sorting e^-1 . t
        has the sign of the inverse sorting, sign(e, s)."""
        inv = -e % self.k
        out: dict[Simplex, Fraction] = {}
        for t, val in cochain.items():
            if val:
                s, sign = self.map_simplex(inv, t)
                out[s] = sign * val
        return out


class ProductAction(SimplicialGroupAction):
    """The diagonal action of two actions of one order on K x L: element e
    maps sigma x tau to e.sigma x e.tau, with the product of the two
    sorting signs."""

    def __init__(self, complex_: ProductComplex, left: SimplicialGroupAction, right: SimplicialGroupAction):
        self.complex = complex_
        self.k = left.k
        self.elements = left.elements
        self.factors = (left, right)

    def map_simplex(self, e: int, s: Simplex) -> tuple[Simplex, int]:
        (sigma, a), (tau, b) = (f.map_simplex(e, c) for f, c in zip(self.factors, s))
        return (sigma, tau), a * b


def verify_action(action: SimplicialGroupAction) -> Verdict:
    """The generator decides the action: it is a permutation, sigma^k = id
    (so i -> sigma^i is a homomorphism from Z/k), and it maps every facet
    to a simplex.  The complex is the downward closure of its facets, so a
    vertex bijection then maps every simplex to a simplex; it is injective
    on each degree's finite simplex set, hence onto it, and so is every
    power of it.  A diagonal action is decided factor by factor, since
    sigma x tau is a cell exactly when sigma and tau are simplices; a FAIL
    names the factor."""
    if isinstance(action, ProductAction):
        for side, factor in zip(("left", "right"), action.factors):
            verdict = verify_action(factor)
            if not verdict.passed:
                return Verdict(False, f"{side} factor: {verdict.detail}")
        return verdict
    cx = action.complex
    gen = action.generator
    ident = list(range(len(cx.vertices)))
    if sorted(gen) != ident:
        return Verdict(False, "generator is not a permutation")
    if [gen[v] for v in action.perms[-1]] != ident:
        return Verdict(False, f"generator's order does not divide {action.k}")
    for f in cx.facets:
        if tuple(sorted(gen[v] for v in f)) not in cx.index[len(f) - 1]:
            return Verdict(False, f"image of {f} under g1 is not a simplex")
    return Verdict(True, "homomorphism and simpliciality hold")
