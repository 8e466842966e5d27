"""Finite simplicial complexes with a fixed global vertex order.

Simplices are stored as tuples of vertex *positions* in the declared
order; coboundary signs, Alexander-Whitney cup products and the
staircase product triangulation are all taken relative to that order.
A complex is the downward closure of its facets, except a product: its
simplices come from the factors, one per (simplex, simplex, lattice
path), and their projections give the pullbacks without a table pass.
A complex builds its coboundary columns once, on first use, with each
simplex's faces from combinations(); the orientation is read off
delta_(d-1), and made invariant by following the generator from one
facet per ridge-connected component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Hashable, Optional, Sequence

from .errors import NonOrientable, NotPseudomanifold
from .linalg import sort_sign
from .verdict import Verdict

Simplex = tuple  # sorted tuple of vertex positions


class SimplicialComplex:
    """Downward closure of a facet list over an ordered vertex set."""

    def __init__(self, vertices: Sequence[Hashable], facets: Sequence[Sequence], simplices: Optional[dict] = None):
        """``facets`` are vertex labels.  A product passes its position
        facets with ``simplices``, its degree lists, each simplex once;
        they stand in for the closure."""
        self.vertices = list(vertices)
        self.position = {v: i for i, v in enumerate(self.vertices)}
        if simplices is None:
            self.facets = [tuple(sorted(self.position[v] for v in f)) for f in facets]
            simplices = {}
            for face in {c for f in self.facets for size in range(1, len(f) + 1) for c in combinations(f, size)}:
                simplices.setdefault(len(face) - 1, []).append(face)
        else:
            self.facets = list(facets)
        self.dim = max(len(f) for f in self.facets) - 1
        self.simplices: dict[int, list[Simplex]] = {p: sorted(simplices[p]) for p in range(self.dim + 1)}
        self.index: dict[int, dict[Simplex, int]] = {
            p: {s: i for i, s in enumerate(lst)} for p, lst in self.simplices.items()
        }
        self._coboundary: dict[int, list[dict]] = {}

    def count(self, p: int) -> int:
        return len(self.simplices.get(p, []))

    def coboundary(self, p: int) -> list[dict]:
        """Columns of delta_p : C^p -> C^(p+1), built once: the column of a
        p-simplex maps the index of each (p+1)-simplex tau it lies in to
        (-1)^i, i the position in tau of the vertex it omits.  The m-th
        face combinations() gives omits vertex p+1-m.  delta_(-1) is the
        augmentation: the empty simplex lies in every vertex, with sign +1."""
        cols = self._coboundary.get(p)
        if cols is None:
            if p < 0:
                cols = [dict.fromkeys(range(self.count(0)), 1)]
            else:
                cols = [{} for _ in self.simplices[p]]
                if p < self.dim:
                    idx_p = self.index[p]
                    signs = [(-1) ** (p + 1 - m) for m in range(p + 2)]
                    for row, tau in enumerate(self.simplices[p + 1]):
                        for face, sign in zip(combinations(tau, p + 1), signs):
                            cols[idx_p[face]][row] = sign
            self._coboundary[p] = cols
        return cols

    def is_pure(self) -> bool:
        return all(len(f) == self.dim + 1 for f in self.facets)


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


@dataclass
class ProductComplex:
    """Staircase triangulation of a product, with cochain pullbacks.

    ``left_pairs[k]`` lists (s, sigma) for every k-simplex s whose left
    projection sigma is a k-simplex, sorted by s; ``right_pairs`` the same
    with tau."""

    complex: SimplicialComplex
    left: SimplicialComplex
    right: SimplicialComplex
    left_pairs: dict[int, list[tuple[Simplex, Simplex]]]
    right_pairs: dict[int, list[tuple[Simplex, Simplex]]]

    def pullback_left(self, cochain: dict[Simplex, Fraction], degree: int) -> dict[Simplex, Fraction]:
        return self._pullback(cochain, self.left_pairs[degree])

    def pullback_right(self, cochain: dict[Simplex, Fraction], degree: int) -> dict[Simplex, Fraction]:
        return self._pullback(cochain, self.right_pairs[degree])

    def _pullback(self, cochain, pairs):
        out: dict[Simplex, Fraction] = {}
        for s, proj in pairs:
            val = cochain.get(proj)
            if val:
                out[s] = val
        return out


def product_complex(left: SimplicialComplex, right: SimplicialComplex) -> ProductComplex:
    """Product triangulated by monotone staircases in each cell.

    Each k-simplex is one triple (sigma, tau, path): sigma and tau are
    simplices of the factors, of dimensions p and q, and the path is a
    monotone lattice path of k steps through [0..p] x [0..q] that covers
    both.  Its vertex (i, j) sits at product position sigma_i * |R| + tau_j,
    so the positions increase along the path, each simplex comes out once,
    and its projections are sigma and tau.  The facets are the p + q
    paths of each facet pair."""
    width = len(right.vertices)
    dim = left.dim + right.dim
    simplices: dict[int, list[Simplex]] = {k: [] for k in range(dim + 1)}
    left_pairs: dict[int, list] = {k: [] for k in range(dim + 1)}
    right_pairs: dict[int, list] = {k: [] for k in range(dim + 1)}
    for p, sigmas in left.simplices.items():
        for q, taus in right.simplices.items():
            for k in range(max(p, q), p + q + 1):
                out, lpairs, rpairs = simplices[k], left_pairs[k], right_pairs[k]
                for lane, cols in _paths(p, q, k):
                    backs = [(tau, (*map(tau.__getitem__, cols),)) for tau in taus]
                    for sigma in sigmas:
                        front = [sigma[i] * width for i in lane]
                        for tau, back in backs:
                            s = (*map(add, front, back),)
                            out.append(s)
                            if p == k:
                                lpairs.append((s, sigma))
                            if q == k:
                                rpairs.append((s, tau))
    for pairs in (*left_pairs.values(), *right_pairs.values()):
        pairs.sort()
    facets = []
    for sf in left.facets:
        rows = [v * width for v in sf]
        for tf in right.facets:
            for lane, cols in _paths(len(sf) - 1, len(tf) - 1, len(sf) + len(tf) - 2):
                facets.append((*map(add, map(rows.__getitem__, lane), map(tf.__getitem__, cols)),))
    verts = [(a, b) for a in left.vertices for b in right.vertices]
    return ProductComplex(SimplicialComplex(verts, facets, simplices), left, right, left_pairs, right_pairs)


@lru_cache(maxsize=None)
def _paths(p: int, q: int, k: int) -> tuple:
    """Monotone lattice paths of k steps (1,0), (0,1) or (1,1) from (0,0)
    to (p,q), in that step order, each as its row and column index lists."""
    paths = []

    def walk(i, j, lane, cols):
        if i == p and j == q:
            if len(lane) == k + 1:
                paths.append((tuple(lane), tuple(cols)))
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            if i + di <= p and j + dj <= q:
                walk(i + di, j + dj, lane + [i + di], cols + [j + dj])

    walk(0, 0, [0], [0])
    return tuple(paths)


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
    def trivial(cls, complex_: SimplicialComplex) -> "SimplicialGroupAction":
        return cls(complex_, 1, range(len(complex_.vertices)))

    @classmethod
    def product(
        cls, product: ProductComplex, left: "SimplicialGroupAction", right: "SimplicialGroupAction"
    ) -> "SimplicialGroupAction":
        """The diagonal action of two actions of one order: the generator is
        sigma_L x sigma_R on product positions i * |R| + j, the order in
        which product_complex lays out the vertex pairs."""
        width = len(right.generator)
        return cls(product.complex, left.k, [a * width + b for a in left.generator for b in right.generator])

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


def verify_action(action: SimplicialGroupAction) -> Verdict:
    """The generator decides the action: it is a permutation, sigma^k = id
    (so i -> sigma^i is a homomorphism from Z/k), and it maps every facet
    to a simplex.  The complex is the downward closure of its facets, so a
    vertex bijection then maps every simplex to a simplex; it is injective
    on each degree's finite simplex set, hence onto it, and so is every
    power of it."""
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
