"""Finite simplicial complexes with a fixed global vertex order.

Simplices are stored as tuples of vertex *positions* in the declared
order; coboundary signs, Alexander-Whitney cup products and the
staircase product triangulation are all taken relative to that order.
A complex builds its coboundary columns once, on first use; the
orientation is read off delta_(d-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Hashable, Sequence

from .errors import DuplicateVertexInFacet, NonOrientable, NotPseudomanifold
from .verdict import Verdict

Simplex = tuple  # sorted tuple of vertex positions


class SimplicialComplex:
    """Downward closure of a facet list over an ordered vertex set."""

    def __init__(self, vertices: Sequence[Hashable], facets: Sequence[Sequence[Hashable]]):
        self.vertices = list(vertices)
        self.position = {v: i for i, v in enumerate(self.vertices)}
        self.facets = []
        for f in facets:
            if len(set(f)) != len(f):
                raise DuplicateVertexInFacet(f"facet {f} repeats a vertex")
            self.facets.append(tuple(sorted(self.position[v] for v in f)))
        self.dim = max(len(f) for f in self.facets) - 1
        self.simplices: dict[int, list[Simplex]] = {p: [] for p in range(self.dim + 1)}
        seen = set()
        for f in self.facets:
            for size in range(1, len(f) + 1):
                for face in combinations(f, size):
                    if face not in seen:
                        seen.add(face)
                        self.simplices[size - 1].append(face)
        for p in self.simplices:
            self.simplices[p].sort()
        self.index: dict[int, dict[Simplex, int]] = {
            p: {s: i for i, s in enumerate(lst)} for p, lst in self.simplices.items()
        }
        self._coboundary: dict[int, list[dict]] = {}

    def count(self, p: int) -> int:
        return len(self.simplices.get(p, []))

    def coboundary(self, p: int) -> list[dict]:
        """Columns of delta_p : C^p -> C^(p+1), built once: the column of a
        p-simplex maps the index of each (p+1)-simplex tau it lies in to
        (-1)^i, i the position in tau of the vertex it omits.  delta_(-1)
        is the augmentation: the empty simplex lies in every vertex, with
        sign +1."""
        cols = self._coboundary.get(p)
        if cols is None:
            if p < 0:
                cols = [dict.fromkeys(range(self.count(0)), 1)]
            else:
                cols = [{} for _ in self.simplices[p]]
                if p < self.dim:
                    idx_p = self.index[p]
                    for row, tau in enumerate(self.simplices[p + 1]):
                        for i in range(len(tau)):
                            cols[idx_p[tau[:i] + tau[i + 1 :]]][row] = -1 if i % 2 else 1
            self._coboundary[p] = cols
        return cols

    def is_pure(self) -> bool:
        return all(len(f) == self.dim + 1 for f in self.facets)


def fundamental_cycle(complex_: SimplicialComplex) -> dict[Simplex, int]:
    """Coherent orientation signs on facets, read off delta_(d-1).

    Raises NotPseudomanifold unless the complex is pure and every ridge
    column holds exactly two facets, with signs a and b; across that ridge
    the neighbour's sign is -sign * a * b, and a contradiction raises
    NonOrientable.  The signed facet sum has boundary zero: every ridge
    column sums to zero (verified).  For d = 0 the one ridge is the empty
    simplex.
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
        signs[start] = 1
        stack = [start]
        while stack:
            f = stack.pop()
            for g, rel in across[f]:
                needed = rel * signs[f]
                if not signs[g]:
                    signs[g] = needed
                    stack.append(g)
                elif signs[g] != needed:
                    raise NonOrientable("orientation propagation contradiction")

    if any(sum(signs[f] * a for f, a in col.items()) for col in ridges):
        raise AssertionError("propagated orientation has nonzero boundary")
    return dict(zip(complex_.simplices[d], signs))


def pair_with_cycle(cochain: dict[Simplex, Fraction], cycle: dict[Simplex, int]) -> Fraction:
    """<cochain, signed facet sum>, exact: a sum over the shared support."""
    return Fraction(sum(v * cycle[f] for f, v in cochain.items() if f in cycle))


@dataclass
class ProductComplex:
    """Staircase triangulation of a product, with cochain pullbacks."""

    complex: SimplicialComplex
    left: SimplicialComplex
    right: SimplicialComplex
    _projections: dict = field(default_factory=dict, repr=False)

    def pullback_left(self, cochain: dict[Simplex, Fraction], degree: int) -> dict[Simplex, Fraction]:
        return self._pullback(cochain, degree, 0, self.left)

    def pullback_right(self, cochain: dict[Simplex, Fraction], degree: int) -> dict[Simplex, Fraction]:
        return self._pullback(cochain, degree, 1, self.right)

    def _projection(self, degree, side, factor) -> list[tuple[Simplex, Simplex]]:
        """(simplex, its projection) for every simplex of the degree whose
        projection to the factor is nondegenerate; built once per side and
        degree."""
        table = self._projections.get((side, degree))
        if table is None:
            table = []
            for s in self.complex.simplices[degree]:
                proj = tuple(factor.position[self.complex.vertices[i][side]] for i in s)
                # product order is lexicographic in factor positions, so the
                # projected tuple is already weakly increasing
                if len(set(proj)) == len(proj):
                    table.append((s, proj))
            self._projections[(side, degree)] = table
        return table

    def _pullback(self, cochain, degree, side, factor):
        out: dict[Simplex, Fraction] = {}
        for s, proj in self._projection(degree, side, factor):
            val = cochain.get(proj)
            if val:
                out[s] = val
        return out


def product_complex(left: SimplicialComplex, right: SimplicialComplex) -> ProductComplex:
    """Product triangulated by monotone staircases in each cell."""
    verts = [
        (a, b)
        for a in left.vertices
        for b in right.vertices
    ]
    verts.sort(key=lambda ab: (left.position[ab[0]], right.position[ab[1]]))
    facets = []
    for sf in left.facets:
        for tf in right.facets:
            p, q = len(sf) - 1, len(tf) - 1
            for path in _staircases(p, q):
                cell = [
                    (left.vertices[sf[i]], right.vertices[tf[j]]) for i, j in path
                ]
                facets.append(cell)
    return ProductComplex(SimplicialComplex(verts, facets), left, right)


def _staircases(p: int, q: int):
    """Monotone lattice paths from (0,0) to (p,q), as vertex index paths."""
    paths = []

    def walk(i, j, acc):
        if i == p and j == q:
            paths.append(acc + [(i, j)])
            return
        if i < p:
            walk(i + 1, j, acc + [(i, j)])
        if j < q:
            walk(i, j + 1, acc + [(i, j)])

    walk(0, 0, [])
    return paths


class SimplicialGroupAction:
    """A finite group acting by vertex permutations preserving the complex."""

    def __init__(
        self,
        complex_: SimplicialComplex,
        elements: list[str],
        table: dict[tuple[str, str], str],
        vertex_maps: dict[str, dict],
    ):
        self.complex = complex_
        self.elements = list(elements)
        self.table = dict(table)
        # store permutations on positions
        self.perms: dict[str, list[int]] = {}
        for e in self.elements:
            vm = vertex_maps[e]
            perm = [complex_.position[vm[v]] for v in complex_.vertices]
            self.perms[e] = perm
        # a verified action's table puts the identity at (e, e^-1)
        self.inverse = {a: b for (a, b), ab in self.table.items() if ab == self.elements[0]}

    @classmethod
    def cyclic(cls, complex_: SimplicialComplex, k: int, generator_map: dict) -> "SimplicialGroupAction":
        elements = [f"g{i}" for i in range(k)]
        table = {
            (f"g{i}", f"g{j}"): f"g{(i + j) % k}" for i in range(k) for j in range(k)
        }
        maps = {"g0": {v: v for v in complex_.vertices}}
        current = dict(maps["g0"])
        for i in range(1, k):
            current = {v: generator_map[current[v]] for v in complex_.vertices}
            maps[f"g{i}"] = dict(current)
        return cls(complex_, elements, table, maps)

    @classmethod
    def trivial(cls, complex_: SimplicialComplex) -> "SimplicialGroupAction":
        return cls.cyclic(complex_, 1, {v: v for v in complex_.vertices})

    @classmethod
    def product(
        cls, product: ProductComplex, left: "SimplicialGroupAction", right: "SimplicialGroupAction"
    ) -> "SimplicialGroupAction":
        """Diagonal-style product action (e, e) for matching element lists."""
        elements = left.elements
        table = left.table
        maps = {}
        for e in elements:
            lm = {v: left.complex.vertices[left.perms[e][left.complex.position[v]]] for v in left.complex.vertices}
            rm = {v: right.complex.vertices[right.perms[e][right.complex.position[v]]] for v in right.complex.vertices}
            maps[e] = {(a, b): (lm[a], rm[b]) for (a, b) in product.complex.vertices}
        return cls(product.complex, elements, table, maps)

    def map_simplex(self, e: str, s: Simplex) -> tuple[Simplex, int]:
        """Image simplex and the sign of the sorting permutation."""
        perm = self.perms[e]
        image = [perm[v] for v in s]
        sign = 1
        arr = list(image)
        for i in range(len(arr)):
            for j in range(i + 1, len(arr)):
                if arr[i] > arr[j]:
                    arr[i], arr[j] = arr[j], arr[i]
                    sign = -sign
        return tuple(arr), sign

    def pullback_cochain(self, e: str, cochain: dict[Simplex, Fraction], degree: int) -> dict[Simplex, Fraction]:
        """(e* a)(s) = sign(e, s) * a(e . s) on a verified action, read off the
        support of a: t pulls back to s = e^-1 . t, and sorting e^-1 . t
        has the sign of the inverse sorting, sign(e, s)."""
        inv = self.inverse[e]
        out: dict[Simplex, Fraction] = {}
        for t, val in cochain.items():
            if val:
                s, sign = self.map_simplex(inv, t)
                out[s] = sign * val
        return out

    def transform_cycle(self, e: str, cycle: dict[Simplex, int]) -> dict[Simplex, int]:
        out: dict[Simplex, int] = {}
        for s, c in cycle.items():
            image, sign = self.map_simplex(e, s)
            out[image] = out.get(image, 0) + sign * c
        return out


def verify_action(action: SimplicialGroupAction) -> Verdict:
    """Homomorphism against the multiplication table plus simpliciality,
    decided on the facets."""
    cx = action.complex
    ident = action.elements[0]
    if action.perms[ident] != list(range(len(cx.vertices))):
        return Verdict(False, "first element must act as the identity")
    for a in action.elements:
        pa = action.perms[a]
        if sorted(pa) != list(range(len(cx.vertices))):
            return Verdict(False, f"element {a} is not a permutation")
        for b in action.elements:
            ab = action.table[(a, b)]
            composed = [pa[action.perms[b][v]] for v in range(len(cx.vertices))]
            if composed != action.perms[ab]:
                return Verdict(False, f"homomorphism fails at ({a}, {b})")
    # the complex is the downward closure of its facets and each element
    # permutes the vertices, so faces of facets map to faces of images;
    # the identity, checked above, maps every facet to itself
    for f in cx.facets:
        index = cx.index[len(f) - 1]
        for e in action.elements[1:]:
            if action.map_simplex(e, f)[0] not in index:
                return Verdict(False, f"image of {f} under {e} is not a simplex")
    return Verdict(True, "homomorphism and simpliciality hold")
