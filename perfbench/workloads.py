"""Seeded scenario generators for the four benchmark workloads.

Every generator takes the seed and returns a list of ``Item``s: the
scenario text orbcheck will parse, plus the report it must produce.
The expected report comes from how the input was built (group orders of
monomial matrix groups, Betti numbers of known surfaces, the pinned
taut tolerances), never from running orbcheck.

Anchor entries are the unchanged built-in catalog texts; the caller
passes them in as ``catalog`` (a function name -> text), so this module
imports nothing from orbcheck.

Expected lines are ``(key, rule)`` pairs, checked by ``oracle.check``:

- ``("verdict", word)``: the value's first word is ``word`` (PASS/FAIL)
- ``("exact", text)``: the value is exactly ``text``
- ``("fiber", order)``: a Seifert fiber line with ``|Gamma_x| = order``
- ``("max_dev", tol)``: ``PASS max_dev=x`` with ``x <= tol``
- ``("nonzero_int",)``: a nonzero integer
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

Catalog = Callable[[str], str]


@dataclass
class Item:
    name: str
    text: str
    expect: list


# -- monomial zeta-power matrices ------------------------------------------
#
# An n x n monomial matrix is (perm, exps): row i holds zeta_N^exps[i] in
# column perm[i] and zeros elsewhere.  Such a matrix is exactly unitary.


def _mono_mul(a, b, order: int):
    pa, ea = a
    pb, eb = b
    perm = tuple(pb[pa[i]] for i in range(len(pa)))
    exps = tuple((ea[i] + eb[pa[i]]) % order for i in range(len(pa)))
    return perm, exps


def _mono_closure(gens, order: int) -> set:
    n = len(gens[0][0])
    ident = (tuple(range(n)), (0,) * n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                p = _mono_mul(a, g, order)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def _z(power: int, order: int) -> str:
    power %= order
    return "1" if power == 0 else ("z" if power == 1 else f"z^{power}")


def _mono_text(m, order: int) -> str:
    perm, exps = m
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise AssertionError(f"{m} is not a monomial matrix")
    rows = []
    for i in range(n):
        row = ["0"] * n
        row[perm[i]] = _z(exps[i], order)
        rows.append("[" + ", ".join(row) + "]")
    return "[" + ", ".join(rows) + "]"


def _coprime(rng: random.Random, k: int) -> int:
    return rng.choice([a for a in range(1, k) if math.gcd(a, k) == 1] or [1])


# -- expected report fragments ---------------------------------------------


def _atlas_lines(changes: list, witnesses: list) -> list:
    """``changes`` are (source, target) in declaration order."""
    out = []
    for s, t in sorted(changes):
        out.append((f"atlas.unitary.{s}.{t}", ("verdict", "PASS")))
        out.append((f"atlas.containment.{s}.{t}", ("verdict", "PASS")))
    for s, t in witnesses:
        out.append((f"atlas.witness.{s}.{t}", ("exact", "PASS found")))
    out.append(("atlas.validate", ("verdict", "PASS")))
    return out


def _seifert_lines(fibers: dict, overlaps: list, triples: list) -> list:
    out = []
    for cid in sorted(fibers):
        out.append((f"seifert.free.{cid}", ("verdict", "PASS")))
        out.append((f"seifert.equivariance.{cid}", ("verdict", "PASS")))
        out.append((f"seifert.fiber.{cid}.origin", ("fiber", fibers[cid])))
    for s, t in sorted(overlaps):
        out.append((f"seifert.well_defined.{s}.{t}", ("verdict", "PASS")))
    for i, j, k in triples:
        out.append((f"seifert.cocycle.{i}.{j}.{k}", ("verdict", "PASS")))
    return out


def _ranked(word: str, rank: int, cols: int) -> tuple:
    """``word rank=r dims=rxc``: a map of full rank r on r rows."""
    return ("exact", f"{word} rank={rank} dims={rank}x{cols}")


def _quotient_lines(betti: list, inv: list, n: int, pairing=None) -> list:
    """A closed orientable quotient of complex dimension n whose action
    preserves orientation: HLT and PD hold with ranks equal to the
    invariant Betti numbers."""
    out = [
        ("quotient.action", ("verdict", "PASS")),
        ("betti.full", ("exact", ",".join(map(str, betti)))),
        ("betti.inv", ("exact", ",".join(map(str, inv)))),
        ("pd.fundamental_cycle", ("exact", "PASS")),
        ("kahler.pairing", ("exact", str(pairing)) if pairing else ("nonzero_int",)),
    ]
    for k in range(n + 1):
        b = inv[n - k]
        out.append((f"hlt.k{k}", _ranked("ISO", b, inv[n + k])))
    for p in range(2 * n + 1):
        b = inv[p]
        out.append((f"pd.p{p}", _ranked("PASS", b, inv[2 * n - p])))
    return out


def _overall(word: str = "PASS") -> tuple:
    return ("overall", ("exact", word))


# -- scenarios -------------------------------------------------------------


def _q8_chart(name: str, order: int, rng: random.Random) -> Item:
    """Q8 in U(2) over Q(zeta_N), 4 | N, conjugated by a diagonal zeta
    power.  No changes of charts: the witness, gluing and cocycle checks
    run on ``quaternion-chart`` and the footballs, which keeps a pass
    short enough to repeat several times within a run."""
    if order % 4:
        raise AssertionError("Q8 needs i = zeta_N^(N/4)")
    q = order // 4
    i_el = ((0, 1), (q, 3 * q))  # diag(i, -i)
    j_el = ((1, 0), (0, 2 * q))  # [[0, 1], [-1, 0]]
    k_el = _mono_mul(i_el, j_el, order)
    shift = rng.randrange(order)  # conjugate by diag(zeta^shift, 1)
    units = []
    for perm, exps in (i_el, j_el, k_el):
        exps = tuple((e + shift * ((i == 0) - (perm[i] == 0))) % order for i, e in enumerate(exps))
        units.append((perm, exps))
    a, b = rng.sample(units, 2)  # two of i, j, k generate Q8
    if len(_mono_closure([a, b], order)) != 8:
        raise AssertionError("generators of Q8 must close to a group of order 8")
    text = f"""
[scenario]
name = {name}
pipelines = atlas, seifert

[chart Q]
n = 2
radius = 2
cyclotomic_order = {order}
generators = {_mono_text(a, order)} ; {_mono_text(b, order)}
"""
    expect = _atlas_lines([], []) + _seifert_lines({"Q": 8}, [], []) + [_overall()]
    return Item(name, text, expect)


def _quaternion_chart_expect() -> list:
    """The catalog's Q8 chart with an identity self-change and one by a
    group element."""
    changes = [("Q", "Q"), ("Q", "Q")]
    return (
        _atlas_lines(changes, [("Q", "Q")])
        + _seifert_lines({"Q": 8}, [("Q", "Q")], [("Q", "Q", "Q")])
        + [_overall()]
    )


def _bipyramid(k: int, step: int):
    """The football complex: a bipyramid over an l-gon (l >= 4) and the
    rotation of order k by ``step`` l/k-th turns."""
    ell = k if k >= 3 else 2 * k
    eq = list(range(1, ell + 1))
    facets = []
    for i in range(ell):
        a, b = eq[i], eq[(i + 1) % ell]
        facets += [f"(0,{a},{b})", f"({ell + 1},{a},{b})"]
    shift = (ell // k) * step
    maps = [0] + [1 + (i - 1 + shift) % ell for i in eq] + [ell + 1]
    return ell + 2, " ".join(facets), ", ".join(map(str, maps))


def _football_expect(k: int) -> list:
    changes = [("A", "C"), ("C", "B"), ("A", "B"), ("A", "B")]
    overlaps = sorted(set(changes))
    return (
        _atlas_lines(changes, [("A", "B")])
        + _seifert_lines({"A": k, "B": k, "C": 1}, overlaps, [("A", "C", "B")])
        + _quotient_lines([1, 0, 1], [1, 0, 1], 1)
        + [_overall()]
    )


def _football(name: str, k: int, rng: random.Random) -> Item:
    """Two cyclic Z/k cone charts with seeded generators zeta^a (a coprime
    to k), a smooth chart, a redundant change by zeta^c, and the
    bipyramid quotient by a seeded generator of the rotation group."""
    ga, gb = _coprime(rng, k), _coprime(rng, k)
    for g in (ga, gb):
        if len(_mono_closure([((0,), (g,))], k)) != k:
            raise AssertionError("cone chart generator must have order k")
    c = rng.randrange(1, k)
    verts, facets, maps = _bipyramid(k, _coprime(rng, k))
    text = f"""
[scenario]
name = {name}
pipelines = atlas, seifert, quotient

[chart A]
n = 1
radius = 2
cyclotomic_order = {k}
generators = [[{_z(ga, k)}]]

[chart B]
n = 1
radius = 2
cyclotomic_order = {k}
generators = [[{_z(gb, k)}]]

[chart C]
n = 1
radius = 2
cyclotomic_order = {k}
generators =

[change A -> C]
linear = [[1]]
offset = [0]
center = [1]
radius = 1/4

[change C -> B]
linear = [[1]]
offset = [0]
center = [1]
radius = 1/4

[change A -> B]
linear = [[1]]
offset = [0]
center = [1]
radius = 1/4

[change A -> B]
linear = [[{_z(c, k)}]]
offset = [0]
center = [1]
radius = 1/4

[complex S]
vertices = {verts}
facets = {facets}

[action R]
group = cyclic:{k}
maps = {maps}

[quotient]
complex = S
action = R
complex_dim_n = 1
"""
    return Item(name, text, _football_expect(k))


def _cone_chart(name: str, order: int, k: int, rng: random.Random) -> Item:
    """One n = 1 chart, no changes: the cyclic group of order k inside
    mu_N with a seeded generator."""
    if order % k:
        raise AssertionError("k must divide the cyclotomic order")
    gen = (order // k) * _coprime(rng, k)
    if len(_mono_closure([((0,), (gen,))], order)) != k:
        raise AssertionError("chart generator must have order k")
    text = f"""
[scenario]
name = {name}
pipelines = atlas, seifert

[chart A]
n = 1
radius = 2
cyclotomic_order = {order}
generators = [[{_z(gen, order)}]]
"""
    expect = _atlas_lines([], []) + _seifert_lines({"A": k}, [], []) + [_overall()]
    return Item(name, text, expect)


def circulant_torus(n: int) -> list:
    """Facets (i, i+1, i+3), (i, i+2, i+3) mod n: a torus for odd n >= 7,
    on which v -> -v is a simplicial involution."""
    return [
        f
        for i in range(n)
        for f in ((i, (i + 1) % n, (i + 3) % n), (i, (i + 2) % n, (i + 3) % n))
    ]


def _facets_text(facets) -> str:
    return " ".join("(" + ",".join(map(str, f)) + ")" for f in facets)


def mirrored_order(n: int, rng: random.Random) -> list:
    """One random member of each +-v pair, then 0, then the reflection,
    so v -> -v reverses the vertex order."""
    pairs = range(1, (n - 1) // 2 + 1)
    left = [v if rng.random() < 0.5 else n - v for v in pairs]
    order = left + [0] + [(-v) % n for v in reversed(left)]
    for pos, v in enumerate(order):
        if order[len(order) - 1 - pos] != (-v) % n:
            raise AssertionError("vertex order is not mirrored")
    return order


def _t4(name: str, n: int, rng: random.Random) -> Item:
    """T_n x T_n modulo the diagonal involution v -> -v, odd n."""
    if n % 2 == 0 or n < 7:
        raise AssertionError("the circulant torus needs odd n >= 7")
    order = mirrored_order(n, rng)
    text = f"""
[scenario]
name = {name}
pipelines = quotient

[complex T]
vertices = {n}
facets = {_facets_text(circulant_torus(n))}
vertex_order = {", ".join(map(str, order))}

[complex T4]
product = T * T

[action F]
group = cyclic:2
maps = {", ".join(str((-v) % n) for v in range(n))}

[action D]
group = product
factors = F, F

[quotient]
complex = T4
action = D
complex_dim_n = 2
kahler = product-sum
"""
    return Item(name, text, _t4_expect())


def _t4_expect() -> list:
    return _quotient_lines([1, 4, 6, 4, 1], [1, 0, 6, 0, 1], 2, pairing=2) + [_overall()]


def _surface(name: str, facets, nverts: int, relabel: list, flip: bool,
             betti: list, inv: list) -> Item:
    """A closed orientable surface with vertex labels permuted by
    ``relabel``; ``flip`` adds the involution v -> -v (mod nverts)."""
    if sorted(relabel) != list(range(nverts)):
        raise AssertionError("relabel must permute the vertices")
    mapped = [tuple(relabel[v] for v in f) for f in facets]
    if flip:
        maps = [0] * nverts
        for v in range(nverts):
            maps[relabel[v]] = relabel[(-v) % nverts]
        action = f"group = cyclic:2\nmaps = {', '.join(map(str, maps))}"
    else:
        action = "group = trivial"
    text = f"""
[scenario]
name = {name}
pipelines = quotient

[complex X]
vertices = {nverts}
facets = {_facets_text(mapped)}

[action G]
{action}

[quotient]
complex = X
action = G
complex_dim_n = 1
"""
    return Item(name, text, _quotient_lines(betti, inv, 1) + [_overall()])


_OCTAHEDRON = [(0, 1, 2), (0, 2, 4), (0, 4, 5), (0, 5, 1),
               (3, 1, 2), (3, 2, 4), (3, 4, 5), (3, 5, 1)]
_TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

# (scenario, Betti numbers, invariant Betti numbers) of the catalog surfaces
_CATALOG_SURFACES = [
    ("torus7", [1, 2, 1], [1, 2, 1]),
    ("pillowcase", [1, 2, 1], [1, 0, 1]),
    ("octahedron", [1, 0, 1], [1, 0, 1]),
]


def _catalog_surfaces(catalog: Catalog) -> list:
    items = [
        Item(name, catalog(name), _quotient_lines(b, inv, 1) + [_overall()])
        for name, b, inv in _CATALOG_SURFACES
    ]
    # the antipodal map reverses orientation: no invariant fundamental cycle
    rp2 = [
        ("quotient.action", ("verdict", "PASS")),
        ("betti.full", ("exact", "1,0,1")),
        ("betti.inv", ("exact", "1,0,0")),
        ("pd.fundamental_cycle", ("exact", "FAIL NonOrientable")),
        _overall("FAIL"),
    ]
    return items + [Item("rp2-antipodal", catalog("rp2-antipodal"), rp2)]


def _taut(name: str, weights: list, samples: int, orbits: int, nodes: int) -> Item:
    if min(samples, orbits, nodes) < 1 or min(weights) < 1:
        raise AssertionError("sample counts and weights must be >= 1")
    tol = 1e-9
    text = f"""
[scenario]
name = {name}
pipelines = taut

[action]
type = circle
weights = {", ".join(map(str, weights))}

[metric]
kind = round

[check taut]
samples = {samples}
orbits = {orbits}
nodes = {nodes}
tol = {tol}
"""
    return Item(name, text, _taut_expect(tol))


def _taut_expect(tol: float) -> list:
    return [
        ("taut.detM1", ("max_dev", 1e-12)),
        ("taut.orbit_volume", ("max_dev", tol)),
        ("taut.invariance.u0", ("max_dev", 1e-12)),
        ("taut.invariance.M0", ("max_dev", 1e-12)),
        ("tk.closed", ("exact", "PASS")),
        ("tk.kernel", ("exact", "PASS")),
        ("tk.positive", ("verdict", "PASS")),
        _overall(),
    ]


def _token(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(6))


# The seed orders the weights and names the scenario (the name seeds the
# sample points).  The weights themselves are fixed: at 1000 samples,
# weights drawn from 1..5 changed a scenario's time by up to a third, and
# every seed must do comparable work.
_HOPF_WEIGHTS = {2: (1, 3), 3: (1, 2, 3)}


def _hopf(rng: random.Random, count: int, samples: int, orbits: int, nodes: int) -> Item:
    weights = rng.sample(_HOPF_WEIGHTS[count], count)
    name = f"hopf{count}-{'-'.join(map(str, weights))}-{_token(rng)}"
    return _taut(name, weights, samples, orbits, nodes)


# -- workloads -------------------------------------------------------------


def seifert_cyclo(seed: int, catalog: Catalog) -> list:
    rng = random.Random(f"seifert-cyclo/{seed}")
    items = [Item("quaternion-chart", catalog("quaternion-chart"), _quaternion_chart_expect())]
    items += [_q8_chart(f"q8-n{n}-{_token(rng)}", n, rng) for n in (8, 12)]
    items += [Item(f"football:{k}", catalog(f"football:{k}"), _football_expect(k)) for k in (2, 3)]
    items += [_football(f"football-{k}-{_token(rng)}", k, rng) for k in (3, 4)]
    return items


def quotient_t4(seed: int, catalog: Catalog) -> list:
    rng = random.Random(f"quotient-t4/{seed}")
    items = [Item("t4-z2", catalog("t4-z2"), _t4_expect())]
    items += [_t4(f"t{n}xt{n}-{_token(rng)}", n, rng) for n in (7, 9)]
    return items + _catalog_surfaces(catalog)


def taut_hopf(seed: int, catalog: Catalog) -> list:
    rng = random.Random(f"taut-hopf/{seed}")
    expect = _taut_expect(1e-9)
    items = [Item(f"weighted-hopf:{w}", catalog(f"weighted-hopf:{w}"), expect) for w in ("1:2", "2:3")]
    items += [_hopf(rng, count, 1000, 50, 256) for count in (2, 3)]
    return items


_CONE_CHARTS = [(3, 3), (4, 2), (5, 5), (6, 2), (6, 3), (8, 2), (10, 2), (12, 3)]
_SMALL_TAUT_WEIGHTS = [2, 3, 2, 2, 3, 2, 3, 2, 2, 3, 2, 2] * 2


def many_small(seed: int, catalog: Catalog) -> list:
    rng = random.Random(f"many-small/{seed}")
    items = _catalog_surfaces(catalog)
    items.append(Item("football:2", catalog("football:2"), _football_expect(2)))
    for i in range(8):
        perm = rng.sample(range(6), 6)
        items.append(_surface(f"octa-{_token(rng)}", _OCTAHEDRON, 6, perm, False, [1, 0, 1], [1, 0, 1]))
        perm = rng.sample(range(4), 4)
        items.append(_surface(f"tetra-{_token(rng)}", _TETRAHEDRON, 4, perm, False, [1, 0, 1], [1, 0, 1]))
        perm = rng.sample(range(7), 7)
        flip = i % 2 == 1
        inv = [1, 0, 1] if flip else [1, 2, 1]
        items.append(_surface(f"torus-{_token(rng)}", circulant_torus(7), 7, perm, flip, [1, 2, 1], inv))
    items += [_cone_chart(f"cone-n{n}-k{k}-{_token(rng)}", n, k, rng) for n, k in _CONE_CHARTS * 2]
    items += [_hopf(rng, count, 4, 2, 16) for count in _SMALL_TAUT_WEIGHTS]
    return items


WORKLOADS = {
    "seifert-cyclo": seifert_cyclo,
    "quotient-t4": quotient_t4,
    "taut-hopf": taut_hopf,
    "many-small": many_small,
}


def generate(workload: str, seed: int, catalog: Catalog) -> list:
    items = WORKLOADS[workload](seed, catalog)
    names = [it.name for it in items]
    if len(set(names)) != len(names):
        raise AssertionError(f"duplicate scenario names in {workload}")
    return items
