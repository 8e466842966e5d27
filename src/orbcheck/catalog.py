"""Built-in scenario catalog.

Each entry emits a scenario text that is parsed by the ordinary
scenario parser, so catalog runs and file runs share one code path.
Parameterized names use colons: football:3, weighted-hopf:1:2.
"""

from __future__ import annotations

from .errors import ParseError, UnknownCatalogEntry
from .scenario import CLOSURE_CAP, Scenario, parse_number, parse_scenario

_TORUS7_FACETS = " ".join(
    f"({i},{(i + 1) % 7},{(i + 3) % 7}) ({i},{(i + 2) % 7},{(i + 3) % 7})"
    for i in range(7)
)

_OCTAHEDRON_FACETS = (
    "(0,1,2) (0,2,4) (0,4,5) (0,5,1) (3,1,2) (3,2,4) (3,4,5) (3,5,1)"
)


def _football(k: int) -> str:
    """Three affine charts on a line: two cyclic Z/k cone points, one
    smooth chart, with a redundant change pair over a shared overlap.
    The change balls about 1 have radius 1/4, or 1/k from k = 13 on:
    B(1, r) misses its Z/k-rotations iff 2r < |1 - zeta_k| = 2 sin(pi/k)."""
    ball = "1/4" if k <= 12 else f"1/{k}"
    return f"""
[scenario]
name = football:{k}
pipelines = atlas, seifert, quotient

[chart A]
n = 1
radius = 2
cyclotomic_order = {k}
generators = [[z]]

[chart B]
n = 1
radius = 2
cyclotomic_order = {k}
generators = [[z]]

[chart C]
n = 1
radius = 2
cyclotomic_order = {k}
generators =

[change A -> C]
linear = [[1]]
offset = [0]
center = [1]
radius = {ball}

[change C -> B]
linear = [[1]]
offset = [0]
center = [1]
radius = {ball}

[change A -> B]
linear = [[1]]
offset = [0]
center = [1]
radius = {ball}

[change A -> B]
linear = [[z]]
offset = [0]
center = [1]
radius = {ball}

[complex S]
vertices = {_football_vertex_count(k)}
facets = {_football_facets(k)}

[action R]
group = cyclic:{k}
maps = {_football_maps(k)}

[quotient]
complex = S
action = R
complex_dim_n = 1
"""


def _football_equator(k: int) -> int:
    # a k-gon bipyramid needs at least 4 equator vertices to be simplicial
    return k if k >= 3 else 2 * k


def _football_vertex_count(k: int) -> int:
    return _football_equator(k) + 2


def _football_facets(k: int) -> str:
    ell = _football_equator(k)
    eq = list(range(1, ell + 1))
    parts = []
    for i in range(ell):
        a, b = eq[i], eq[(i + 1) % ell]
        parts.append(f"(0,{a},{b})")
        parts.append(f"({ell + 1},{a},{b})")
    return " ".join(parts)


def _football_maps(k: int) -> str:
    ell = _football_equator(k)
    step = ell // k
    image = [0] + [1 + ((i - 1 + step) % ell) for i in range(1, ell + 1)] + [ell + 1]
    return ", ".join(str(x) for x in image)


def _quaternion_chart() -> str:
    """One chart with the quaternion group Q8 in U(2) and a redundant
    self-gluing, exercising the nonabelian witness search."""
    return """
[scenario]
name = quaternion-chart
pipelines = atlas, seifert

[chart Q]
n = 2
radius = 2
cyclotomic_order = 4
generators = [[z, 0], [0, z^3]] ; [[0, 1], [z^2, 0]]

[change Q -> Q]
linear = [[1, 0], [0, 1]]
offset = [0, 0]
center = [1, 0]
radius = 1/4

[change Q -> Q]
linear = [[z, 0], [0, z^3]]
offset = [0, 0]
center = [1, 0]
radius = 1/4
"""


def _weighted_hopf(p: int, q: int) -> str:
    return f"""
[scenario]
name = weighted-hopf:{p}:{q}
pipelines = taut

[action]
type = circle
weights = {p}, {q}

[metric]
kind = round

[check taut]
samples = 1000
orbits = 50
tol = 1e-9
"""


def _torus7_blocks(cid: str) -> str:
    # v -> -v reverses this vertex order; a triangulated product needed
    # that to keep the involution simplicial, the cell product does not
    return f"""
[complex {cid}]
vertices = 7
facets = {_TORUS7_FACETS}
vertex_order = 1, 2, 3, 0, 4, 5, 6
"""


def _torus7() -> str:
    return f"""
[scenario]
name = torus7
pipelines = quotient
{_torus7_blocks("T")}
[action I]
group = trivial

[quotient]
complex = T
action = I
complex_dim_n = 1
"""


def _pillowcase() -> str:
    return f"""
[scenario]
name = pillowcase
pipelines = quotient
{_torus7_blocks("T")}
[action F]
group = cyclic:2
maps = 0, 6, 5, 4, 3, 2, 1

[quotient]
complex = T
action = F
complex_dim_n = 1
"""


def _t4_z2() -> str:
    return f"""
[scenario]
name = t4-z2
pipelines = quotient
{_torus7_blocks("T")}
[complex T4]
product = T * T

[action F]
group = cyclic:2
maps = 0, 6, 5, 4, 3, 2, 1

[action D]
group = product
factors = F, F

[quotient]
complex = T4
action = D
complex_dim_n = 2
kahler = product-sum
"""


def _octahedron() -> str:
    return f"""
[scenario]
name = octahedron
pipelines = quotient

[complex O]
vertices = 6
facets = {_OCTAHEDRON_FACETS}

[action I]
group = trivial

[quotient]
complex = O
action = I
complex_dim_n = 1
"""


def _rp2_antipodal() -> str:
    return f"""
[scenario]
name = rp2-antipodal
pipelines = quotient

[complex O]
vertices = 6
facets = {_OCTAHEDRON_FACETS}

[action A]
group = cyclic:2
maps = 3, 4, 5, 0, 1, 2

[quotient]
complex = O
action = A
complex_dim_n = 1
"""


_FIXED = {
    "pillowcase": _pillowcase,
    "torus7": _torus7,
    "t4-z2": _t4_z2,
    "octahedron": _octahedron,
    "rp2-antipodal": _rp2_antipodal,
    "quaternion-chart": _quaternion_chart,
}

CATALOG_NAMES = [
    "football:<k>",
    "pillowcase",
    "torus7",
    "t4-z2",
    "octahedron",
    "weighted-hopf:<p>:<q>",
    "rp2-antipodal",
    "quaternion-chart",
]


def catalog_text(name: str) -> str:
    if name in _FIXED:
        return _FIXED[name]()
    if name.startswith("football:"):
        return _football(_parameter(name[len("football:") :], "football parameter", 2, CLOSURE_CAP))
    if name.startswith("weighted-hopf:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise UnknownCatalogEntry(f"malformed catalog name {name!r}")
        return _weighted_hopf(*(_parameter(w, "weighted-hopf weight", 1) for w in parts[1:]))
    raise UnknownCatalogEntry(f"unknown catalog entry {name!r}")


def _parameter(text: str, key: str, lo: int, hi: int | None = None) -> int:
    """A parameter of a catalog name, read in the scenario file grammar."""
    try:
        return parse_number(text, 0, key, lo, hi)
    except ParseError as e:
        raise UnknownCatalogEntry(e.message) from None


def catalog_scenario(name: str) -> Scenario:
    return parse_scenario(catalog_text(name))
