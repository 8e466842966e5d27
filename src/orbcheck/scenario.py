"""Line-oriented scenario files: named blocks of key = value entries.

This module owns the scenario contract.  The parser checks single values,
reports malformed input with line numbers and rejects unknown keys, so
golden scenario texts stay unambiguous; ``Scenario.validate`` checks every
rule that spans blocks.  The builders in ``pipeline`` check nothing again.
Values have one grammar: ``parse_number`` reads every number and its
range, and ``_groups`` every bracketed list, so no number in the text
can crash the parser or make it build something of that size.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import MissingSection, ParseError, ShapeMismatch

KNOWN_PIPELINES = ("atlas", "seifert", "taut", "quotient")
CLOSURE_CAP = 64  # largest group, cyclotomic order, chart dimension and weight count


@dataclass
class ChartSection:
    id: str
    n: int
    radius: Optional[Fraction]
    cyclotomic_order: int
    generators: list  # list of matrices; entries are z-polynomial coefficient lists


@dataclass
class ChangeSection:
    source: str
    target: str
    linear: list
    offset: list
    center: list
    radius: Fraction


@dataclass
class GeometrySection:
    weights: list[int]


@dataclass
class ComplexSection:
    id: str
    vertices: int = 0
    facets: list = field(default_factory=list)
    vertex_order: Optional[list[int]] = None
    product: Optional[tuple[str, str]] = None


@dataclass
class ActionSection:
    id: str
    group: str  # "trivial", "cyclic:<k>", "product"
    order: int = 1  # k of cyclic:<k>
    maps: Optional[list[int]] = None
    factors: Optional[tuple[str, str]] = None


@dataclass
class QuotientSection:
    complex: str
    action: str
    n: int
    product_sum: bool = False  # kahler = product-sum


@dataclass
class Scenario:
    name: str
    pipelines: list[str]
    charts: list[ChartSection] = field(default_factory=list)
    changes: list[ChangeSection] = field(default_factory=list)
    geometry: Optional[GeometrySection] = None
    complexes: dict[str, ComplexSection] = field(default_factory=dict)
    actions: dict[str, ActionSection] = field(default_factory=dict)
    quotient: Optional[QuotientSection] = None

    def validate(self):
        if ("atlas" in self.pipelines or "seifert" in self.pipelines) and not self.charts:
            raise MissingSection("atlas/seifert pipelines require [chart] sections")
        if "taut" in self.pipelines and self.geometry is None:
            raise MissingSection("taut pipeline requires an [action] section")
        if "quotient" in self.pipelines:
            if self.quotient is None:
                raise MissingSection("quotient presentation required")
            self._validate_quotient()
        n = self.charts[0].n if self.charts else None
        chart_ids = set()
        for c in self.charts:
            chart_ids.add(c.id)
            for key in ("n", "cyclotomic_order"):
                mine, first = getattr(c, key), getattr(self.charts[0], key)
                if mine != first:
                    raise ShapeMismatch(f"[chart {c.id}] has {key} = {mine} but [chart {self.charts[0].id}] has {key} = {first}")
        for ch in self.changes:
            where = f"[change {ch.source} -> {ch.target}]"
            for end in (ch.source, ch.target):
                if end not in chart_ids:
                    raise MissingSection(f"{where} names undeclared chart {end!r}")
            if not _is_square(ch.linear, n):
                raise ShapeMismatch(f"{where} linear must be {n}x{n}")
            for key, vector in (("offset", ch.offset), ("center", ch.center)):
                if len(vector) != n:
                    raise ShapeMismatch(f"{where} {key} must have length {n}, got {len(vector)}")

    def _validate_quotient(self):
        qs = self.quotient
        if qs.complex not in self.complexes:
            raise MissingSection(f"missing [complex {qs.complex}] block")
        if qs.action not in self.actions:
            raise MissingSection(f"missing [action {qs.action}] block")
        section = self.complexes[qs.complex]
        parts = [self.complexes.get(f) for f in section.product or ()]  # the factors of a product
        if None in parts:
            raise MissingSection("product factors must be declared complexes")
        if any(f.product for f in parts):
            raise MissingSection("product factors must be plain complexes, not products")
        dim = sum(max(map(len, f.facets)) - 1 for f in parts or [section])
        if 2 * qs.n != dim:
            raise ShapeMismatch(f"[quotient] complex_dim_n = {qs.n} needs dimension {2 * qs.n}, [complex {section.id}] has {dim}")
        if qs.product_sum and not parts:
            raise MissingSection("kahler = product-sum requires a product complex")
        action = self.actions[qs.action]
        acts = [self.actions.get(a) for a in action.factors or ()]
        if action.factors:
            if not parts:
                raise MissingSection("product action requires a product complex")
            if None in acts or any(a.factors for a in acts):
                raise MissingSection(f"[action {action.id}] factors must be declared non-product actions")
            if acts[0].order != acts[1].order:
                raise ShapeMismatch(f"[action {action.id}] factors must act by one group: {acts[0].group}, {acts[1].group}")
        elif parts and action.maps:
            raise MissingSection(f"[action {action.id}] on a product complex must be trivial or a product action")
        for act, cx in zip(acts, parts) if action.factors else [(action, section)]:
            if act.maps and (len(act.maps) != cx.vertices or min(act.maps) < 0 or max(act.maps) >= cx.vertices):
                raise MissingSection(f"[action {act.id}] maps must list one of 0..{cx.vertices - 1} per vertex")


def _is_square(matrix: list, n: int) -> bool:
    return len(matrix) == n and all(len(row) == n for row in matrix)


def _echo(text: str, quote: bool = True) -> str:
    """text for an error message, stripped and cut after 40 characters."""
    text = text.strip()
    shown = repr(text[:40]) if quote else text[:40]
    return shown if len(text) <= 40 else f"{shown}... ({len(text)} characters)"


_RATIONAL = re.compile(r"\s*[-+]?[0-9]+(/[0-9]+)?\s*")


def parse_number(text: str, line: int, key: str = "", lo=None, hi=None, rational: bool = False, many: bool = False):
    """The one reader of numbers.  An integer is ASCII digits after an
    optional sign, and a rational may add / and a denominator of digits
    that is not 0; with ``many``, text is a comma-separated list of
    integers.  Given ``lo`` or ``hi``, a value outside the range or a
    malformed one reads "<key> must be ..."; otherwise a malformed one
    reads "malformed <key>".  A number with more digits than ``int()``
    converts (``sys.get_int_max_str_digits()``) is malformed."""
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        if many:
            return [int(x) for x in text.split(",")]
        if rational and not _RATIONAL.fullmatch(text):
            raise ValueError
        value = Fraction(text) if rational else int(text)
        if (lo is None or lo <= value) and (hi is None or value <= hi):
            return value
        shown = _echo(text, quote=False)
    except (ValueError, ZeroDivisionError):
        shown = _echo(text)
    if lo is None and hi is None:
        raise ParseError(line, f"malformed {key or ('rational' if rational else 'integer')} {shown}")
    bound = f"at least {lo}" if hi is None else f"at most {hi}" if lo is None else f"{lo}..{hi}"
    raise ParseError(line, f"{key} must be {bound}, got {shown}")


def parse_z_polynomial(text: str, line: int) -> list[Fraction]:
    """Coefficients of a polynomial in z, e.g. "z^2 + 1/2" or "-z"; a power
    of z is at most CLOSURE_CAP, the largest cyclotomic order."""
    text = text.strip()
    if not text:
        raise ParseError(line, "empty polynomial")
    norm = text.replace("-", "+-").replace("++-", "+-")
    coeffs: dict[int, Fraction] = {}
    for term in norm.split("+"):
        term = term.strip()
        if not term:
            continue
        sign = Fraction(1)
        if term.startswith("-"):
            sign = Fraction(-1)
            term = term[1:].strip()
        if "z" in term:
            head, _, tail = term.partition("z")
            head = head.strip().rstrip("*").strip()
            coeff = parse_number(head, line, rational=True) if head else Fraction(1)
            tail = tail.strip()
            if tail.startswith("^"):
                power = parse_number(tail[1:], line, "power of z", 0, CLOSURE_CAP)
            elif tail:
                raise ParseError(line, f"malformed term in {_echo(text)}")
            else:
                power = 1
        else:
            coeff = parse_number(term, line, rational=True)
            power = 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff
    top = max(coeffs) if coeffs else 0
    return [coeffs.get(k, Fraction(0)) for k in range(top + 1)]


# per opening bracket: a group that may hold groups one level deep, the
# text that separates groups, and the brackets' name
_GROUP = {
    "(": (re.compile(r"\(((?:[^()]|\([^()]*\))*)\)"), " ", "parentheses"),
    "[": (re.compile(r"\[((?:[^][]|\[[^][]*\])*)\]"), ",", "brackets"),
}


def _groups(text: str, line: int, what: str, open_: str = "[", one: bool = False) -> list[str]:
    """The insides of the bracket groups that text lists, in order: facets
    (a,b,...) separated by whitespace, matrix rows and vectors [...]
    separated by commas.  The one stray-text rule: outside the groups only
    whitespace and the separator may stand.  With ``one``, text is one group."""
    pattern, sep, brackets = _GROUP[open_]
    groups = pattern.findall(text)
    if len(groups) != 1 if one else not groups:
        raise ParseError(line, f"malformed {what} {_echo(text)}" if one else f"no {what}s given")
    stray = " ".join(pattern.sub(" ", text).replace(sep, " ").split())
    if stray:
        raise ParseError(line, f"stray text {_echo(stray)} outside the {what} {brackets}")
    return groups


def parse_vector(text: str, line: int) -> list[list[Fraction]]:
    """A vector [entry, ...] of z-polynomials; empty entries are skipped."""
    (body,) = _groups(text, line, "vector", one=True)
    return [parse_z_polynomial(e, line) for e in body.split(",") if e.strip()]


def parse_matrix(text: str, line: int) -> list[list[list[Fraction]]]:
    """A matrix [[entry, ...], ...] of z-polynomials."""
    (body,) = _groups(text, line, "matrix", one=True)
    return [[parse_z_polynomial(e, line) for e in row.split(",") if e.strip()] for row in _groups(body, line, "matrix row")]


def _check_tol(text: str, line: int) -> None:
    """The one number outside parse_number: [check taut] tol is a float."""
    try:
        if 0 <= float(text) < math.inf:
            return
    except ValueError:
        pass
    raise ParseError(line, f"tol must be a finite number of at least 0, got {_echo(text)}")


_HEADER = re.compile(r"^\[([^\]]+)\]$")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario; raises ParseError with line numbers."""
    blocks: list[tuple[int, str, list[tuple[int, str, str]]]] = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER.match(line)
        if m:
            current = (lineno, m.group(1).strip(), [])
            blocks.append(current)
            continue
        if current is None:
            raise ParseError(lineno, "content before first block header")
        if "=" not in line:
            raise ParseError(lineno, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        current[2].append((lineno, key.strip(), value.strip()))

    scenario = Scenario(name="", pipelines=[])
    seen: set[str] = set()

    for head_line, header, items in blocks:
        words = header.split()
        kind = words[0] if words else ""  # a blank header [ ] is an unknown block
        header = " ".join(words)
        if header in seen and kind != "change":  # redundant changes over one overlap are valid
            raise ParseError(head_line, f"[{header}] is declared twice")
        seen.add(header)
        kv = {}
        for lineno, key, value in items:
            if key in kv:
                raise ParseError(lineno, f"duplicate key {key!r}")
            kv[key] = (lineno, value)

        def take(key, required=True, default=None):
            if key not in kv:
                if required:
                    raise ParseError(head_line, f"[{header}] missing key {key!r}")
                return None, default
            return kv.pop(key)

        def reject_unknown():
            if kv:
                lineno, _ = next(iter(kv.values()))
                raise ParseError(lineno, f"unknown key {next(iter(kv))!r} in [{header}]")

        if header == "scenario":
            ln, name = take("name")
            ln, pipes = take("pipelines")
            scenario.name = name
            scenario.pipelines = [p.strip() for p in pipes.split(",") if p.strip()]
            if not scenario.pipelines:
                raise ParseError(ln, "pipelines names no pipeline")
            twice = [p for i, p in enumerate(scenario.pipelines) if p in scenario.pipelines[:i]]
            if twice:
                raise ParseError(ln, f"pipeline {twice[0]!r} is named twice")
            unknown = [p for p in scenario.pipelines if p not in KNOWN_PIPELINES]
            if unknown:
                raise ParseError(ln, f"unknown pipeline {unknown[0]!r}")
            reject_unknown()
        elif kind == "chart":
            if len(words) != 2:
                raise ParseError(head_line, "chart header must be [chart <id>]")
            ln, n = take("n")
            n = parse_number(n, ln, "n", 1, CLOSURE_CAP)
            ln, radius = take("radius")
            rad = None if radius.strip() == "inf" else _parse_radius(radius, ln)
            ln, order = take("cyclotomic_order")
            order = parse_number(order, ln, "cyclotomic_order", 1, CLOSURE_CAP)
            ln, gens = take("generators")
            gen_list = []
            for g in filter(str.strip, gens.split(";")):
                gen_list.append(parse_matrix(g, ln))
                if not _is_square(gen_list[-1], n):
                    raise ParseError(ln, f"generator {len(gen_list)} must be {n}x{n}")
            reject_unknown()
            scenario.charts.append(ChartSection(words[1], n, rad, order, gen_list))
        elif kind == "change":
            m = re.match(r"^change\s+(\S+)\s*->\s*(\S+)$", header)
            if not m:
                raise ParseError(head_line, "change header must be [change <i> -> <j>]")
            ln, linear = take("linear")
            linear = parse_matrix(linear, ln)
            ln, offset = take("offset")
            offset = parse_vector(offset, ln)
            ln, center = take("center")
            center = parse_vector(center, ln)
            ln, radius = take("radius")
            radius = _parse_radius(radius, ln)
            reject_unknown()
            scenario.changes.append(
                ChangeSection(m.group(1), m.group(2), linear, offset, center, radius)
            )
        elif header == "action":
            ln, atype = take("type", required=False, default="circle")
            if atype.strip() != "circle":
                raise ParseError(ln, f"taut pipeline currently handles circle actions, got {atype.strip()!r}")
            ln, weights = take("weights")
            weights = parse_number(weights, ln, "weights", many=True)
            if len(weights) > CLOSURE_CAP:
                raise ParseError(ln, f"weights must list at most {CLOSURE_CAP} weights, got {len(weights)}")
            reject_unknown()
            scenario.geometry = GeometrySection(weights)
        elif header == "metric":
            # the taut suite reads one metric, u times the Euclidean one
            ln, metric = take("kind", required=False, default="round")
            if metric.strip() != "round":
                raise ParseError(ln, f"unsupported metric kind {metric.strip()!r}")
            reject_unknown()
        elif header == "check taut":
            # the generated benchmark texts carry these sampling keys; the taut
            # suite is exact, so they are range-checked and dropped
            for key in ("samples", "orbits", "nodes"):
                ln, value = take(key, required=False, default="1")
                parse_number(value, ln, key, 1)
            ln, tol = take("tol", required=False, default="0")
            _check_tol(tol, ln)
            reject_unknown()
        elif kind == "complex":
            if len(words) != 2:
                raise ParseError(head_line, "complex header must be [complex <id>]")
            section = ComplexSection(words[1])
            if "product" in kv:
                ln, prod = take("product")
                parts = [p.strip() for p in prod.split("*")]
                if len(parts) != 2:
                    raise ParseError(ln, "product must name two complexes: A * B")
                section.product = (parts[0], parts[1])
            else:
                ln, v = take("vertices")
                section.vertices = parse_number(v, ln, "vertices", 1)
                ln, facets = take("facets")
                section.facets = _parse_facets(facets, ln, section.vertices)
                if "vertex_order" in kv:
                    ln, vo = take("vertex_order")
                    section.vertex_order = parse_number(vo, ln, "vertex_order", many=True)
                    if sorted(section.vertex_order) != list(range(section.vertices)):
                        raise ParseError(ln, f"vertex_order must permute 0..{section.vertices - 1}")
            reject_unknown()
            scenario.complexes[section.id] = section
        elif kind == "action" and len(words) == 2:
            section = ActionSection(words[1], "")
            ln, grp = take("group")
            section.group = grp.strip()
            if section.group == "product":
                ln, factors = take("factors")
                parts = [p.strip() for p in factors.split(",")]
                if len(parts) != 2:
                    raise ParseError(ln, "factors must name two actions")
                section.factors = (parts[0], parts[1])
            elif section.group != "trivial":
                prefix, _, k = section.group.partition(":")
                if prefix != "cyclic":
                    raise ParseError(ln, "group must be trivial, product or cyclic:<k>")
                section.order = parse_number(k, ln, "group order", 1, CLOSURE_CAP)
                ln, maps = take("maps")
                section.maps = parse_number(maps, ln, "maps", many=True)
            reject_unknown()
            scenario.actions[section.id] = section
        elif header == "quotient":
            ln, cx = take("complex")
            ln, act = take("action")
            ln, n = take("complex_dim_n")
            # a facet of 2n + 1 vertices closes to 2^(2n+1) faces, and
            # _validate_quotient ties every facet and factor to 2n
            n = parse_number(n, ln, "complex_dim_n", hi=4)
            ln, kahler = take("kahler", required=False)
            if kahler not in (None, "product-sum"):
                raise ParseError(ln, f"kahler must be product-sum, got {kahler!r}")
            reject_unknown()
            scenario.quotient = QuotientSection(cx.strip(), act.strip(), n, kahler is not None)
        else:
            raise ParseError(head_line, f"unknown block [{header}]")

    if scenario.geometry is None and seen & {"metric", "check taut"}:
        raise MissingSection("[metric] and [check taut] require an [action] block")
    if not scenario.name:
        raise ParseError(1, "missing [scenario] block with a name")
    scenario.validate()
    return scenario


def _parse_radius(text: str, line: int) -> Fraction:
    radius = parse_number(text, line, rational=True)
    if radius <= 0:
        raise ParseError(line, f"radius must be greater than 0, got {_echo(text)}")
    return radius


def _parse_facets(text: str, line: int, vertices: int) -> list[tuple[int, ...]]:
    """Distinct facets of distinct vertices in 0..vertices-1 that together
    use every vertex, written (a,b,...) and separated by whitespace.  The
    first unused vertex is found among the used ones, so the cost is
    linear in the text, whatever ``vertices`` says."""
    facets = [tuple(parse_number(f, line, "facet", many=True)) for f in _groups(text, line, "facet", "(")]
    seen = set()
    for f in facets:
        if min(f) < 0 or max(f) >= vertices:
            raise ParseError(line, f"facet {f} has a vertex outside 0..{vertices - 1}")
        if len(set(f)) != len(f):
            raise ParseError(line, f"facet {f} repeats a vertex")
        if frozenset(f) in seen:
            raise ParseError(line, f"facet {f} is listed twice")
        seen.add(frozenset(f))
    used = set().union(*facets)
    if len(used) < vertices:
        raise ParseError(line, f"vertex {min(set(range(len(used) + 1)) - used)} lies in no facet")
    return facets
