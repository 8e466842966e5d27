"""Line-oriented scenario files: named blocks of key = value entries.

This module owns the scenario contract.  The parser checks single values,
reports malformed input with line numbers and rejects unknown keys, so
golden scenario texts stay unambiguous; ``Scenario.validate`` checks every
rule that spans blocks.  The builders in ``pipeline`` check nothing again.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import MissingSection, ParseError, ShapeMismatch, UnknownPipeline

KNOWN_PIPELINES = ("atlas", "seifert", "taut", "quotient")


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
        for p in self.pipelines:
            if p not in KNOWN_PIPELINES:
                raise UnknownPipeline(f"unknown pipeline {p!r}")
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


_RATIONAL = re.compile(r"^-?\d+(/\d*[1-9]\d*)?$")  # no zero denominator


def parse_rational(text: str, line: int) -> Fraction:
    text = text.strip()
    if not _RATIONAL.match(text):
        raise ParseError(line, f"malformed rational {text!r}")
    return Fraction(text)


def parse_z_polynomial(text: str, line: int) -> list[Fraction]:
    """Coefficients of a polynomial in z, e.g. "z^2 + 1/2" or "-z"."""
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
            coeff = parse_rational(head, line) if head else Fraction(1)
            tail = tail.strip()
            if tail.startswith("^"):
                try:
                    power = int(tail[1:])
                except ValueError:
                    raise ParseError(line, f"malformed power in {text!r}")
            elif tail:
                raise ParseError(line, f"malformed term in {text!r}")
            else:
                power = 1
        else:
            coeff = parse_rational(term, line)
            power = 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff
    top = max(coeffs) if coeffs else 0
    return [coeffs.get(k, Fraction(0)) for k in range(top + 1)]


def _split_top_level(text: str, sep: str, open_: str = "[(", close: str = "])") -> list[str]:
    parts, depth, buf = [], 0, []
    for ch in text:
        if ch in open_:
            depth += 1
        elif ch in close:
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]


def parse_matrix(text: str, line: int) -> list[list[list[Fraction]]]:
    """A matrix [[entry, ...], ...] of z-polynomials."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(line, f"malformed matrix {text!r}")
    body = text[1:-1].strip()
    rows = []
    for row_text in _split_top_level(body, ","):
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError(line, f"malformed matrix row {row_text!r}")
        entries = _split_top_level(row_text[1:-1], ",")
        rows.append([parse_z_polynomial(e, line) for e in entries])
    if not rows:
        raise ParseError(line, "empty matrix")
    return rows


def parse_vector(text: str, line: int) -> list[list[Fraction]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(line, f"malformed vector {text!r}")
    return [parse_z_polynomial(e, line) for e in _split_top_level(text[1:-1], ",")]


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(line, f"malformed integer {text!r}")


def _parse_float(text: str, line: int) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ParseError(line, f"malformed number {text!r}")


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
            reject_unknown()
        elif kind == "chart":
            if len(words) != 2:
                raise ParseError(head_line, "chart header must be [chart <id>]")
            ln, n = take("n")
            n = _parse_int(n, ln)
            if n < 1:
                raise ParseError(ln, f"n must be at least 1, got {n}")
            ln, radius = take("radius")
            rad = None if radius.strip() == "inf" else _parse_radius(radius, ln)
            ln, order = take("cyclotomic_order")
            order = _parse_int(order, ln)
            if order < 1:
                raise ParseError(ln, f"cyclotomic_order must be at least 1, got {order}")
            ln, gens = take("generators")
            gen_list = []
            gens = gens.strip()
            if gens:
                for g in _split_top_level(gens, ";"):
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
            try:
                weights = [int(x) for x in weights.split(",")]
            except ValueError:
                raise ParseError(ln, f"malformed weights {weights!r}")
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
                ln, value = take(key, required=False)
                if value is not None and _parse_int(value, ln) < 1:
                    raise ParseError(ln, f"{key} must be at least 1, got {value.strip()}")
            ln, tol = take("tol", required=False)
            if tol is not None and not 0 <= _parse_float(tol, ln) < math.inf:
                raise ParseError(ln, f"tol must be a finite number of at least 0, got {tol.strip()!r}")
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
                section.vertices = _parse_int(v, ln)
                ln, facets = take("facets")
                section.facets = _parse_facets(facets, ln, section.vertices)
                if "vertex_order" in kv:
                    ln, vo = take("vertex_order")
                    section.vertex_order = [_parse_int(x, ln) for x in vo.split(",")]
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
                if prefix != "cyclic" or not k.isdigit() or int(k) < 1:
                    raise ParseError(ln, "group must be trivial, product or cyclic:<k> with k >= 1")
                section.order = int(k)
                ln, maps = take("maps")
                section.maps = [_parse_int(x, ln) for x in maps.split(",")]
            reject_unknown()
            scenario.actions[section.id] = section
        elif header == "quotient":
            ln, cx = take("complex")
            ln, act = take("action")
            ln, n = take("complex_dim_n")
            n = _parse_int(n, ln)
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
    radius = parse_rational(text, line)
    if radius <= 0:
        raise ParseError(line, f"radius must be greater than 0, got {text.strip()!r}")
    return radius


def _parse_facets(text: str, line: int, vertices: int) -> list[tuple[int, ...]]:
    """Facets of distinct vertices in 0..vertices-1 that together use every vertex."""
    facets = []
    for part in re.findall(r"\(([^)]*)\)", text):
        try:
            facets.append(tuple(int(x) for x in part.split(",")))
        except ValueError:
            raise ParseError(line, f"malformed facet ({part})")
    if not facets:
        raise ParseError(line, "no facets given")
    for f in facets:
        if min(f) < 0 or max(f) >= vertices:
            raise ParseError(line, f"facet {f} has a vertex outside 0..{vertices - 1}")
        if len(set(f)) != len(f):
            raise ParseError(line, f"facet {f} repeats a vertex")
    unused = sorted(set(range(vertices)).difference(*facets))
    if unused:
        raise ParseError(line, f"vertex {unused[0]} lies in no facet")
    return facets

