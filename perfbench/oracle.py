"""Verdict oracle: compares a machine-format report with the expected
lines that the workload generator derived from each input's construction.

A report is wrong when its header names another scenario, when a check
key is missing, extra or out of place, or when any value breaks its
rule (a flipped verdict, an altered Betti string, a deviation above the
pinned tolerance, ...).
"""

from __future__ import annotations

import re

_FIBER = re.compile(r"\|Gamma_x\| = (\d+)$")
_MAX_DEV = re.compile(r"^PASS max_dev=(\S+)$")


def parse_machine(text: str) -> tuple[str, list]:
    """(scenario name, [(key, value), ...]) of a ``--format machine`` report."""
    lines = text.splitlines()
    if not lines or not (lines[0].startswith("[report ") and lines[0].endswith("]")):
        raise ValueError("missing report header")
    pairs = []
    for line in lines[1:]:
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed report line {line!r}")
        pairs.append((key, value))
    return lines[0][len("[report "):-1], pairs


def _value_ok(value: str, rule) -> bool:
    kind = rule[0]
    if kind == "verdict":
        return value.split(" ", 1)[0] == rule[1]
    if kind == "exact":
        return value == rule[1]
    if kind == "fiber":
        m = _FIBER.search(value)
        return m is not None and int(m.group(1)) == rule[1]
    if kind == "max_dev":
        m = _MAX_DEV.match(value)
        return m is not None and float(m.group(1)) <= rule[1]
    if kind == "nonzero_int":
        return re.fullmatch(r"-?[1-9]\d*", value) is not None
    raise ValueError(f"unknown rule {rule!r}")


def check(name: str, report: str, expect: list) -> list[str]:
    """Reasons the report is wrong; empty when it is right."""
    try:
        got_name, pairs = parse_machine(report)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if got_name != name:
        problems.append(f"report is for {got_name!r}")
    got_keys = [k for k, _ in pairs]
    want_keys = [k for k, _ in expect]
    if got_keys != want_keys:
        missing = [k for k in want_keys if k not in got_keys]
        extra = [k for k in got_keys if k not in want_keys]
        problems.append(f"check keys differ: missing {missing}, extra {extra}")
        return problems
    for (key, value), (_, rule) in zip(pairs, expect):
        if not _value_ok(value, rule):
            problems.append(f"{key} = {value!r} breaks {rule!r}")
    return problems
