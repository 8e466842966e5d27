"""Seeded mutations of small catalog texts exit 0, 1 or 2, never with a traceback.

Each case applies one to three mutations to a catalog text: replace a
number, replace a value with a token from a fixed list, delete a line,
or duplicate a line.  The text then runs through ``cli.main`` in process.
"""

import random
import re

import pytest

from orbcheck.catalog import catalog_text
from orbcheck.cli import main

# (catalog entry, number of mutants); the slower
# entries get fewer mutants so the whole test stays within a few seconds
ENTRIES = [
    ("football:2", 40),
    ("football:3", 40),
    ("pillowcase", 80),
    ("torus7", 80),
    ("octahedron", 80),
    ("rp2-antipodal", 80),
    ("quaternion-chart", 20),
    ("weighted-hopf:1:2", 20),
]

NUMBERS = ["-1", "0", "1", "2", "3", "4", "6", "9"]

TOKENS = [
    "", "0", "-1", "2", "1/2", "-1/4", "inf", "nan", "1e-9", "x",
    "z", "z^3", "[[z]]", "[[2]]", "[[1, 0], [0, 1]]", "[0]", "[0, 0]", "[1]",
    "(0,1,9)", "(0,1)", "(0,1,2,3)", "0, 1", "0, 1, 2, 3, 4, 5, 6",
    "trivial", "product", "cyclic:2", "cyclic:3", "T * T", "T * Q", "F, F", "F, X",
    "product-sum", "hello", "torus", "circle", "flat", "round", "atlas", "quotient",
]


def mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        kind = rng.randrange(4)
        if kind == 0:
            numbers = list(re.finditer(r"-?\d+", lines[i]))
            if numbers:
                m = rng.choice(numbers)
                lines[i] = lines[i][: m.start()] + rng.choice(NUMBERS) + lines[i][m.end() :]
        elif kind == 1:
            key, eq, _ = lines[i].partition("=")
            if eq:
                lines[i] = f"{key}= {rng.choice(TOKENS)}"
        elif kind == 2:
            del lines[i]
            if not lines:
                lines = [""]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


def _cases():
    for name, count in ENTRIES:
        rng = random.Random(f"fuzz/{name}")
        for index in range(count):
            yield name, index, mutate(catalog_text(name), rng)


def test_mutated_catalog_texts_never_raise(tmp_path, capsys):
    path = tmp_path / "mutant.scn"
    cases = list(_cases())
    assert len(cases) >= 400
    for name, index, text in cases:
        path.write_text(text)
        try:
            code = main(["run", str(path), "--format", "machine"])
        except Exception as exc:  # the report must name the mutant, not just the exception
            pytest.fail(f"{name} mutant {index} raised {type(exc).__name__}: {exc}\n{text}")
        out = capsys.readouterr()
        assert code in (0, 1, 2), (name, index, code, text)
        if code == 2:
            assert out.out == "", (name, index, text)
