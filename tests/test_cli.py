from pathlib import Path

import pytest

from orbcheck.cli import main
from orbcheck.errors import MissingSection, ParseError
from orbcheck.scenario import parse_scenario
from test_simplicial import TWO_SPHERE_ACTIONS, two_spheres_text

OCTAHEDRON_REFLECTION = """
[scenario]
name = octahedron-reflection
pipelines = quotient

[complex O]
vertices = 6
facets = (0,1,2) (0,2,4) (0,4,5) (0,5,1) (3,1,2) (3,2,4) (3,4,5) (3,5,1)

[action R]
group = cyclic:2
maps = 3, 1, 2, 0, 4, 5

[quotient]
complex = O
action = R
complex_dim_n = 1
"""


WIDE_CHART = """
[scenario]
name = wide-chart
pipelines = atlas

[chart A]
n = 800
radius = 1
cyclotomic_order = 1
generators =
"""

# a quotient of one simplex, or with complex = P of its square
SIMPLEX = """
[scenario]
name = simplex
pipelines = quotient

[complex S]
vertices = {vertices}
facets = {facets}

[complex P]
product = S * S

[action I]
group = trivial

[quotient]
complex = {complex}
action = I
complex_dim_n = {n}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_catalog(capsys):
    code, out, _ = run_cli(capsys, "list-catalog")
    assert code == 0
    assert "torus7" in out and "quaternion-chart" in out


def test_explain_known_and_unknown(capsys):
    code, out, _ = run_cli(capsys, "explain", "seifert.cocycle")
    assert code == 0 and "f_ki" in out
    code, out, _ = run_cli(capsys, "explain", "seifert.cocycle.A.C.B")
    assert code == 0  # prefix lookup
    code, _, err = run_cli(capsys, "explain", "nonsense")
    assert code == 2 and "unknown" in err


def report_keys():
    golden = Path(__file__).resolve().parent / "golden"
    keys = {line.split(" = ")[0] for path in golden.glob("*.machine") for line in path.read_text().splitlines()}
    return sorted(k for k in keys if not k.startswith("[")) + ["kahler.class"]


@pytest.mark.parametrize("key", report_keys())
def test_explain_covers_every_report_key(capsys, key):
    code, out, err = run_cli(capsys, "explain", key)
    assert code == 0 and err == "" and out.strip()


def test_run_catalog_machine_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "catalog:football:3", "--format", "machine"
    )
    assert code == 0
    assert out.startswith("[report football:3]")
    assert "overall = PASS" in out


def test_run_failing_scenario_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "run", "catalog:rp2-antipodal", "--format", "machine"
    )
    assert code == 1
    assert "pd.fundamental_cycle = FAIL NonOrientable" in out
    assert "overall = FAIL" in out


def test_run_scenario_file(tmp_path, capsys):
    from orbcheck.catalog import catalog_text

    path = tmp_path / "demo.scn"
    path.write_text(catalog_text("octahedron"))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert "Overall: PASS" in out


def test_missing_file_and_parse_error_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", str(tmp_path / "absent.scn"))
    assert code == 2 and "no such scenario" in err
    bad = tmp_path / "bad.scn"
    bad.write_text("[scenario]\nname only\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and "line 2" in err


def test_unreadable_scenario_file_exits_two(tmp_path, capsys):
    # exit 1 is kept for a failed check; a file that is not text is an input error
    latin1 = tmp_path / "latin1.scn"
    latin1.write_bytes(b"[scenario]\nname = caf\xe9\n")
    for target, reason in ((tmp_path, "Is a directory"), (latin1, "not UTF-8 at byte 21")):
        code, out, err = run_cli(capsys, "run", str(target))
        assert (code, out) == (2, "")
        assert err == f"cannot read scenario file {target}: {reason}\n"


def test_unknown_catalog_entry_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", "catalog:moebius")
    assert code == 2


@pytest.mark.parametrize("k", ("1", "65"))
def test_football_outside_the_cap_is_an_unknown_catalog_entry(capsys, k):
    # the catalog rejects the name itself; no generated text reaches the parser
    code, out, err = run_cli(capsys, "run", f"catalog:football:{k}")
    assert code == 2 and out == ""
    assert f"football parameter must be 2..64, got {k}" in err and "parse error" not in err


@pytest.mark.parametrize(
    "name, message",
    [
        ("football:\u0663", "football parameter must be 2..64, got '\u0663'"),
        ("football:0_3", "football parameter must be 2..64, got '0_3'"),
        ("weighted-hopf:1:\u0662", "weighted-hopf weight must be at least 1, got '\u0662'"),
        ("weighted-hopf:0:1", "weighted-hopf weight must be at least 1, got 0"),
    ],
    ids=["football-arabic-indic-digit", "football-underscore", "weight-arabic-indic-digit", "weight-zero"],
)
def test_catalog_parameters_take_the_scenario_number_grammar(capsys, name, message):
    # a digit that is not ASCII, or an underscore, names no catalog entry
    code, out, err = run_cli(capsys, "run", f"catalog:{name}")
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_human_format_marks_failures(capsys):
    code, out, _ = run_cli(capsys, "run", "catalog:rp2-antipodal")
    assert code == 1
    assert "[!!]" in out


def _edit(name, old, new):
    from orbcheck.catalog import catalog_text

    text = catalog_text(name)
    assert old in text
    return text.replace(old, new, 1)


def _append(name, block):
    """A catalog text with one more block after a blank line."""
    from orbcheck.catalog import catalog_text

    return f"{catalog_text(name)}\n{block}\n"


@pytest.mark.parametrize(
    "text, argv, expect",
    [
        (None, ("catalog:weighted-hopf:1:2", "--samples", "3"), "unrecognized arguments: --samples 3"),
        (_edit("weighted-hopf:1:2", "samples = 1000", "samples = 0"), (), "line 14: samples"),
        (_edit("weighted-hopf:1:2", "orbits = 50", "orbits = 0"), (), "line 15: orbits"),
        (_edit("weighted-hopf:1:2", "tol = 1e-9", "tol = 1e-9\nnodes = -1"), (), "line 17: nodes"),
        (_edit("weighted-hopf:1:2", "tol = 1e-9", "tol = nan"), (), "line 16: tol"),
        (_edit("football:2", "[change C -> B]", "[change C -> Q]"), (), "'Q'"),
        (_edit("football:2", "cyclotomic_order = 2", "cyclotomic_order = 0"), (), "line 9: cyclotomic_order"),
        (_edit("football:2", "maps = 0, 3, 4, 1, 2, 5", "maps = 0, 3, 4"), (), "maps"),
        (_edit("football:2", "maps = 0, 3, 4, 1, 2, 5", "maps = 0, 3, 4, 1, 2, 6"), (), "maps"),
        (_edit("football:2", "group = cyclic:2", "group = cyclic:0"), (), "line 53: group"),
        (_edit("football:2", "group = cyclic:2", "group = cyclic:x"), (), "line 53: group"),
        (_edit("football:2", "[chart B]\nn = 1", "[chart B]\nn = 2"), (), "line 16: generator 1 must be 2x2"),
        (_edit("football:2", "[chart C]\nn = 1", "[chart C]\nn = 2"), (), "[chart C] has n = 2 but [chart A] has n = 1"),
        (_edit("football:2", "n = 1", "n = 0"), (), "line 7: n must be 1..64, got 0"),
        (_edit("football:2", "[[z]]", "[[z], [1, 0]]"), (), "line 10: generator 1 must be 1x1"),
        (_edit("football:2", "[[1]]", "[[1, 0], [0, 1]]"), (), "[change A -> C] linear must be 1x1"),
        (_edit("football:2", "offset = [0]", "offset = [0, 0]"), (), "[change A -> C] offset must have length 1"),
        (_edit("football:2", "center = [1]", "center = [1, 0]"), (), "[change A -> C] center must have length 1"),
        (_edit("football:2", "[change A -> C]", "[chart C]\nn = 1\nradius = 2\ncyclotomic_order = 2\ngenerators =\n\n[change A -> C]"), (), "[chart C] is declared twice"),
        (_edit("quaternion-chart", "[[z, 0], [0, z^3]] ; [[0, 1], [z^2, 0]]", "[[z]]"), (), "line 10: generator 1 must be 2x2"),
        # group failures name the chart and the generator, not the matrix
        (_edit("football:2", "[[z]]", "[[2]]"), (), "error: NonUnitaryGenerator: [chart A] generator 1 is not unitary\n"),
        (_edit("quaternion-chart", "[[z, 0], [0, z^3]]", "[[3/5 + 4/5 z, 0], [0, 1]]"), (),
         "error: ClosureExceedsCap: [chart Q] closure exceeds cap 64; group is too large or infinite\n"),
        (_edit("torus7", "complex_dim_n = 1", "complex_dim_n = -1"), (), "complex_dim_n = -1 needs dimension -2, [complex T] has 2"),
        (_edit("torus7", "complex_dim_n = 1", "complex_dim_n = 0"), (), "complex_dim_n = 0 needs dimension 0, [complex T] has 2"),
        (_edit("torus7", "complex_dim_n = 1", "complex_dim_n = 2"), (), "complex_dim_n = 2 needs dimension 4, [complex T] has 2"),
        (_edit("t4-z2", "complex_dim_n = 2", "complex_dim_n = 1"), (), "complex_dim_n = 1 needs dimension 2, [complex T4] has 4"),
        (_edit("torus7", "facets = (0,1,3)", "facets = (0,1,9)"), (), "line 8: facet (0, 1, 9) has a vertex outside 0..6"),
        (_edit("octahedron", "(0,1,2) (0,2,4) (0,4,5) (0,5,1) (3,1,2) (3,2,4) (3,4,5) (3,5,1)", "none"), (), "line 8: no facets given"),
        (_edit("football:2", "[chart B]\nn = 1\nradius = 2\ncyclotomic_order = 2", "[chart B]\nn = 1\nradius = 2\ncyclotomic_order = 4"), (), "[chart B] has cyclotomic_order = 4 but [chart A] has cyclotomic_order = 2"),
        (_edit("t4-z2", "product = T * T", "product = T * T4"), (), "product factors must be plain complexes, not products"),
        (_edit("t4-z2", "product = T * T", "product = T * Q"), (), "product factors must be declared complexes"),
        (_edit("t4-z2", "factors = F, F", "factors = F, X"), (), "[action D] factors must be declared non-product actions"),
        (_edit("t4-z2", "factors = F, F", "factors = F, D"), (), "[action D] factors must be declared non-product actions"),
        (_edit("t4-z2", "factors = F, F", "factors = F, G\n\n[action G]\ngroup = cyclic:3\nmaps = 0, 1, 2, 3, 4, 5, 6"), (), "[action D] factors must act by one group: cyclic:2, cyclic:3"),
        (_edit("t4-z2", "action = D", "action = F"), (), "[action F] on a product complex must be trivial or a product action"),
        (_edit("torus7", "group = trivial", "group = product\nfactors = I, I"), (), "product action requires a product complex"),
        (_edit("t4-z2", "kahler = product-sum", "kahler = hello"), (), "line 26: kahler must be product-sum, got 'hello'"),
        (_edit("torus7", "complex_dim_n = 1", "complex_dim_n = 1\nkahler = product-sum"), (), "kahler = product-sum requires a product complex"),
        (_edit("football:2", "radius = 2", "radius = -1"), (), "line 8: radius must be greater than 0, got '-1'"),
        (_edit("football:2", "radius = 1/4", "radius = 0"), (), "line 28: radius must be greater than 0, got '0'"),
        (_edit("football:2", "radius = 1/4", "radius = 1/0"), (), "line 28: malformed rational '1/0'"),
        (_edit("weighted-hopf:1:2", "type = circle", "type = torus"), (), "line 7: taut pipeline currently handles circle actions"),
        (_edit("weighted-hopf:1:2", "kind = round", "kind = hello"), (), "line 11: unsupported metric kind 'hello'"),
        (_edit("weighted-hopf:1:2", "kind = round", "kind = flat"), (), "line 11: unsupported metric kind 'flat'"),
        (_edit("weighted-hopf:1:2", "[action]\ntype = circle\nweights = 1, 2\n", ""), (), "error: MissingSection: taut pipeline requires an [action] section\n"),
        (_edit("torus7", "vertex_order = 1, 2, 3, 0, 4, 5, 6", "vertex_order = 1, 2, 3"), (), "line 9: vertex_order must permute 0..6"),
        (_edit("octahedron", "vertices = 6", "vertices = 9"), (), "line 8: vertex 6 lies in no facet"),
        (_edit("torus7", "facets = (0,1,3)", "facets = (0,0,3)"), (), "line 8: facet (0, 0, 3) repeats a vertex"),
        (_edit("octahedron", "(3,5,1)", "(3,5,1) 3,4 (junk"), (), "line 8: stray text '3,4 (junk' outside the facet parentheses"),
        (_edit("octahedron", "(3,5,1)", "(3,5,1) (3,5,1)"), (), "line 8: facet (3, 5, 1) is listed twice"),
        (_edit("octahedron", "(3,5,1)", "(3,5,1) (1,3,5)"), (), "line 8: facet (1, 3, 5) is listed twice"),
        ("[scenario]\nname = x\npipelines = quotient\n\n[ ]\n", (), "line 5: unknown block []"),
        (_edit("pillowcase", "pipelines = quotient", "pipelines ="), (), "line 4: pipelines names no pipeline"),
        (_edit("pillowcase", "pipelines = quotient", "pipelines = ,"), (), "line 4: pipelines names no pipeline"),
        (_edit("football:2", "seifert, quotient", "seifert, atlas, quotient"), (), "line 4: pipeline 'atlas' is named twice"),
        (_edit("football:2", "seifert, quotient", "seifert, warp, quotient"), (), "line 4: unknown pipeline 'warp'"),
        (_edit("pillowcase", "group = cyclic:2\nmaps = 0, 6, 5, 4, 3, 2, 1", "group = cyclic:100000000000\nmaps = 0, 1, 2, 3, 4, 5, 6"), (), "line 12: group"),
        (_edit("football:2", "cyclotomic_order = 2", "cyclotomic_order = 100000"), (), "line 9: cyclotomic_order must be 1..64, got 100000"),
        # more digits than int() converts, a digit that is not ASCII, an underscore
        (_edit("football:2", "radius = 1/4", "radius = " + "7" * 5000), (), "line 28: malformed rational '7777"),
        (_edit("football:2", "[[z]]", "[[z + " + "7" * 5000 + "]]"), (), "line 10: malformed rational '7777"),
        (_edit("football:2", "group = cyclic:2", "group = cyclic:\u00b2"), (), "line 53: group order must be 1..64, got '\u00b2'"),
        (_edit("octahedron", "vertices = 6", "vertices = 0_6"), (), "line 7: vertices must be at least 1, got '0_6'"),
        (_edit("octahedron", "vertices = 6", "vertices = \u0666"), (), "line 7: vertices must be at least 1, got '\u0666'"),
        (_edit("football:2", "[[z]]", "[[z^65]]"), (), "line 10: power of z must be 0..64, got 65"),
        # 4,300 digits: int() reads it, but 2n has one digit too many to print
        (_edit("torus7", "complex_dim_n = 1", "complex_dim_n = " + "9" * 4300), (), "complex_dim_n must be at most 4, got 9999"),
        (_edit("torus7", "complex_dim_n = 1", "complex_dim_n = 65"), (), "complex_dim_n must be at most 4, got 65"),
        # sizes that grow faster than the text: an n x n identity, a taut
        # suite cubic in the weights, 2^k faces in the closure of a k-vertex facet
        (WIDE_CHART, (), "line 7: n must be 1..64, got 800"),
        (_edit("weighted-hopf:1:2", "weights = 1, 2", "weights = " + ", ".join(["1"] * 800)), (), "line 8: weights must list at most 64 weights, got 800"),
        (SIMPLEX.format(vertices=19, facets="(" + ",".join(map(str, range(19))) + ")", complex="S", n=9), (), "line 19: complex_dim_n must be at most 4, got 9"),
        (SIMPLEX.format(vertices=6, facets="(0,1,2,3,4,5)", complex="P", n=5), (), "line 19: complex_dim_n must be at most 4, got 5"),
        # a block that no named pipeline reads, or that [quotient] does not reach
        (_append("torus7", "[action G]\ngroup = cyclic:2\nmaps = 9, 9"), (), "line 19: [action G] is not reached from [quotient]\n"),
        (_append("torus7", "[complex Z]\nproduct = Q * R"), (), "line 19: [complex Z] is not reached from [quotient]\n"),
        (_append("torus7", "[chart A]\nn = 1\nradius = 1\ncyclotomic_order = 1\ngenerators = [[2]]"), (),
         "line 19: [chart A] is read by no named pipeline, only by atlas or seifert\n"),
        (_append("quaternion-chart", "[quotient]\ncomplex = X\naction = Y\ncomplex_dim_n = 1"), (),
         "line 24: [quotient] is read by no named pipeline, only by quotient\n"),
        (_append("quaternion-chart", "[action]\nweights = 0, 0"), (), "line 24: [action] is read by no named pipeline, only by taut\n"),
        (_edit("torus7", "name = torus7", "name ="), (), "parse error: line 3: name is empty\n"),
        (_edit("torus7", "[scenario]\nname = torus7\npipelines = quotient\n", ""), (), "parse error: line 1: missing [scenario] block with a name\n"),
    ],
    ids=[
        "unknown-run-option",
        "taut-samples-zero",
        "taut-orbits-zero",
        "taut-nodes-negative",
        "taut-tol-nan",
        "change-undeclared-chart",
        "cyclotomic-order-zero",
        "maps-short",
        "maps-out-of-range",
        "cyclic-order-zero",
        "cyclic-order-malformed",
        "chart-b-n-2",
        "chart-n-differs",
        "chart-n-zero",
        "generator-ragged",
        "change-linear-2x2",
        "change-offset-length-2",
        "change-center-length-2",
        "chart-id-duplicate",
        "n2-chart-1x1-generator",
        "generator-not-unitary",
        "closure-above-cap",
        "dim-n-negative",
        "dim-n-zero",
        "dim-n-above-complex",
        "dim-n-below-product",
        "facet-vertex-out-of-range",
        "facets-none",
        "cyclotomic-orders-differ",
        "product-factor-is-product",
        "product-factor-undeclared",
        "product-action-factor-undeclared",
        "product-action-factor-is-product",
        "product-action-factor-groups-differ",
        "cyclic-action-on-product",
        "product-action-on-plain-complex",
        "kahler-unknown",
        "kahler-on-plain-complex",
        "chart-radius-negative",
        "change-radius-zero",
        "rational-zero-denominator",
        "taut-torus-type",
        "metric-kind-unknown",
        "metric-kind-flat",
        "metric-without-action",
        "vertex-order-short",
        "vertex-in-no-facet",
        "facet-repeats-vertex",
        "facet-stray-text",
        "facet-listed-twice",
        "facet-listed-twice-reordered",
        "blank-header",
        "pipelines-empty",
        "pipelines-comma",
        "pipeline-named-twice",
        "pipeline-unknown",
        "cyclic-order-above-cap",
        "cyclotomic-order-above-cap",
        "radius-5000-digits",
        "coefficient-5000-digits",
        "cyclic-order-superscript",
        "vertices-underscore",
        "vertices-arabic-indic-digit",
        "power-above-cap",
        "dim-n-4300-digits",
        "dim-n-above-cap",
        "chart-n-800",
        "weights-800",
        "simplex-19-vertices",
        "simplex-product-dim-10",
        "action-not-reached",
        "complex-not-reached",
        "chart-without-atlas-or-seifert",
        "quotient-without-quotient",
        "action-without-taut",
        "name-empty",
        "scenario-block-missing",
    ],
)
def test_malformed_input_exits_two_without_traceback(tmp_path, capsys, text, argv, expect):
    if text is not None:
        path = tmp_path / "bad.scn"
        path.write_text(text)
        argv = (str(path),) + argv
    try:
        code = main(["run", *argv, "--format", "machine"])
    except SystemExit as exc:  # argparse rejects the option itself
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert expect in out.err and "Traceback" not in out.err


@pytest.mark.parametrize(
    "name, block",
    [
        ("weighted-hopf:1:2", "[action]\nweights = 3, 0"),
        ("weighted-hopf:1:2", "[check taut]\nsamples = 10"),
        ("torus7", "[scenario]\nname = other\npipelines = quotient"),
        ("torus7", "[quotient]\ncomplex = T\naction = I\ncomplex_dim_n = 1"),
        ("torus7", "[action I]\ngroup = trivial"),
        ("torus7", "[complex T]\nvertices = 3\nfacets = (0,1,2)"),
    ],
    ids=["action", "check-taut", "scenario", "quotient", "action-I", "complex-T"],
)
def test_a_repeated_block_exits_two_at_its_second_header(tmp_path, capsys, name, block):
    from orbcheck.catalog import catalog_text

    text = catalog_text(name)
    path = tmp_path / "repeated.scn"
    path.write_text(f"{text}\n{block}\n")
    code, out, err = run_cli(capsys, "run", str(path), "--format", "machine")
    header = block.splitlines()[0]
    assert code == 2 and out == ""
    assert f"line {len(text.splitlines()) + 2}: {header} is declared twice" in err


@pytest.mark.parametrize(
    "name, header, key, required",
    [
        ("torus7", "[scenario]", "pipelines", True),
        ("football:2", "[chart A]", "n", True),
        ("football:2", "[change A -> C]", "linear", True),
        ("weighted-hopf:1:2", "[action]", "weights", True),
        ("weighted-hopf:1:2", "[metric]", "kind", False),
        ("weighted-hopf:1:2", "[check taut]", "samples", False),
        ("torus7", "[complex T]", "facets", True),
        ("torus7", "[action I]", "group", True),
        ("torus7", "[quotient]", "complex_dim_n", True),
    ],
    ids=["scenario", "chart", "change", "action", "metric", "check-taut", "complex", "action-id", "quotient"],
)
def test_every_block_names_the_line_of_a_key_error(name, header, key, required):
    from orbcheck.catalog import catalog_text

    lines = catalog_text(name).splitlines()
    head = lines.index(header)
    at = next(i for i in range(head + 1, len(lines)) if lines[i].partition("=")[0].strip() == key)

    def error(edited):
        with pytest.raises(ParseError) as exc:
            parse_scenario("\n".join(edited) + "\n")
        return str(exc.value)

    after = lines[: at + 1]
    assert error(after + ["shine = yes"] + lines[at + 1 :]) == f"line {at + 2}: unknown key 'shine' in {header}"
    assert error(after + [lines[at]] + lines[at + 1 :]) == f"line {at + 2}: duplicate key {key!r}"
    without = lines[:at] + lines[at + 1 :]
    if required:
        assert error(without) == f"line {head + 1}: {header} missing key {key!r}"
    else:  # an optional key may be left out
        parse_scenario("\n".join(without) + "\n")


def test_redundant_changes_over_one_overlap_may_repeat_their_header():
    from orbcheck.catalog import catalog_text

    text = catalog_text("football:3")
    assert text.count("[change A -> B]") == 2
    pairs = [(c.source, c.target) for c in parse_scenario(text).changes]
    assert pairs.count(("A", "B")) == 2


@pytest.mark.parametrize(
    "old, new, detail",
    [
        ("maps = 0, 6, 5, 4, 3, 2, 1", "maps = 0, 0, 5, 4, 3, 2, 1", "generator is not a permutation"),
        ("group = cyclic:2", "group = cyclic:3", "generator's order does not divide 3"),
        ("group = cyclic:2", "group = cyclic:1", "generator's order does not divide 1"),
    ],
    ids=["not-a-permutation", "order-3", "order-1"],
)
def test_action_failures_name_the_generator(tmp_path, capsys, old, new, detail):
    path = tmp_path / "bad-action.scn"
    path.write_text(_edit("pillowcase", old, new))
    code, out, err = run_cli(capsys, "run", str(path), "--format", "machine")
    assert code == 1 and err == ""
    assert out.splitlines() == ["[report pillowcase]", f"quotient.action = FAIL {detail}", "overall = FAIL"]


def test_non_unitary_change_fails_its_gluings(tmp_path, capsys):
    path = tmp_path / "stretched.scn"
    path.write_text(_edit("football:3", "[change A -> C]\nlinear = [[1]]", "[change A -> C]\nlinear = [[2]]"))
    code, out, err = run_cli(capsys, "run", str(path), "--format", "machine")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert "atlas.unitary.A.C = FAIL" in lines
    assert "seifert.well_defined.A.C = FAIL change A->C is not unitary" in lines
    assert "seifert.cocycle.A.C.B = FAIL change A->C is not unitary" in lines
    assert "atlas.containment.A.C = FAIL linear part is not unitary, so the image is not a ball" in lines
    assert "seifert.well_defined.A.B = PASS 6 choices in 1 classes; no two of different classes meet" in lines


def test_cocycle_checks_the_sampled_classes_in_the_triple_overlap(tmp_path, capsys):
    # a smaller A -> C ball still meets each direct choice by the same g
    path = tmp_path / "narrow.scn"
    path.write_text(_edit("football:3", "center = [1]\nradius = 1/4", "center = [1]\nradius = 1/32"))
    code, out, err = run_cli(capsys, "run", str(path), "--format", "machine")
    assert code == 0 and err == ""
    assert ("seifert.cocycle.A.C.B = PASS 6 direct and 3 composite choices agree where they meet; "
            "a common point is certified") in out.splitlines()


def test_cocycle_fails_when_no_sampled_class_lies_in_the_triple_overlap(tmp_path, capsys):
    # an A -> C ball about -1 misses every Gamma_A-image of the A -> B ball about 1
    path = tmp_path / "apart.scn"
    path.write_text(_edit("football:3", "[change A -> C]\nlinear = [[1]]\noffset = [0]\ncenter = [1]",
                          "[change A -> C]\nlinear = [[1]]\noffset = [0]\ncenter = [-1]"))
    code, out, err = run_cli(capsys, "run", str(path), "--format", "machine")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert ("seifert.cocycle.A.C.B = FAIL empty triple overlap: 6 direct and 0 composite choices, "
            "no two with pairwise meeting balls") in lines
    assert "seifert.well_defined.A.C = PASS 3 choices in 3 classes; no two of different classes meet" in lines


# Each atlas below is wrong only outside the inner half of a ball
# (|x - c| <= r/2), where a grid of sampled points would not look.


def _seifert_lines(tmp_path, capsys, text):
    path = tmp_path / "off-grid.scn"
    path.write_text(text)
    code, out, err = run_cli(capsys, "run", str(path), "--format", "machine")
    assert code == 1 and err == ""
    return [line for line in out.splitlines() if line.startswith(("atlas.containment", "seifert."))]


def test_containment_fails_where_the_image_ball_leaves_the_chart(tmp_path, capsys):
    # the A -> C image B(1, 1/4) reaches 5/4 > 6/5
    text = _edit("football:3", "[chart C]\nn = 1\nradius = 2", "[chart C]\nn = 1\nradius = 6/5")
    lines = _seifert_lines(tmp_path, capsys, text)
    assert "atlas.containment.A.C = FAIL |Uc+b|^2 > (R-r)^2 = 361/400" in lines
    assert "atlas.containment.C.B = PASS |Uc+b|^2 <= (R-r)^2 = 49/16" in lines


def test_well_defined_fails_where_two_change_balls_meet(tmp_path, capsys):
    # a third A -> B change on B(11/8, 1/4) shifts by 1/16; it meets B(1, 1/4) near 9/8 + 1/16
    third = "[change A -> B]\nlinear = [[1]]\noffset = [1/16]\ncenter = [11/8]\nradius = 1/4\n\n[complex S]"
    lines = _seifert_lines(tmp_path, capsys, _edit("football:3", "[complex S]", third))
    assert "seifert.well_defined.A.B = FAIL choices g0 A->B #1 and g0 A->B #3 differ where their balls meet" in lines
    assert "seifert.well_defined.C.B = PASS 1 choices in 1 classes; no two of different classes meet" in lines


def test_cocycle_fails_where_only_a_far_composite_applies(tmp_path, capsys):
    # C -> B is the identity on B(1, 1/16) and a shift by 1/16 on B(5/4, 1/8);
    # the balls are disjoint, so each gluing is well defined, but the shift
    # disagrees with the direct A -> B gluing beyond 9/8
    split = ("[change C -> B]\nlinear = [[1]]\noffset = [0]\ncenter = [1]\nradius = 1/16\n\n"
             "[change C -> B]\nlinear = [[1]]\noffset = [1/16]\ncenter = [5/4]\nradius = 1/8")
    text = _edit("football:3", "[change C -> B]\nlinear = [[1]]\noffset = [0]\ncenter = [1]\nradius = 1/4", split)
    lines = _seifert_lines(tmp_path, capsys, text)
    assert "seifert.well_defined.C.B = PASS 2 choices in 2 classes; no two of different classes meet" in lines
    assert "seifert.cocycle.A.C.B = FAIL g0 A->B #1 differs from g0 A->C #1 then g0 C->B #2 where their balls meet" in lines


@pytest.mark.parametrize(
    "weights, fixed",
    [("0, 2", "z2 = 0"), ("0, 0", "the whole sphere")],
    ids=["one-zero-weight", "all-weights-zero"],
)
def test_zero_weight_fails_det_m1_naming_the_fixed_set(tmp_path, capsys, weights, fixed):
    # det M0 = sum w_k^2 |z_k|^2 vanishes where the circle fixes the sphere,
    # a set decided exactly from the weights
    path = tmp_path / "zero.scn"
    path.write_text(_edit("weighted-hopf:1:2", "weights = 1, 2", f"weights = {weights}"))
    code, out, err = run_cli(capsys, "run", str(path), "--format", "machine")
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == [
        f"taut.detM1 = FAIL zero weight: the circle fixes {fixed}, where det M0 = 0",
        "overall = FAIL",
    ]


S1_X_S3 = """
[scenario]
name = s1-x-s3
pipelines = quotient

[complex C]
vertices = 3
facets = (0,1) (1,2) (0,2)

[complex S]
vertices = 5
facets = (0,1,2,3) (0,1,2,4) (0,1,3,4) (0,2,3,4) (1,2,3,4)

[complex P]
product = C * S

[action I]
group = trivial

[quotient]
complex = P
action = I
complex_dim_n = 2
"""


@pytest.mark.parametrize("kahler", ["", "kahler = product-sum\n"], ids=["default", "product-sum"])
def test_product_without_degree_two_class_fails_kahler_class(tmp_path, capsys, kahler):
    path = tmp_path / "s1s3.scn"
    path.write_text(S1_X_S3 + kahler)
    code, out, err = run_cli(capsys, "run", str(path), "--format", "machine")
    assert code == 1 and err == ""
    assert out.splitlines()[-2:] == ["kahler.class = FAIL NoKahlerClass", "overall = FAIL"]


@pytest.mark.parametrize(
    "text, error, message",
    [
        (_edit("weighted-hopf:1:2", "type = circle", "type = torus"), ParseError, "line 7: taut pipeline currently handles circle actions"),
        (_edit("torus7", "vertex_order = 1, 2, 3, 0, 4, 5, 6", "vertex_order = 1, 1, 2, 3, 4, 5, 6"), ParseError, "line 9: vertex_order must permute 0..6"),
        (_edit("t4-z2", "product = T * T", "product = T * Q"), MissingSection, "product factors must be declared complexes"),
        (_edit("torus7", "group = trivial", "group = product\nfactors = I, I"), MissingSection, "product action requires a product complex"),
        (_edit("pillowcase", "maps = 0, 6, 5, 4, 3, 2, 1", "maps = 0, 6, 5"), MissingSection, r"\[action F\] maps must list one of 0..6 per vertex"),
        (_edit("t4-z2", "maps = 0, 6, 5, 4, 3, 2, 1", "maps = 0, 6, 5, 4, 3, 2, 7"), MissingSection, r"\[action F\] maps must list one of 0..6 per vertex"),
    ],
    ids=["torus-type", "vertex-order", "product-factor", "product-action", "maps-short", "product-factor-maps"],
)
def test_contract_rejects_at_parse_time(text, error, message):
    with pytest.raises(error, match=message):
        parse_scenario(text)


POINTS = """[scenario]
name = points
pipelines = quotient

[complex P]
vertices = {vertices}
facets = {facets}

[action I]
group = trivial

[quotient]
complex = P
action = I
complex_dim_n = 0
"""


@pytest.mark.parametrize(
    "vertices, facets, betti, cycle, tail",
    [
        (2, "(0) (1)", "2", "PASS", ["kahler.class = FAIL NoKahlerClass"]),
        (1, "(0)", "1", "FAIL NotPseudomanifold", []),
        (3, "(0) (1) (2)", "3", "FAIL NotPseudomanifold", []),
    ],
    ids=["two-points", "one-point", "three-points"],
)
def test_zero_dimensional_quotient_orients_through_the_empty_ridge(tmp_path, capsys, vertices, facets, betti, cycle, tail):
    # the empty simplex is the one ridge: two points bound it, one or three do not
    path = tmp_path / "points.scn"
    path.write_text(POINTS.format(vertices=vertices, facets=facets))
    code, out, err = run_cli(capsys, "run", str(path), "--format", "machine")
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "[report points]",
        "quotient.action = PASS homomorphism and simpliciality hold",
        f"betti.full = {betti}",
        f"betti.inv = {betti}",
        f"pd.fundamental_cycle = {cycle}",
        *tail,
        "overall = FAIL",
    ]


@pytest.mark.parametrize(
    "target, code, line",
    [
        ("reflected-swap", 0, "overall = PASS"),
        ("plain-swap", 0, "overall = PASS"),
        ("trivial", 0, "hlt.k1 = ISO rank=2 dims=2x2"),
        ("cyclic4-swap", 1, "pd.fundamental_cycle = FAIL NonOrientable"),
        ("octahedron-reflection", 1, "pd.fundamental_cycle = FAIL NonOrientable"),
        ("catalog:rp2-antipodal", 1, "pd.fundamental_cycle = FAIL NonOrientable"),
    ],
)
def test_disconnected_and_reflected_quotients_orient_by_component_orbit(tmp_path, capsys, target, code, line):
    # a swap of two spheres orients whether or not it reflects; CP^1 + CP^1
    # takes a Kahler class on each sphere; a reflection of each sphere does not orient
    if not target.startswith("catalog:"):
        text = two_spheres_text(target) if target in TWO_SPHERE_ACTIONS else OCTAHEDRON_REFLECTION
        path = tmp_path / f"{target}.scn"
        path.write_text(text)
        target = str(path)
    got, out, err = run_cli(capsys, "run", target, "--format", "machine")
    assert (got, err) == (code, "") and line in out.splitlines()
    assert ("overall = PASS" in out) == (code == 0)
