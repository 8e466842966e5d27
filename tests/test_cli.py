import pytest

from orbcheck.cli import main


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


def test_unknown_catalog_entry_exit_two(capsys):
    code, _, err = run_cli(capsys, "run", "catalog:moebius")
    assert code == 2


def test_human_format_marks_failures(capsys):
    code, out, _ = run_cli(capsys, "run", "catalog:rp2-antipodal")
    assert code == 1
    assert "[!!]" in out


def _edit(name, old, new):
    from orbcheck.catalog import catalog_text

    text = catalog_text(name)
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize(
    "text, argv, expect",
    [
        (None, ("catalog:weighted-hopf:1:2", "--samples", "0"), "--samples"),
        (None, ("catalog:football:3", "--samples", "-3"), "--samples"),
        (_edit("weighted-hopf:1:2", "samples = 1000", "samples = 0"), (), "line 14: samples"),
        (_edit("weighted-hopf:1:2", "orbits = 50", "orbits = 0"), (), "line 15: orbits"),
        (_edit("weighted-hopf:1:2", "tol = 1e-9", "tol = 1e-9\nnodes = -1"), (), "line 17: nodes"),
        (None, ("catalog:weighted-hopf:1:2", "--tol", "-1"), "--tol"),
        (_edit("weighted-hopf:1:2", "tol = 1e-9", "tol = nan"), (), "line 16: tol"),
        (_edit("football:2", "[change C -> B]", "[change C -> Q]"), (), "'Q'"),
        (_edit("football:2", "cyclotomic_order = 2", "cyclotomic_order = 0"), (), "line 9: cyclotomic_order"),
        (_edit("football:2", "maps = 0, 3, 4, 1, 2, 5", "maps = 0, 3, 4"), (), "maps"),
        (_edit("football:2", "maps = 0, 3, 4, 1, 2, 5", "maps = 0, 3, 4, 1, 2, 6"), (), "maps"),
        (_edit("football:2", "group = cyclic:2", "group = cyclic:0"), (), "line 53: group"),
        (_edit("football:2", "group = cyclic:2", "group = cyclic:x"), (), "line 53: group"),
        (_edit("football:2", "[chart B]\nn = 1", "[chart B]\nn = 2"), (), "line 16: generator 1 must be 2x2"),
        (_edit("football:2", "[chart C]\nn = 1", "[chart C]\nn = 2"), (), "[chart C] has n = 2 but [chart A] has n = 1"),
        (_edit("football:2", "n = 1", "n = 0"), (), "line 7: n must be at least 1"),
        (_edit("football:2", "[[z]]", "[[z], [1, 0]]"), (), "line 10: generator 1 must be 1x1"),
        (_edit("football:2", "[[1]]", "[[1, 0], [0, 1]]"), (), "[change A -> C] linear must be 1x1"),
        (_edit("football:2", "offset = [0]", "offset = [0, 0]"), (), "[change A -> C] offset must have length 1"),
        (_edit("football:2", "center = [1]", "center = [1, 0]"), (), "[change A -> C] center must have length 1"),
        (_edit("football:2", "[change A -> C]", "[chart C]\nn = 1\nradius = 2\ncyclotomic_order = 2\ngenerators =\n\n[change A -> C]"), (), "[chart C] is declared twice"),
        (_edit("quaternion-chart", "[[z, 0], [0, z^3]] ; [[0, 1], [z^2, 0]]", "[[z]]"), (), "line 10: generator 1 must be 2x2"),
    ],
    ids=[
        "samples-zero",
        "samples-negative",
        "taut-samples-zero",
        "taut-orbits-zero",
        "taut-nodes-negative",
        "tol-negative",
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
