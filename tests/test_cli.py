import contextlib
import io
import itertools
import json
import pathlib
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from singhunt import fields, godeaux, hunt, poly
from singhunt.cli import main
from singhunt.cover import MAX_GROUP_ORDER, AbelianGroup, char_generator_exponents, cyclic_subgroups
from singhunt.fields import field_create, format_element
from singhunt.lattice import format_lattice

HESSE = "# plane cubics\nx0^3+x1^3+x2^3+p1*x0*x1*x2\n"

CONIC_POINTS = """\
0 1 0
0 0 1
1 1 6
1 2 3
1 3 2
1 4 5
1 5 4
1 6 1
"""

GRAM9 = """\
names: N1 N2 N3 N4 N5 N6 N7 N8 K
[-2  0  0  0  0  0  0  0  0]
[ 0 -2  0  0  0  0  0  0  0]
[ 0  0 -2  1  0  0  0  0  0]
[ 0  0  1 -2  1  0  0  0  0]
[ 0  0  0  1 -2  0  0  0  0]
[ 0  0  0  0  0 -2  1  0  0]
[ 0  0  0  0  0  1 -2  1  0]
[ 0  0  0  0  0  0  1 -2  0]
[ 0  0  0  0  0  0  0  0  1]
"""

TEMPLATE_C = "lhs: 8*K\ncurve: 4*C'\nsupport: N1 N3 N4 N5 N6 N7 N8\n"

CONSTRAINTS_C = """\
pair N1 {1}
pair N2 {0}
pair N3 {0}
pair N4 {0,1}
pair N5 {0,1}
pair N6 {0,1}
pair N7 {0,1}
pair N8 {0}
contact N3+N4+N5 = 1
contact N6+N7+N8 = 1
"""

COVER_FILE = """\
group: 2 4
branch: N4+N7 | N1 | N2 | N3 | N5 | N6 | N8
L (1,0): 2*K - D' - N7
L (1,1): 2*K - C'
"""


def strip_timings(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if line.startswith("timings:"):
            break
        lines.append(line)
    return "\n".join(lines)


def test_hunt_command(tmp_path, capsys):
    fam = tmp_path / "hesse.txt"
    fam.write_text(HESSE)
    code = main(["hunt", "--family", str(fam), "--field", "7",
                 "--trials", "7", "--seed", "1", "--classify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "members: 3" in out
    assert "3A1" in out
    assert "|" in out  # params | signature | points


def test_hunt_determinism_bytes(tmp_path, capsys, monkeypatch):
    fam = tmp_path / "hesse.txt"
    fam.write_text(HESSE)
    argv = ["hunt", "--family", str(fam), "--field", "7",
            "--trials", "7", "--seed", "9", "--classify"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    monkeypatch.setattr(hunt, "SCAN_CELLS", 2)  # batches of 2 members, blocks of 1 point
    main(argv)
    third = capsys.readouterr().out
    assert strip_timings(first) == strip_timings(second) == strip_timings(third)


def test_hunt_solve_at_point_command(tmp_path, capsys):
    fam = tmp_path / "conic.txt"
    fam.write_text("x0^2+x1^2+x2^2+p1*x0*x1+p2*x0*x2+p3*x1*x2\n")
    code = main(["hunt", "--family", str(fam), "--field", "101",
                 "--strategy", "solve-at-point", "--trials", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "members: 0" not in out and "member 1: (" in out


@pytest.mark.parametrize("point, field", [("0,0,1", []), ("0, 0, 5", ["--field", "7"]), ("0,0,1/2", [])])
def test_classify_at_a_projective_point(capsys, point, field):
    assert main(["classify", "--poly", "x0^2*x2+x1^3", "--point", point] + field) == 0
    assert "  label: A2\n  corank: 1\n  tjurina: 2\n" in capsys.readouterr().out


@pytest.mark.parametrize("cap", ["0", "1"])
def test_classify_cap_below_two_is_a_data_error(capsys, cap):
    assert main(["classify", "--poly", "x0^2+x1^3", "--cap", cap]) == 3
    assert capsys.readouterr().err == f"error: cap must be >= 2, got {cap}\n"


# the Hesse pencil has singular members over GF(7); 1 + p1^2 never vanishes mod 7
@pytest.mark.parametrize("family, singular", [("x0^3+x1^3+x2^3+p1*x0*x1*x2", True),
                                              ("x0^2+p1^2*x0^2+x1^2+x2^2", False)])
def test_hunt_classify_cap_below_two_is_a_data_error(tmp_path, capsys, family, singular):
    fam = tmp_path / "family.txt"
    fam.write_text(family + "\n")
    argv = ["hunt", "--family", str(fam), "--field", "7", "--trials", "7", "--classify"]
    assert main(argv) == 0
    assert ("members: 0" not in capsys.readouterr().out) == singular
    assert main(argv + ["--cap", "1"]) == 3
    assert capsys.readouterr().err == "error: cap must be >= 2, got 1\n"


def test_hunt_classify_reports_non_homogeneous_members_unclassified(tmp_path, capsys):
    fam = tmp_path / "affine.txt"
    fam.write_text("x1 + x1 + x0^2 + x0^2 + p2*x1*x2\n")
    argv = ["hunt", "--family", str(fam), "--field", "7", "--trials", "3"]
    assert main(argv) == 0
    plain = strip_timings(capsys.readouterr().out)
    assert main(argv + ["--classify"]) == 0
    # the members the plain hunt finds, every point unclassified
    assert strip_timings(capsys.readouterr().out) == plain
    assert "  member 1: (6,5) | 1? | (0:0:1)" in plain.splitlines()
    family = poly.parse_poly_file(fam.read_text(), 3, 2)[0]
    members = hunt.hunt_members(family, field_create(7), trials=3, classify_points=True)
    assert [pt.diagnostic for m in members for pt in m.points] == [
        "projective classification needs a homogeneous polynomial"]


@pytest.mark.parametrize("strategy", ["random-params", "solve-at-point"])
def test_hunt_rejects_a_family_without_variables(tmp_path, capsys, strategy):
    fam = tmp_path / "constant.txt"
    fam.write_text("p1+1\n")
    assert main(["hunt", "--family", str(fam), "--field", "7", "--strategy", strategy]) == 3
    err = capsys.readouterr().err
    assert f"{fam}: family has no variable x0, x1, ..." in err and "Traceback" not in err


def test_interpolate_command(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text(CONIC_POINTS)
    code = main(["interpolate", "--points", str(pts), "--field", "7",
                 "--degree", "2", "--homogeneous"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dimension: 1" in out
    assert "x0^2 + x1*x2" in out


@pytest.mark.parametrize("flags", [[], ["--slack", "2", "--draws", "3"]])
def test_interpolate_over_gfp_builds_no_field_element_per_point(tmp_path, capsys, flags):
    """73 and 730 points of one plane over GF(101) give the same report, and
    reading and interpolating them constructs as many FieldElements."""
    built = []
    init = fields.FieldElement.__init__

    def counted(self, ctx, coeffs):
        built.append(1)
        init(self, ctx, coeffs)

    plane = [(a, b, (7 - 2 * a - 3 * b) % 101) for a in range(101) for b in range(101)]
    counts, outs = [], []
    for n in (73, 730):
        pts = tmp_path / f"plane{n}.txt"
        pts.write_text("".join(f"{a} {b} {c}\n" for a, b, c in random.Random(n).sample(plane, n)))
        built.clear()
        with mock.patch.object(fields.FieldElement, "__init__", counted):
            code = main(["interpolate", "--points", str(pts), "--field", "101", "--degree", "1"] + flags)
        assert code == 0
        counts.append(len(built))
        outs.append(strip_timings(capsys.readouterr().out).replace(str(pts), "<points>"))
    assert outs[0].replace("count: 73", "count: 730") == outs[1]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("points,flags,reason", [
    (CONIC_POINTS, ["--slack", "-1"], "slack must be >= 1"),
    (CONIC_POINTS, ["--slack", "2", "--draws", "0"], "draws must be >= 1"),
    (CONIC_POINTS, ["--slack", "2", "--draws", "-2"], "draws must be >= 1"),
    ("", ["--slack", "1"], "empty point set"),
    ("", [], "empty point set"),
])
def test_interpolate_bad_arguments_are_data_errors(tmp_path, capsys, points, flags, reason):
    pts = tmp_path / "pts.txt"
    pts.write_text(points)
    assert main(["interpolate", "--points", str(pts), "--field", "7", "--degree", "1"] + flags) == 3
    assert capsys.readouterr() == ("", f"error: {reason}\n")


def test_lift_command_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("101: 69\n103: 41\n107: 58\n109: 28\n")  # -22/7 mod each
    code = main(["lift", "--residues", str(good)])
    out = capsys.readouterr().out
    assert code == 0 and "value: -22/7" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("101: 69\n103: 42\n107: 58\n109: 28\n113: 13\n")
    code = main(["lift", "--residues", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_lift_two_primes_is_unverified(tmp_path, capsys):
    two = tmp_path / "two.txt"
    two.write_text("101: 69\n103: 41\n")  # -22/7, but no prime left to check it
    code = main(["lift", "--residues", str(two)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verification: unverified: no prime held out" in out
    assert "held-out" not in out and "verdicts:" not in out

    three = tmp_path / "three.txt"
    three.write_text("101: 69\n103: 41\n107: 58\n")
    code = main(["lift", "--residues", str(three)])
    out = capsys.readouterr().out
    assert code == 0
    assert "  pass | held-out | verified against 3 primes\n" in out
    assert "unverified" not in out


def test_lift_pairs_command(tmp_path, capsys):
    res = tmp_path / "pairs.txt"
    res.write_text("101: 1, 2\n103: 2, 1\n107: 1, 2\n")
    code = main(["lift", "--residues", str(res), "--pairs"])
    out = capsys.readouterr().out
    assert code == 0
    assert "x0^2 - 3*x0 + 2" in out


def test_lattice_rank_command(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text(GRAM9)
    code = main(["lattice", "--gram", str(gram), "rank"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rank: 9" in out and "radical_dimension: 0" in out


def test_lattice_solve_command(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text(GRAM9)
    tfile = tmp_path / "template.txt"
    tfile.write_text(TEMPLATE_C)
    cfile = tmp_path / "constraints.txt"
    cfile.write_text(CONSTRAINTS_C)
    code = main(["lattice", "--gram", str(gram), "solve",
                 "--template", str(tfile), "--constraints", str(cfile)])
    out = capsys.readouterr().out
    assert code == 0
    assert "solutions: 1" in out
    assert "'N1': 2" in out and "'N5': 3" in out


def test_lattice_search_command(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text(GRAM9)
    bounds = ",".join([f"N{i}=0..1" for i in range(1, 9)] + ["K=0..4", "self=-2..4"])
    code = main(["lattice", "--gram", str(gram), "search",
                 "--bounds", bounds, "--limit", "500"])
    out = capsys.readouterr().out
    assert code == 0
    assert "degenerate_extensions: 118" in out
    assert "[-2, 0, -1, -2, -3, -3, -2, -1, 8, -4]" in out


@pytest.mark.parametrize("argv, message", [
    (["--bounds", "N1=0..1,Q=0..1"], "bad --bounds chunk 'Q=0..1': no class named 'Q'"),
    (["--bounds", "N1=2..0"], "bad --bounds chunk 'N1=2..0': empty range"),
    (["--bounds", "self=3..-3"], "bad --bounds chunk 'self=3..-3': empty range"),
    (["--bounds", "K=0..1,N1=0..1,K=0..2"], "bad --bounds chunk 'K=0..2': K is bounded twice"),
    (["--bounds", "self=0..1,self=0..2"], "bad --bounds chunk 'self=0..2': self is bounded twice"),
    (["--bounds", "N1"], "bad --bounds chunk 'N1': expected NAME=lo..hi"),
    (["--bounds", "N1=a..b"], "bad --bounds chunk 'N1=a..b': expected NAME=lo..hi"),
    (["--limit", "-1"], "--limit must be >= 0, got -1"),
    (["--trials", "-5"], "--trials must be >= 0, got -5"),
])
def test_lattice_search_rejects_bad_arguments(tmp_path, capsys, argv, message):
    gram = tmp_path / "gram.txt"
    gram.write_text(GRAM9)
    assert main(["lattice", "--gram", str(gram), "search"] + argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_lattice_search_limit_zero_suppresses_every_hit(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text(GRAM9)
    bounds = ",".join([f"N{i}=0..1" for i in range(1, 9)] + ["K=0..4", "self=-2..4"])
    assert main(["lattice", "--gram", str(gram), "search", "--bounds", bounds,
                 "--limit", "0", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert "degenerate_extensions: 118" in out and "hit:" not in out
    assert "note: 118 more hits suppressed" in out


def test_cover_commands(tmp_path, capsys):
    gram = tmp_path / "gram11.txt"
    gram.write_text(format_lattice(godeaux.extended_lattice()) + "\n")
    cov = tmp_path / "cover.txt"
    cov.write_text(COVER_FILE)
    code = main(["cover", "--lattice", str(gram), "--cover", str(cov), "verify"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("pass | reduced-data") == 7

    code = main(["cover", "--lattice", str(gram), "--cover", str(cov), "invariants"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chi_cover: 1" in out and "K2_cover: 8" in out


def test_cover_invariants_reads_the_base_invariants(tmp_path, capsys):
    """chi_cover is 8*chi plus seven terms of -1 and K2_cover is 8*K^2; q,
    which would enter only p_g, is not an option."""
    gram = tmp_path / "gram11.txt"
    gram.write_text(format_lattice(godeaux.extended_lattice()) + "\n")
    cov = tmp_path / "cover.txt"
    cov.write_text(COVER_FILE)
    argv = ["cover", "--lattice", str(gram), "--cover", str(cov), "invariants"]
    assert main(argv + ["--chi", "2", "--k2", "3"]) == 0
    assert "  chi_cover: 9\n  K2_cover: 24\n" in capsys.readouterr().out
    assert main(argv + ["--q", "1"]) == 2


def test_hunt_budget_bounds_the_points_of_projective_space(tmp_path, capsys):
    fam = tmp_path / "conic.txt"
    fam.write_text("x0^2+x1^2+x2^2+p1*x0*x1\n")
    argv = ["hunt", "--family", str(fam), "--field", "2", "--trials", "2"]
    assert main(argv + ["--budget", "6"]) == 3  # P^2 over GF(2) has 7 points
    assert capsys.readouterr() == ("", "error: projective space has 7 points, budget is 6\n")
    assert main(argv + ["--budget", "7"]) == 0
    assert "  member 1: (0) | 3? | (1:0:1) (1:1:0) (0:1:1)\n" in capsys.readouterr().out


def test_hunt_honours_explicit_nvars_and_nparams(tmp_path, capsys):
    fam = tmp_path / "binary.txt"
    fam.write_text("x0^2+x1^2+p1*x0*x1\n")
    argv = ["hunt", "--family", str(fam), "--field", "7", "--trials", "5"]
    assert main(argv + ["--nvars", "3"]) == 0  # a cone in P^2, singular at its vertex
    out = capsys.readouterr().out
    members = [line for line in out.splitlines() if line.startswith("  member ")]
    assert "  nvars/nparams: 3/1\n" in out and "  members: 5\n" in out
    assert len(members) == 5 and all(line.endswith(" (0:0:1)") for line in members)
    assert main(argv + ["--nparams", "2"]) == 0  # p2 appears in no term
    assert "  nvars/nparams: 2/2\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["hunt", "--family", "{binary}", "--field", "7", "--nparams", "-1"], "--nparams must be >= 0, got -1"),
    (["hunt", "--family", "{binary}", "--field", "7", "--nvars", "0"], "--nvars must be >= 1, got 0"),
    (["hunt", "--family", "{binary}", "--field", "7", "--nvars", "-1"], "--nvars must be >= 1, got -1"),
    (["classify", "--poly", "x0^2+x1^2", "--point", "1/0,1"], "bad rational coordinate '1/0'"),
    (["hunt", "--family", "{huge}", "--field", "7"],
     "{huge}: exponent 9223372036854775808 does not fit in 64 bits"),
])
def test_bad_counts_points_and_exponents_are_data_errors(tmp_path, capsys, argv, message):
    files = {"binary": tmp_path / "binary.txt", "huge": tmp_path / "huge.txt"}
    files["binary"].write_text("x0^2+x1^2+p1*x0*x1\n")
    files["huge"].write_text(f"x0^{2**63}+x1^2\n")
    assert main([arg.format(**files) for arg in argv]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message.format(**files)}\n") and "Traceback" not in err


def test_hunt_reduces_huge_exponents_on_the_field(tmp_path, capsys):
    # x0^e stands for x0^((e-1) % 6 + 1) on GF(7), so no power table of e
    # entries is built; the x0 partial e * x0^(e-1) is zero, as 7 divides e
    e = 2**63 - 1
    fam = tmp_path / "huge.txt"
    fam.write_text(f"x0^{e}+x1^2+p1*x1*x2+p2*x2^2\n")
    argv = ["hunt", "--family", str(fam), "--field", "7"]
    assert main(argv + ["--trials", "1"]) == 0
    capsys.readouterr()
    assert main(argv + ["--trials", "49"]) == 0  # every parameter point
    found = {}
    for line in capsys.readouterr().out.splitlines():
        if m := re.fullmatch(r"  member \d+: \((\d+),(\d+)\) \| \S+ \| (.*)", line):
            found[(int(m[1]), int(m[2]))] = set(m[3].split())

    def checks(x, p1, p2):  # f and its partials, in Python ints
        x0, x1, x2 = x
        return (pow(x0, e, 7) + x1**2 + p1 * x1 * x2 + p2 * x2**2,
                e * pow(x0, e - 1, 7), 2 * x1 + p1 * x2, p1 * x1 + 2 * p2 * x2)

    points = [x for x in itertools.product(range(7), repeat=3) if any(x) and next(c for c in x if c) == 1]
    want = {}
    for p1, p2 in itertools.product(range(7), repeat=2):
        singular = {"(" + ":".join(map(str, x)) + ")" for x in points
                    if not any(v % 7 for v in checks(x, p1, p2))}
        if singular:
            want[(p1, p2)] = singular
    assert len(points) == 57 and len(want) == 7 and found == want


def test_every_option_is_documented_in_the_readme():
    """Each option string of every subcommand appears in README.md."""
    import argparse

    from singhunt.cli import build_parser

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = sorted({opt for name, sub in subparsers.choices.items() for action in sub._actions
                      if not isinstance(action, argparse._HelpAction) for opt in action.option_strings
                      if not re.search(re.escape(opt) + r"(?![\w-])", readme)})
    assert missing == []


def test_fixture_command(capsys):
    code = main(["fixture", "godeaux-2a1-2a3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "17/17 verdicts pass" in out


def test_fixture_json(capsys):
    code = main(["fixture", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "fixture godeaux-2a1-2a3"
    assert all(v["status"] == "pass" for v in payload["verdicts"])
    names = [v["name"] for v in payload["verdicts"]]
    assert "relation-C" in names and "cover-b2" in names


def test_fixture_deterministic_json(capsys):
    main(["fixture", "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["fixture", "--json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_json_results_keep_repeated_keys(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text(GRAM9)
    tfile = tmp_path / "template.txt"
    tfile.write_text(TEMPLATE_C)
    cfile = tmp_path / "constraints.txt"
    cfile.write_text("\n".join(f"pair N{i} {{0,1}}" for i in range(1, 9)) + "\n")
    code = main(["lattice", "--gram", str(gram), "solve", "--json",
                 "--template", str(tfile), "--constraints", str(cfile)])
    out = capsys.readouterr().out
    assert code == 1  # 16 solutions: not unique
    payload = json.loads(out)
    solutions = [kv for kv in payload["results"] if kv[0] == "solution"]
    assert len(solutions) == 16


def test_lattice_solve_without_template_is_data_error(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text(GRAM9)
    assert main(["lattice", "--gram", str(gram), "solve"]) == 3
    assert "--template and --constraints" in capsys.readouterr().err


def test_gram_division_by_zero_is_data_error(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text("names: A B\n[-2 1/0]\n[1 -2]\n")
    assert main(["lattice", "--gram", str(gram), "rank"]) == 3
    err = capsys.readouterr().err
    assert str(gram) in err and "line 2" in err


@pytest.mark.parametrize("text,message", [
    ("names: K A\n1 1\n0 1\n", "Gram matrix must be symmetric"),
    ("names: K K\n1 0\n0 1\n", "duplicate class names"),
])
def test_bad_gram_files_name_the_file(tmp_path, capsys, text, message):
    gram = tmp_path / "gram.txt"
    gram.write_text(text)
    cov = tmp_path / "cover.txt"
    cov.write_text("group: 2\nbranch: K\nL (1): K\n")
    for argv in (["lattice", "--gram", str(gram), "rank"],
                 ["cover", "--lattice", str(gram), "--cover", str(cov), "verify"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {gram}: {message}\n"


def test_usage_error_exit_code(capsys):
    assert main(["hunt"]) == 2  # missing required arguments
    capsys.readouterr()


def test_data_error_exit_code(capsys):
    assert main(["hunt", "--family", "/nonexistent/f.txt", "--field", "7"]) == 3
    capsys.readouterr()


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code = main(["fixture", "--output", str(out_path)])
    assert code == 0
    assert "17/17" in out_path.read_text()


def test_hunt_reports_sampling_shortfall(tmp_path, capsys):
    fam = tmp_path / "conic.txt"
    fam.write_text("x0^2+x1^2+x2^2+p1*x0*x1+p2*x0*x2+p3*x1*x2\n")
    assert main(["hunt", "--family", str(fam), "--field", "2", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert ("  shortfall: tested 8 distinct members of 20 requested: "
            "the parameter space has only 8 points\n") in out
    # trials that the space covers exactly leave no shortfall line
    assert main(["hunt", "--family", str(fam), "--field", "2", "--trials", "8", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [k for k, _ in results if k == "shortfall"] == []


def test_cover_unknown_class_is_data_error(tmp_path, capsys):
    gram = tmp_path / "gram11.txt"
    gram.write_text(format_lattice(godeaux.extended_lattice()) + "\n")
    cov = tmp_path / "cover.txt"
    cov.write_text(COVER_FILE.replace("| N5 |", "| N99 |"))
    assert main(["cover", "--lattice", str(gram), "--cover", str(cov), "verify"]) == 3
    err = capsys.readouterr().err
    assert f"{cov}: line 2: no class named 'N99'" in err and "Traceback" not in err


def test_residue_line_without_colon_is_data_error(tmp_path, capsys):
    res = tmp_path / "res.txt"
    res.write_text("101: 5\n# comment\n103 7\n107: 9\n")
    assert main(["lift", "--residues", str(res)]) == 3
    err = capsys.readouterr().err
    assert f"{res}: line 3: bad residue line '103 7'" in err


def test_lift_tuples_reads_the_tuple_length_from_the_file(tmp_path, capsys):
    res = tmp_path / "tuples.txt"
    res.write_text("101: 3, 0, 1\n103: 3, 0, 1\n107: 3, 0, 1\n")
    assert main(["lift", "--residues", str(res), "--tuples"]) == 0
    assert "tuple: (3, 0, 1)" in capsys.readouterr().out


@pytest.mark.parametrize("text, flags, where, reason", [
    ("101: 1,2\n103: 3,4\n107: 5,6\n", [], "line 1", "expected 1 residue(s), got 2"),
    ("101: 1\n103: 3\n107: 5\n", ["--pairs"], "line 1", "expected 2 residue(s), got 1"),
    ("101: 1,2\n# note\n103: 3\n", ["--tuples"], "line 3", "expected 2 residue(s), got 1"),
    ("101: 1\n103:\n", [], "line 2", "no residues"),
    ("101: 1\n8: 3\n", [], "line 2", "8 is not a prime"),
])
def test_residue_payloads_of_the_wrong_shape_are_data_errors(tmp_path, capsys, text, flags, where, reason):
    res = tmp_path / "res.txt"
    res.write_text(text)
    assert main(["lift", "--residues", str(res)] + flags) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {res}: {where}: bad residue line") and reason in err


def test_family_and_points_errors_name_the_file_and_line(tmp_path, capsys):
    fam = tmp_path / "fam.txt"
    fam.write_text("# a conic\n\nx0^2+x1^2+x2^2+p1*x0*x1 ? p2\n")
    assert main(["hunt", "--family", str(fam), "--field", "7"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fam}: ") and "(line 3, column" in err
    pts = tmp_path / "pts.txt"
    pts.write_text("0 1 0\n0 x 1\n")
    assert main(["interpolate", "--points", str(pts), "--field", "7", "--degree", "1"]) == 3
    assert capsys.readouterr().err == f"error: {pts}: line 2: bad prime-field element 'x'\n"


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    fam = tmp_path / "hesse.txt"
    fam.write_text(HESSE)
    out_path = tmp_path / "report.json"
    hunt_argv = ["hunt", "--family", str(fam), "--field", "7", "--trials", "7", "--seed", "1"]
    assert main(hunt_argv + ["--json", "--output", str(out_path), "--classify"]) == 0
    assert json.loads(out_path.read_text())["command"] == "hunt"
    assert main(["fixture"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("singhunt report: fixture") and "17/17 verdicts pass" in out
    assert main(hunt_argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("singhunt report: hunt") and "3A1" not in out and "3?" in out


@pytest.mark.parametrize("lines, reason", [
    ("L (1,0): 2*K - D' - N7\nL (1,1): 2*K - C'\nL (1,0): 2*K\n",
     "line 5: L (1, 0) repeats line 3"),
    ("L (3,0): 2*K - D' - N7\nL (1,1): 2*K - C'\n",
     "line 3: L (3, 0): exponent 3 is outside 0..1"),
    ("L (1,0): 2*K - D' - N7\nL (1,-1): 2*K - C'\n",
     "line 4: L (1, -1): exponent -1 is outside 0..3"),
    ("L (1,0,0): 2*K - D' - N7\nL (1,1): 2*K - C'\n",
     "line 3: L (1, 0, 0): needs 2 exponent(s), one per cyclic factor of the group"),
    ("L (1,0): 2*K - D' - N7\nL (1): 2*K - C'\n",
     "line 4: L (1,): needs 2 exponent(s), one per cyclic factor of the group"),
    ("L (1,0): 2*K - D' - N7\nL (1,1): 2*K - C'\nL (0,0): 0*K\n",
     "line 5: L (0, 0): the trivial character has L = 0 and is not a generator"),
])
def test_cover_bad_generator_lines_are_data_errors(tmp_path, capsys, lines, reason):
    gram = tmp_path / "gram11.txt"
    gram.write_text(format_lattice(godeaux.extended_lattice()) + "\n")
    cov = tmp_path / "cover.txt"
    cov.write_text(COVER_FILE.split("L (")[0] + lines)
    assert main(["cover", "--lattice", str(gram), "--cover", str(cov), "verify"]) == 3
    assert capsys.readouterr().err == f"error: {cov}: {reason}\n"


def test_cover_group_order_is_bounded(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text("names: A B\n0 0\n0 0\n")
    cov = tmp_path / "cover.txt"
    cov.write_text(f"branch: A\ngroup: {MAX_GROUP_ORDER} 2\n")
    assert main(["cover", "--lattice", str(gram), "--cover", str(cov), "verify"]) == 3
    reason = f"group order {2 * MAX_GROUP_ORDER} exceeds {MAX_GROUP_ORDER}"
    assert capsys.readouterr().err == f"error: {cov}: line 2: {reason}\n"


COVER_BRANCH = "branch: N4+N7 | N1 | N2 | N3 | N5 | N6 | N8\n"
COVER_GENERATORS = "L (1,0): 2*K - D' - N7\nL (1,1): 2*K - C'\n"


@pytest.mark.parametrize("text, reason", [
    ("group: 2 4\nbranch: N4+N7 | N1\n" + COVER_GENERATORS, "line 2: 7 slots need 7 divisors, got 2"),
    ("group: 2 4\n" + COVER_GENERATORS, "7 slots need 7 divisors, got 0"),
    ("group: 2 4\n" + COVER_BRANCH, "no generator characters given"),
    ("group: 2 4\n" + COVER_BRANCH + "L (0,2): K\n", "the given characters do not generate the dual group"),
    ("group: 2 4\n" + COVER_BRANCH + "L (1,0): K\nL (1,1): 2*K - C'\n",
     "factorization (0, 1) * (0, 1) disagrees with the stored class"),
    ("group:\n" + COVER_BRANCH + "L (1): K\n", "line 1: no cyclic order after group:"),
    ("group: 2 4\nbranch: N4+N7+ | N1 | N2 | N3 | N5 | N6 | N8\n" + COVER_GENERATORS,
     "line 2: bad class combination 'N4+N7+'"),
    ("group: 2 4\n" + COVER_BRANCH + "L (1,0): 2*K - D' - N7 +\nL (1,1): 2*K - C'\n",
     "line 3: bad class combination \"2*K - D' - N7 +\""),
], ids=["branch-count", "no-branch-line", "no-generators", "not-generating", "inconsistent", "empty-group",
        "dangling-plus-branch", "dangling-plus-generator"])
def test_cover_data_errors_name_the_file_and_line(tmp_path, capsys, text, reason):
    gram = tmp_path / "gram11.txt"
    gram.write_text(format_lattice(godeaux.extended_lattice()) + "\n")
    cov = tmp_path / "cover.txt"
    cov.write_text(text)
    for action in ("verify", "invariants"):
        assert main(["cover", "--lattice", str(gram), "--cover", str(cov), action]) == 3
        assert capsys.readouterr() == ("", f"error: {cov}: {reason}\n")


@pytest.mark.parametrize("template, constraints, where, reason", [
    ("lhs: 8*K\ncurve: 4*C'\nsupport: N1 Z3\n", CONSTRAINTS_C, "template", "line 3: no class named 'Z3'"),
    ("lhs: 8*Q\ncurve: 4*C'\nsupport: N1\n", CONSTRAINTS_C, "template", "line 1: no class named 'Q'"),
    ("lhs: K\ncurve: 0*X\nsupport: N1\n", "pair N1 {0}\nnonneg\n", "template",
     "line 2: the curve multiplicity must be nonzero"),
    ("lhs: K\ncurve: 2*K\nsupport: N1\n", "pair N1 {0}\n", "template",
     "line 2: the curve needs a name that is not a class: 'K'"),
    (TEMPLATE_C, CONSTRAINTS_C + "contact Z1+N2 = 1\n", "constraints", "line 11: no class named 'Z1'"),
    (TEMPLATE_C, CONSTRAINTS_C.replace("pair N1 {1}\n", ""), "constraints",
     "support class 'N1' has no pair line"),
    (TEMPLATE_C, "pair\n" + CONSTRAINTS_C, "constraints", "line 1: no class named ''"),
    (TEMPLATE_C, CONSTRAINTS_C + "contact N1\n", "constraints",
     "line 11: expected contact A+B+... = total"),
    (TEMPLATE_C.replace("8*K", "8*K+"), CONSTRAINTS_C, "template", "line 1: bad class combination '8*K+'"),
    (TEMPLATE_C.replace("8*K", "8*K -"), CONSTRAINTS_C, "template",
     "line 1: bad class combination '8*K -'"),
], ids=["unknown-support", "unknown-lhs", "zero-curve", "curve-is-a-class", "unknown-contact",
        "support-without-pair", "bare-pair", "contact-without-total", "dangling-plus", "dangling-minus"])
def test_lattice_solve_bad_files_are_data_errors(tmp_path, capsys, template, constraints, where, reason):
    gram = tmp_path / "gram.txt"
    gram.write_text(GRAM9)
    files = {"template": tmp_path / "template.txt", "constraints": tmp_path / "constraints.txt"}
    files["template"].write_text(template)
    files["constraints"].write_text(constraints)
    code = main(["lattice", "--gram", str(gram), "solve",
                 "--template", str(files["template"]), "--constraints", str(files["constraints"])])
    assert code == 3
    assert capsys.readouterr().err == f"error: {files[where]}: {reason}\n"


def test_cover_generator_lines_may_precede_the_group_line(tmp_path, capsys):
    gram = tmp_path / "gram11.txt"
    gram.write_text(format_lattice(godeaux.extended_lattice()) + "\n")
    cov = tmp_path / "cover.txt"
    head, _, tail = COVER_FILE.partition("\n")
    cov.write_text(tail + head + "\n")
    assert main(["cover", "--lattice", str(gram), "--cover", str(cov), "verify"]) == 0
    assert "7/7 verdicts pass" in capsys.readouterr().out


def test_cover_invariants_without_k_is_data_error(tmp_path, capsys):
    gram = tmp_path / "gram.txt"
    gram.write_text("names: A B\n0 0\n0 0\n")
    cov = tmp_path / "cover.txt"
    cov.write_text("group: 2\nbranch: A\nL (1): B\n")
    assert main(["cover", "--lattice", str(gram), "--cover", str(cov), "verify"]) == 0
    assert main(["cover", "--lattice", str(gram), "--cover", str(cov), "invariants"]) == 3
    assert capsys.readouterr().err == f"error: {gram}: cover invariants needs a class named K\n"


def test_solve_with_non_integral_derived_pairing_finds_nothing(tmp_path, capsys):
    gram = tmp_path / "gram9.txt"
    gram.write_text(GRAM9)
    template = tmp_path / "template.txt"
    template.write_text("lhs: K\ncurve: 2*X\nsupport: N1\n")
    constraints = tmp_path / "constraints.txt"
    constraints.write_text("pair N1 {0}\nnonneg\n")
    code = main(["lattice", "--gram", str(gram), "solve", "--template", str(template),
                 "--constraints", str(constraints)])
    assert code == 1
    assert "solutions: 0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# golden reports: the benchmark's lattice and cover commands (input texts
# copied from perfbench/workloads.py), a search on a degenerate and on a
# rational lattice, seven random-params hunts (a locus family as locus-gfp
# draws it, the conic with --classify over GF(7^2) and, as hunt-gfp runs it,
# over GF(101), a family that is zero mod p, and a cubic surface family in P^3
# with --classify over GF(7), GF(3^2) and GF(101)), two solve-at-point hunts (a binary
# family over GF(3^2) whose every trial has a one-dimensional kernel, and the plane quartic Q3 over GF(31)
# with inconsistent trials and repeated members) and four interpolations (the locus-gfp shape with three draws and with one,
# a conic over GF(7^2), and random points that lie on no quadric), compared
# byte for byte, up to timings:, with the reports recorded in tests/golden/.
# Six more interpolations pin how a point file is read over GF(p): tokens
# written as duplicates mod p, negatives, `+5` and `1_0` between comments and
# blank lines (with and without oversampled draws), a token past 2^63, and the
# exit code and message of a bad token, a ragged line, and a ragged line
# before a bad token
# ---------------------------------------------------------------------------

BENCH_NAMES9 = "N1 N2 N3 N4 N5 N6 N7 N8 K".split()
BENCH_GRAM9 = (
    (-2, 0, 0, 0, 0, 0, 0, 0, 0), (0, -2, 0, 0, 0, 0, 0, 0, 0), (0, 0, -2, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0, 0), (0, 0, 0, 1, -2, 0, 0, 0, 0), (0, 0, 0, 0, 0, -2, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, -2, 1, 0), (0, 0, 0, 0, 0, 0, 1, -2, 0), (0, 0, 0, 0, 0, 0, 0, 0, 1),
)
BENCH_C_ROW = (1, 0, 0, 0, 1, 1, 0, 0, 2)
BENCH_D_ROW = (1, 1, 0, 0, 0, 0, 1, 0, 2)
BENCH_GRAM11 = tuple(r + (c, d) for r, c, d in zip(BENCH_GRAM9, BENCH_C_ROW, BENCH_D_ROW)) + (
    BENCH_C_ROW + (2, 3), BENCH_D_ROW + (3, 2))
BENCH_TEMPLATE_C = "lhs: 8*K\ncurve: 4*C'\nsupport: N1 N3 N4 N5 N6 N7 N8\n"
BENCH_CONSTRAINTS_C = (
    "pair N1 {1}\npair N2 {0}\npair N3 {0}\npair N4 {0,1}\npair N5 {0,1}\n"
    "pair N6 {0,1}\npair N7 {0,1}\npair N8 {0}\ncontact N3+N4+N5 = 1\ncontact N6+N7+N8 = 1\n"
)
BENCH_COVER = (
    "group: 2 4\nbranch: N4+N7 | N1 | N2 | N3 | N5 | N6 | N8\n"
    "L (1,0): 2*K - D' - N7\nL (1,1): 2*K - C'\n"
)
BENCH_EXHAUSTIVE_BOX = ",".join([f"N{i}=0..1" for i in range(1, 9)] + ["K=0..4", "self=-2..4"])
BENCH_SAMPLED_BOX = ",".join([f"N{i}=0..2" for i in range(1, 9)] + ["K=0..4", "self=-2..4"])
DEGENERATE_GRAM = "names: a b K\n0 0 0\n0 -2 1\n0 1 1\n"
RATIONAL_GRAM = "names: A B K\n2/3 1/3 1\n1/3 -4/3 0\n1 0 1\n"
LOCUS_FAMILY = ("x1^2 + 2*x0^2*p1^2 - 3*x0^2*p1*p2 + x0^2*p2^2 + 4*x0^2*p1*p3 - 2*x0^2*p3^2"
                " + x0^2*p1 - 6*x0^2*p2 + 3*x0^2*p3 - 5*x0^2\n")
CONIC_FAMILY = "x0^2+x1^2+x2^2+p1*x0*x1+p2*x0*x2+p3*x1*x2\n"
ZERO_MOD_7_FAMILY = "7*x0^2 + 7*p1*x1^2\n"
BINARY_FAMILY = "p1*x0^2+p2*x1^2+p3*x0*x1\n"
CUBIC_FAMILY = "x0^3+x1^3+x2^3+x3^3+p1*x0*x1*x2+p2*x1*x2*x3+p3*x0*x2*x3\n"
Q3_FAMILY = ("x0^4+x1^4+x2^4+p1*x0^2*x1^2+p2*x0^2*x2^2+p3*x1^2*x2^2+x0^3*x1+2*x1^3*x2"
             "+3*x2^3*x0+5*x0^2*x1*x2\n")


def _bench_gram_text(names, gram) -> str:
    return "names: " + " ".join(names) + "\n" + "".join(" ".join(map(str, r)) + "\n" for r in gram)


def _locus_points_text() -> str:
    """Zeros over GF(101) with p1, p2 < 6 of the x0^2 coefficient of
    LOCUS_FAMILY: the parameters of its singular members."""
    def h(p1, p2, p3):
        return (2*p1*p1 - 3*p1*p2 + p2*p2 + 4*p1*p3 - 2*p3*p3 + p1 - 6*p2 + 3*p3 - 5) % 101
    return "".join(f"{a} {b} {c}\n" for a in range(6) for b in range(6) for c in range(101)
                   if not h(a, b, c))


def _conic_gfq_points_text() -> str:
    """The 50 points of x0^2 + x1*x2 = 0 in P^2 over GF(7^2)."""
    F = field_create(7, 2)
    conic = poly.parse_poly("x0^2 + x1*x2", 3).map_domain(F)
    return "".join(" ".join(format_element(v) for v in pt) + "\n"
                   for pt in hunt.projective_points(F, 3) if not conic.eval(list(pt)))


def _random_points_text() -> str:
    rnd = random.Random(10)
    return "".join(f"{rnd.randrange(101)} {rnd.randrange(101)}\n" for _ in range(40))


def _messy_points_text() -> str:
    """Points of the plane 2*x0 + x1 + 3*x2 = 5 over GF(7), each coordinate
    written as one of v, v + 7, v - 7, +v and an underscored v + 7*k, with
    every third point repeated mod 7, between comments and blank lines."""
    def spell(v, i):
        return [str(v), str(v + 7), str(v - 7), f"+{v}", "_".join(str(v + 7 * (i + 2)))][i % 5]
    lines = ["# a plane over GF(7), written in several ways", ""]
    for i, (a, c) in enumerate([(a, c) for a in range(7) for c in range(0, 7, 2)]):
        pt = (a, (5 - 2 * a - 3 * c) % 7, c)
        lines.append(" ".join(spell(v, i + j) for j, v in enumerate(pt)) + f"   # point {i}")
        if i % 3 == 0:
            lines += ["", " ".join(str(v + 14) for v in pt)]
    return "\n".join(lines) + "\n"


HUGE_TOKEN_POINTS = (  # on x1 = 2*x0 + 1 mod 7; the fourth point repeats the first
    "9223372036854775808 3\n-18446744073709551617 2\n0 1\n1 -4\n5 4\n18446744073709551616 5\n")
BAD_TOKEN_POINTS = "# two good points, then a bad one\n0 1 0\n\n1 1 1\n0 x 1\n1 2 3\n"
RAGGED_POINTS = "0 1 0\n1 1 1 # three\n2 3\n0 x 1\n"
RAGGED_THEN_BAD_POINTS = "0 1 0\n1 2\n0 x\n"


GOLDEN_COMMANDS = {
    "fixture": ["fixture"],
    "rank11": ["lattice", "--gram", "{gram11}", "rank"],
    "search-exhaustive": ["lattice", "--gram", "{gram9}", "search", "--bounds", BENCH_EXHAUSTIVE_BOX,
                          "--limit", "500"],
    "search-sampled": ["lattice", "--gram", "{gram9}", "search", "--bounds", BENCH_SAMPLED_BOX,
                       "--seed", "7349", "--trials", "2000", "--limit", "500"],
    "solve": ["lattice", "--gram", "{gram9}", "solve", "--template", "{template}",
              "--constraints", "{constraints}"],
    "cover-verify": ["cover", "--lattice", "{gram11}", "--cover", "{cover}", "verify"],
    "cover-invariants": ["cover", "--lattice", "{gram11}", "--cover", "{cover}", "invariants"],
    "search-degenerate": ["lattice", "--gram", "{degenerate}", "search",
                          "--bounds", "a=-1..1,b=-2..2,K=0..2,self=-3..3", "--limit", "500"],
    "search-rational": ["lattice", "--gram", "{rational}", "search",
                        "--bounds", "A=-3..3,B=-3..3,K=-2..2,self=-4..4", "--limit", "500"],
    "hunt-locus": ["hunt", "--family", "{locus}", "--field", "101", "--trials", "5000",
                   "--seed", "1931"],
    "hunt-conic-gfq": ["hunt", "--family", "{conic}", "--field", "7,2", "--trials", "300",
                       "--seed", "5", "--classify"],
    "hunt-conic-gfp": ["hunt", "--family", "{conic}", "--field", "101", "--trials", "20",
                       "--seed", "6", "--classify"],
    "hunt-cubic-gfp": ["hunt", "--family", "{cubic}", "--field", "7", "--trials", "40",
                       "--seed", "1", "--classify"],
    "hunt-cubic-gfq": ["hunt", "--family", "{cubic}", "--field", "3,2", "--trials", "100",
                       "--seed", "2", "--classify"],
    "hunt-cubic-gfp101": ["hunt", "--family", "{cubic}", "--field", "101", "--trials", "40",
                          "--seed", "5", "--classify"],
    "hunt-zero-mod-p": ["hunt", "--family", "{zero}", "--field", "7", "--trials", "3",
                        "--seed", "2"],
    "hunt-solve-binary-gfq": ["hunt", "--family", "{binary}", "--field", "3,2", "--trials", "30",
                              "--seed", "7", "--strategy", "solve-at-point"],
    "hunt-solve-q3": ["hunt", "--family", "{q3}", "--field", "31", "--trials", "100",
                      "--seed", "5", "--strategy", "solve-at-point", "--classify"],
    "interpolate-locus": ["interpolate", "--points", "{locus_points}", "--field", "101",
                          "--degree", "2", "--slack", "4", "--draws", "3", "--seed", "11"],
    "interpolate-locus-one-draw": ["interpolate", "--points", "{locus_points}", "--field", "101",
                                   "--degree", "2", "--slack", "4", "--draws", "1", "--seed", "11"],
    "interpolate-conic-gfq": ["interpolate", "--points", "{conic_points}", "--field", "7,2",
                              "--degree", "2", "--homogeneous", "--slack", "1", "--draws", "2",
                              "--seed", "5"],
    "interpolate-random": ["interpolate", "--points", "{random_points}", "--field", "101",
                           "--degree", "2", "--slack", "3", "--seed", "2"],
    "interpolate-messy": ["interpolate", "--points", "{messy_points}", "--field", "7",
                          "--degree", "1"],
    "interpolate-messy-draws": ["interpolate", "--points", "{messy_points}", "--field", "7",
                                "--degree", "1", "--slack", "2", "--draws", "3", "--seed", "3"],
    "interpolate-huge-token": ["interpolate", "--points", "{huge_points}", "--field", "7",
                               "--degree", "1"],
    "interpolate-bad-token": ["interpolate", "--points", "{bad_points}", "--field", "7",
                              "--degree", "1"],
    "interpolate-ragged": ["interpolate", "--points", "{ragged_points}", "--field", "7",
                           "--degree", "1"],
    "interpolate-ragged-then-bad": ["interpolate", "--points", "{ragged_bad_points}", "--field", "7",
                                    "--degree", "1"],
}


def golden_reports(tmp_path):
    """(name, report) of every golden command, text and --json: the exit
    code, stderr and the report cut at timings:, with tmp_path as <tmp>."""
    files = {
        "gram9": _bench_gram_text(BENCH_NAMES9, BENCH_GRAM9),
        "gram11": _bench_gram_text(BENCH_NAMES9 + ["C'", "D'"], BENCH_GRAM11),
        "template": BENCH_TEMPLATE_C,
        "constraints": BENCH_CONSTRAINTS_C,
        "cover": BENCH_COVER,
        "degenerate": DEGENERATE_GRAM,
        "rational": RATIONAL_GRAM,
        "locus": LOCUS_FAMILY,
        "conic": CONIC_FAMILY,
        "zero": ZERO_MOD_7_FAMILY,
        "binary": BINARY_FAMILY,
        "cubic": CUBIC_FAMILY,
        "q3": Q3_FAMILY,
        "locus_points": _locus_points_text(),
        "conic_points": _conic_gfq_points_text(),
        "random_points": _random_points_text(),
        "messy_points": _messy_points_text(),
        "huge_points": HUGE_TOKEN_POINTS,
        "bad_points": BAD_TOKEN_POINTS,
        "ragged_points": RAGGED_POINTS,
        "ragged_bad_points": RAGGED_THEN_BAD_POINTS,
    }
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(text)
    for name, argv in GOLDEN_COMMANDS.items():
        for flags, suffix in (([], "txt"), (["--json"], "json")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.format(**paths) for a in argv] + flags)
            report = re.split(r'^(?:timings:|  "timings":)', out.getvalue(), flags=re.M)[0]
            text = f"exit: {code}\nstderr: {err.getvalue()!r}\n{report}"
            yield f"{name}.{suffix}", text.replace(str(tmp_path), "<tmp>")


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def test_golden_reports_are_byte_identical(tmp_path):
    reports = dict(golden_reports(tmp_path))
    assert sorted(reports) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    for name, text in reports.items():
        assert text == (GOLDEN_DIR / name).read_text(), name


# ---------------------------------------------------------------------------
# the CLI contract on fuzzed gram and cover files: exit 0, 1 (only with a
# FAIL verdict) or 3 (with an error line), never an exception
# ---------------------------------------------------------------------------

ENTRIES = ["0", "1", "-1", "2", "-2", "1/2", "-3/2", "2.5", "1/0", "x", "[1", "]"]
BAD_COMBOS = ["0", "x*K", "3*", "Q", "K++A", "", "1/2*K"]


def rarely(draw):
    """True about one time in ten: where a fuzzed file goes wrong."""
    return draw(st.integers(0, 9)) == 9


@st.composite
def lattice_and_cover_files(draw):
    """A gram file and a cover file over its class names: mostly well
    formed (symmetric entries, a small group, one branch divisor per slot,
    generator lines of distinct nontrivial characters), so that the cover
    code runs, with a corruption at each step now and then."""
    n = draw(st.integers(1, 4))
    names = draw(st.sampled_from([["K", "A", "B", "C"], ["A", "B", "C", "D"]]))[:n]
    if rarely(draw):  # repeated names, or too few or too many
        names = draw(st.lists(st.sampled_from(["K", "A", "B"]), min_size=n - 1, max_size=n + 1))
    entries = st.sampled_from(["0"] if draw(st.booleans()) else ENTRIES[:7])  # "0": all equivalent
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if not rarely(draw):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if rarely(draw):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.sampled_from(ENTRIES))
    if rarely(draw):
        rows = rows[:-1] if draw(st.booleans()) else rows + [rows[0]]
    gram = "names: " + " ".join(names) + "\n" + "".join(" ".join(r) + "\n" for r in rows)

    def combo():
        if rarely(draw):
            return draw(st.sampled_from(BAD_COMBOS))
        terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(names or ["K"])),
                              min_size=1, max_size=3))
        return " + ".join(f"{c}*{nm}" for c, nm in terms).replace("+ -", "- ")

    orders = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=2))
    G = AbelianGroup(tuple(orders))
    nslots = sum(len(char_generator_exponents(H)) for H in cyclic_subgroups(G))
    # a fault of the cover data now and then
    fault = draw(st.sampled_from(["orders", "empty-group", "slots", "no-generators"] + [None] * 4))
    if fault == "orders":
        orders = draw(st.lists(st.sampled_from([1, 0, -2, 2, "z"]), min_size=1, max_size=2))
    elif fault == "empty-group":
        orders = []
    elif fault == "slots":
        nslots += draw(st.sampled_from([-1, 1]))
    lines = ["group: " + " ".join(map(str, orders)),
             "branch: " + " | ".join(combo() for _ in range(nslots))]
    chars = draw(st.lists(st.sampled_from(G.elements()[1:]), min_size=1, max_size=3, unique=True))
    for exps in chars if fault != "no-generators" else []:
        if rarely(draw):
            exps = draw(st.lists(st.integers(-1, 4), max_size=3))
        lines.append(f"L ({','.join(map(str, exps))}): {combo()}")
    if rarely(draw):
        lines.append(draw(st.sampled_from(["# note", "", "bogus: 1", "L (1,x): K", "L: K"])))
    return gram, "\n".join(draw(st.permutations(lines))) + "\n"


COVER_DATA_ERRORS = {  # cover-file errors found only once the file is read
    "slots need": "branch-count",
    "no generator characters given": "no-generators",
    "do not generate the dual group": "not-generating",
    "disagrees with the stored class": "inconsistent",
    "no cyclic order after group:": "empty-group",
}


def test_fuzzed_gram_and_cover_files_keep_the_exit_contract(tmp_path_factory):
    """The errors of COVER_DATA_ERRORS name the cover file, and the fuzz
    reaches each of them."""
    seen = set()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(lattice_and_cover_files())
    def run(files):
        gram_text, cover_text = files
        tmp = tmp_path_factory.mktemp("fuzz")
        gram, cov = tmp / "gram.txt", tmp / "cover.txt"
        gram.write_text(gram_text)
        cov.write_text(cover_text)
        for argv in (
            ["lattice", "--gram", str(gram), "rank"],
            ["lattice", "--gram", str(gram), "search", "--bounds", "self=-1..1"],
            ["cover", "--lattice", str(gram), "--cover", str(cov), "verify"],
            ["cover", "--lattice", str(gram), "--cover", str(cov), "invariants"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 3), (argv, code)
            assert (code == 1) == ("\n  FAIL | " in out.getvalue()), argv
            assert (code == 3) == err.getvalue().startswith("error: "), (argv, err.getvalue())
            kinds = {kind for text, kind in COVER_DATA_ERRORS.items() if text in err.getvalue()}
            if kinds:
                assert argv[0] == "cover" and err.getvalue().startswith(f"error: {cov}: "), err.getvalue()
                seen.update(kinds)

    run()
    assert seen == set(COVER_DATA_ERRORS.values())


GRAM9_NAMES = ["N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "K"]


@st.composite
def solve_files(draw):
    """A template and a constraint file over GRAM9's class names: mostly well
    formed (every support class has a pair line, value sets of one or two
    values), with a corruption at each step now and then."""
    def name():
        return draw(st.sampled_from(["Q", "", "C'"])) if rarely(draw) else draw(st.sampled_from(GRAM9_NAMES))

    def values():
        vals = [draw(st.integers(-1, 2)) for _ in range(1 + (draw(st.integers(0, 3)) == 0))]
        text = "{" + ",".join(map(str, vals)) + "}"
        return draw(st.sampled_from(["{x}", "", "{1,,2}"])) if rarely(draw) else text

    lhs = " + ".join(f"{draw(st.integers(1, 8))}*{name()}" for _ in range(draw(st.integers(1, 2))))
    mult = draw(st.sampled_from([0, -1, "a"])) if rarely(draw) else draw(st.integers(1, 4))
    curve = draw(st.sampled_from(["K", "", "C'"])) if rarely(draw) else "C'"
    support = draw(st.lists(st.sampled_from(GRAM9_NAMES), min_size=1, max_size=4, unique=True))
    template = [f"lhs: {lhs}", f"curve: {mult}*{curve}", "support: " + " ".join(name() for _ in support)]
    if rarely(draw):
        template.pop(draw(st.integers(0, 2)))
    paired = support + draw(st.lists(st.sampled_from(GRAM9_NAMES), max_size=3))
    if rarely(draw):
        paired = paired[1:]
    constraints = [f"pair {name() if rarely(draw) else nm} {values()}" for nm in dict.fromkeys(paired)]
    for _ in range(draw(st.integers(0, 2))):
        group = "+".join(name() for _ in range(draw(st.integers(1, 3))))
        constraints.append(f"contact {group} = {draw(st.integers(0, 2))}")
    if draw(st.booleans()):
        constraints.append(f"self {values()}")
    if draw(st.booleans()):
        constraints.append("nonneg")
    if rarely(draw):
        constraints.append(draw(st.sampled_from(["pair", "contact N1", "self", "bogus 1", "# note"])))
    return "\n".join(template) + "\n", "\n".join(draw(st.permutations(constraints))) + "\n"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(solve_files())
def test_fuzzed_solve_files_keep_the_exit_contract(tmp_path_factory, files):
    tmp = tmp_path_factory.mktemp("fuzz")
    gram, template, constraints = tmp / "gram.txt", tmp / "template.txt", tmp / "constraints.txt"
    gram.write_text(GRAM9)
    template.write_text(files[0])
    constraints.write_text(files[1])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["lattice", "--gram", str(gram), "solve",
                     "--template", str(template), "--constraints", str(constraints)])
    assert code in (0, 1, 3), code
    assert (code == 1) == ("\n  FAIL | " in out.getvalue())
    assert (code == 3) == err.getvalue().startswith("error: "), err.getvalue()


FAMILY_TERMS = ["x0^2", "x1^2", "x2^2", "x0*x1", "3*x0*x2", "p1*x0*x1", "p2*x1*x2", "p1*x2^2", "x1", "2"]
BAD_TERMS = ["1/0*x0", "2/3*x1^2", "x", "p0", "x0^", "*x0", "x0^2 x1", "+"]
POINT_ENTRIES = ["0", "1", "2", "3", "-1", "13"]
BAD_ENTRIES = ["t", "x", "1/2", ""]
RESIDUE_PRIMES = [101, 103, 107, 109, 113]


@st.composite
def family_points_and_residue_files(draw):
    """A family, a points and a residue file: mostly well formed (a family
    over x0..x2 and p1..p2, points of one length, residues of small
    rationals modulo distinct primes, one width per file), with a
    corruption at each step now and then."""
    terms = draw(st.lists(st.sampled_from(FAMILY_TERMS), min_size=1, max_size=5))
    if rarely(draw):
        terms.insert(draw(st.integers(0, len(terms))), draw(st.sampled_from(BAD_TERMS)))
    family = [" + ".join(terms)]
    if rarely(draw):
        family.append(draw(st.sampled_from(["# note", "", family[0]])))

    n = draw(st.integers(1, 3))
    points = [[draw(st.sampled_from(POINT_ENTRIES)) for _ in range(n)] for _ in range(draw(st.integers(0, 8)))]
    if points and rarely(draw):
        points[-1].append(draw(st.sampled_from(POINT_ENTRIES + BAD_ENTRIES)))
    if points and rarely(draw):
        points[0][0] = draw(st.sampled_from(BAD_ENTRIES))

    width = draw(st.integers(1, 3))
    values = [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) for _ in range(width)]
    primes = draw(st.lists(st.sampled_from(RESIDUE_PRIMES), min_size=2, max_size=5, unique=True))
    residues = []
    for p in primes:
        payload = [v.numerator * pow(v.denominator, -1, p) % p for v in values]
        if rarely(draw):
            payload[0] += 1  # a bad prime
        if rarely(draw):
            payload = payload[:-1] if draw(st.booleans()) else payload + [1]
        head = draw(st.sampled_from(["8", "x", "101", ""])) if rarely(draw) else str(p)
        residues.append(f"{head}: " + ", ".join(map(str, payload)))
    if rarely(draw):
        residues.append(draw(st.sampled_from(["# note", "103 7", "107:", "109: 1,,2"])))

    def lines(rows):
        return "\n".join(draw(st.permutations(rows))) + "\n"

    return lines(family), lines([" ".join(pt) for pt in points]), lines(residues)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(family_points_and_residue_files())
def test_fuzzed_family_points_and_residue_files_keep_the_exit_contract(tmp_path_factory, files):
    tmp = tmp_path_factory.mktemp("fuzz")
    fam, pts, res = tmp / "family.txt", tmp / "points.txt", tmp / "residues.txt"
    for path, text in zip((fam, pts, res), files):
        path.write_text(text)
    for argv in (
        ["hunt", "--family", str(fam), "--field", "7", "--trials", "3", "--classify"],
        ["hunt", "--family", str(fam), "--field", "7", "--trials", "2", "--strategy", "solve-at-point"],
        ["interpolate", "--points", str(pts), "--field", "7", "--degree", "1"],
        ["interpolate", "--points", str(pts), "--field", "7", "--degree", "1", "--slack", "1"],
        ["lift", "--residues", str(res)],
        ["lift", "--residues", str(res), "--pairs"],
        ["lift", "--residues", str(res), "--tuples"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 3), (argv, code)
        assert (code == 1) == ("\n  FAIL | " in out.getvalue()), argv
        assert (code == 3) == err.getvalue().startswith("error: "), (argv, err.getvalue())
