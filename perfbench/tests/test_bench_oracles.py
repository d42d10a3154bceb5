"""Each oracle accepts a correct report and rejects a corrupted one."""

from fractions import Fraction

import pytest

import oracles
import workloads
from oracles import GF
from run import run_job
from workloads import CONIC_FAMILY, Job

# (x0 + x1)^2 + x2^2: Gram rank 2, one node at (1:-1:0), in every odd characteristic
HUNT_GFP = """\
singhunt report: hunt
inputs:
  family: conic.txt
  field: GF(101)
  nvars/nparams: 3/3
  strategy: random-params
  trials: 20
  seed: 0
results:
  members: 1
  member 1: (2,0,0) | 1A1 | (1:100:0)
timings:
  total_s: 0.5
"""
HUNT_GFQ = HUNT_GFP.replace("GF(101)", "GF(7^2; t: t^2+1)").replace("(1:100:0)", "(1:6:0)")


def job(out, code=0):
    return Job([], code, out, "", 0.0)


def test_independent_field_matches_the_documented_modulus():
    F = GF(7, 2)
    assert oracles.field_repr(F) == "GF(7^2; t: t^2+1)"
    t = F.parse("t")
    assert F.mul(t, t) == F.parse("6")
    assert F.parse("3*t+1") == (1, 3)
    assert F.mul(F.inv(F.parse("3*t+1")), F.parse("3*t+1")) == F.elem(1)


@pytest.mark.parametrize("report, field", [(HUNT_GFP, GF(101)), (HUNT_GFQ, GF(7, 2))])
def test_hunt_oracle(report, field):
    node = (field.elem(2), field.elem(0), field.elem(0))

    def check(text, code=0, singular={node}):
        return oracles.check_hunt(text, code, field, CONIC_FAMILY, True, singular)

    assert check(report) is None
    assert "missed" in check(report, singular={node, (field.elem(2),) * 3})
    assert "not singular" in check(report, singular=set())
    off_point = "(1:2:0)" if field.k == 1 else "(1:t:0)"
    bad_point = report.replace("(1:100:0)", off_point).replace("(1:6:0)", off_point)
    assert "not singular" in check(bad_point)
    assert "signature" in check(report.replace("1A1", "1A2"))
    assert "member lines" in check(report.replace("members: 1", "members: 2"))
    # (x0 + x1 + x2)^2 is singular on a whole line: one reported point is too few
    assert "points" in check(report.replace("(2,0,0) | 1A1", "(2,2,2) | 1?"))
    assert "exit code" in check(report, code=1)


def drop_last_member(report: str) -> str:
    lines = report.splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.startswith("  member "))
    n = sum(line.startswith("  member ") for line in lines)
    return "".join(lines[:last] + lines[last + 1:]).replace(f"members: {n}", f"members: {n - 1}")


@pytest.mark.parametrize("field", [GF(7), GF(3, 2)])
def test_hunt_oracle_rebuilds_the_draw_and_rejects_a_missed_member(field, tmp_path):
    (tmp_path / "conic.txt").write_text(workloads.CONIC + "\n")
    spec = str(field.p) if field.k == 1 else f"{field.p},{field.k}"
    argv = ["hunt", "--family", str(tmp_path / "conic.txt"), "--field", spec, "--trials", "40",
            "--seed", "5", "--classify"]
    first, second = run_job(argv), run_job(argv)
    singular = {a for a in oracles.param_draws(field, 3, 40, 5) if oracles.conic_gram_rank(field, a) < 3}
    assert len(singular) >= 2
    assert oracles.check_hunt(first.out, first.code, field, CONIC_FAMILY, True, singular) is None
    assert "missed" in oracles.check_hunt(drop_last_member(first.out), 0, field, CONIC_FAMILY,
                                          True, singular)
    # two runs of one seed print the same report up to timings:
    assert oracles.strip_timings(first.out) == oracles.strip_timings(second.out)


def test_classify_oracle():
    argv = ["classify", "--poly", workloads.disguised_normal_form(2, (1, -1, 1)),
            "--point=0,0,0,1", "--cap", "5"]
    done = run_job(argv)
    assert workloads._check_label(done, 2) is None
    assert "planted" in workloads._check_label(job(done.out.replace("A2", "A3")), 2)
    assert "planted" in workloads._check_label(done, 3)


def test_lift_oracle():
    out = "singhunt report: lift\nresults:\n  value: -3/2\nverdicts:\n  pass | held-out | ok\n"
    assert workloads._check_lift(job(out), Fraction(-3, 2)) is None
    assert "planted" in workloads._check_lift(job(out.replace("-3/2", "3/2")), Fraction(-3, 2))
    assert "held-out" in workloads._check_lift(job(out.replace("pass |", "FAIL |")), Fraction(-3, 2))


def test_locus_oracle_rejects_a_wrong_interpolant():
    out = "singhunt report: interpolate\nresults:\n  dimension: 1\n  poly 1: 2*x0^2 + 4*x1 + 6\n"
    assert workloads._normalised_locus(job(out), 7)[(0, 1, 0)] == 2
    assert "dimension" in workloads._normalised_locus(job(out.replace("dimension: 1", "dimension: 2")), 7)
    h = {m: Fraction(0) for m in workloads.QUADRATIC_MONOMIALS}
    h[(2, 0, 0)] = Fraction(1)
    assert workloads._plant_zeros([((0,), (3,), (4,)), ((1,), (3,), (4,))], h, 7) == {((0,), (3,), (4,))}


def test_locus_hunt_oracle_rejects_a_missed_member(tmp_path):
    workload = workloads.Locus(3, workloads.Inputs(tmp_path), primes=(97,))
    task = workload.task(0)
    argv = next(task)
    hunt = run_job(argv)
    assert "members: 0" not in hunt.out
    assert task.send(hunt)[0] == "interpolate"
    corrupted = job(drop_last_member(hunt.out))
    corrupted.argv = argv
    task = workload.task(0)
    next(task)
    with pytest.raises(StopIteration) as stop:
        task.send(corrupted)
    assert stop.value.value == 0 and "missed" in corrupted.problem


def test_an_oracle_exception_counts_as_a_failed_job(tmp_path):
    from run import Loop

    workload = workloads.Locus(3, workloads.Inputs(tmp_path), primes=(97,))
    loop = Loop(workload)

    def choking_task():
        done = yield next(workload.task(0))
        raise ValueError(f"cannot parse {len(done.out)} bytes")

    assert loop.run_task(choking_task()) == 0
    assert len(loop.failed) == 1 and "oracle: " in loop.failed[0]
    loop.check_repeat()  # the first job already failed: not counted twice
    assert len(loop.failed) == 1


def test_lattice_oracles(tmp_path):
    inputs = workloads.Inputs(tmp_path)
    lattice = workloads.Lattice(1, inputs, sampled_trials=200)
    fixture = run_job(["fixture"])
    assert workloads._check_summary(fixture, 17) is None
    assert workloads._check_summary(job(fixture.out.replace("17/17", "16/17")), 17)

    solve = run_job(["lattice", "--gram", lattice.gram9, "solve", "--template", lattice.template,
                     "--constraints", lattice.constraints])
    assert workloads._check_solve(solve) is None
    wrong = solve.out.replace("relation=[-2,", "relation=[-3,").replace("relation=[2,", "relation=[3,")
    assert wrong != solve.out and workloads._check_solve(job(wrong))

    rank = run_job(["lattice", "--gram", lattice.gram11, "rank"])
    assert workloads._check_rank(rank, workloads.GRAM11, 9, 2) is None
    assert workloads._check_rank(job(rank.out.replace("radical_vector: [", "radical_vector: [1")),
                                 workloads.GRAM11, 9, 2)

    search = run_job(["lattice", "--gram", lattice.gram9, "search", "--bounds",
                      workloads.EXHAUSTIVE_BOX, "--limit", "500"])
    assert workloads._check_search(search, workloads.EXHAUSTIVE_HITS) is None
    assert workloads._check_search(job(search.out.replace("self=-2 relations=[", "self=-2 relations=[1")),
                                   workloads.EXHAUSTIVE_HITS)

    cover = run_job(["cover", "--lattice", lattice.gram11, "--cover", lattice.cover, "invariants"])
    assert workloads._check_invariants(cover) is None
    assert workloads._check_invariants(job(cover.out.replace("K2_cover: 8", "K2_cover: 9")))
