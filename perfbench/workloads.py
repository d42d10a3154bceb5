"""The five benchmark workloads: seeded inputs, CLI jobs and their oracles.

A workload is a sequence of tasks.  A task is a generator that yields the
argv of each CLI job, receives the finished `Job`, judges it with an oracle
from `oracles.py` and finally returns the units of work it completed (0 if a
job failed).  Task i of a workload draws its inputs from (workload, seed, i)
only, so the same seed always gives the same inputs.  Why each workload
exists is written in NOTES.md.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import oracles
from oracles import GF, Family, first, section

CONIC = "x0^2+x1^2+x2^2+p1*x0*x1+p2*x0*x2+p3*x1*x2"
CONIC_FAMILY = Family([
    (1, (2, 0, 0), (0, 0, 0)), (1, (0, 2, 0), (0, 0, 0)), (1, (0, 0, 2), (0, 0, 0)),
    (1, (1, 1, 0), (1, 0, 0)), (1, (1, 0, 1), (0, 1, 0)), (1, (0, 1, 1), (0, 0, 1)),
])
LOCUS_PRIMES = (79, 83, 89, 97, 101, 103, 107, 109, 113, 127)
LOCUS_TRIALS = 5000
LOCUS_SLACK = 4
LOCUS_DRAWS = 3
QUADRATIC_MONOMIALS = sorted(
    (e for e in product(range(3), repeat=3) if sum(e) <= 2), key=lambda e: (-sum(e), [-x for x in e])
)


@dataclass
class Job:
    argv: list
    code: int | None
    out: str
    err: str
    seconds: float
    problem: str | None = None


def accept(job: Job, problem: str | None) -> bool:
    """Record an oracle's verdict on a job; True when the job passed."""
    if job.problem is None:
        job.problem = problem
    return job.problem is None


class Inputs:
    """Writes generated input files and hashes them with every job's argv."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.digest = hashlib.sha256()

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        self.digest.update(f"{name}\0{text}\0".encode())
        return str(path)

    def note(self, argv: list) -> None:
        text = "\0".join(argv).replace(str(self.workdir), "<work>")
        self.digest.update(text.encode() + b"\1")


class Workload:
    name = ""
    unit = ""
    repeat_check = False  # re-run the first job and compare its report bytes

    def __init__(self, seed: int, inputs: Inputs):
        self.seed = seed
        self.inputs = inputs

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def task(self, i: int):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# hunt-gfp, hunt-gfq: one random-params conic hunt with --classify per task
# ---------------------------------------------------------------------------

class Hunt(Workload):
    unit = "members tested"
    repeat_check = True

    def __init__(self, seed, inputs, field: GF, trials: int):
        super().__init__(seed, inputs)
        self.field = field
        self.trials = trials
        self.family = inputs.write("conic.txt", CONIC + "\n")

    def task(self, i):
        F = self.field
        seed = self.rng(i).randrange(2**31)
        spec = str(F.p) if F.k == 1 else f"{F.p},{F.k}"
        job = yield ["hunt", "--family", self.family, "--field", spec, "--trials",
                     str(self.trials), "--seed", str(seed), "--classify"]
        singular = {a for a in oracles.param_draws(F, 3, self.trials, seed)
                    if oracles.conic_gram_rank(F, a) < 3}
        ok = accept(job, oracles.check_hunt(job.out, job.code, F, CONIC_FAMILY, True, singular))
        return self.trials if ok else 0


class HuntGFp(Hunt):
    name = "hunt-gfp"

    def __init__(self, seed, inputs, trials=20):
        super().__init__(seed, inputs, GF(101), trials)


class HuntGFq(Hunt):
    name = "hunt-gfq"

    def __init__(self, seed, inputs, trials=5):
        super().__init__(seed, inputs, GF(7, 2), trials)


# ---------------------------------------------------------------------------
# locus-gfp: hunt + interpolate per prime, then lift every coefficient
# ---------------------------------------------------------------------------

def draw_plant(rng: random.Random, primes) -> dict:
    """A quadric h(p1, p2, p3) with small rational coefficients, h[p1^2] = 1,
    whose projective closure is smooth mod every prime (so h = 0 has about
    p^2 affine points and the degree-2 interpolation is unique)."""
    while True:
        h = {m: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for m in QUADRATIC_MONOMIALS}
        h[(2, 0, 0)] = Fraction(1)
        det = _quadric_det(h)
        if det != 0 and all(det.numerator % p for p in primes):
            return h


def _quadric_det(h: dict) -> Fraction:
    # symmetric 4x4 matrix of the homogenised quadric in (1, p1, p2, p3)
    Q = [[Fraction(0)] * 4 for _ in range(4)]
    for e, c in h.items():
        idx = [i + 1 for i, k in enumerate(e) for _ in range(k)] + [0] * (2 - sum(e))
        a, b = idx
        if a == b:
            Q[a][a] += c
        else:
            Q[a][b] += c / 2
            Q[b][a] += c / 2
    return _det(Q)


def _det(M) -> Fraction:
    M = [row[:] for row in M]
    n, det = len(M), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return det


def _term(coeff: int, factors: str) -> str:
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    return f" {sign} {factors}" if mag == 1 else f" {sign} {mag}*{factors}"


def _monomial(exps, names) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


class Locus(Workload):
    name = "locus-gfp"
    unit = "loci lifted"

    def __init__(self, seed, inputs, primes=LOCUS_PRIMES):
        super().__init__(seed, inputs)
        self.primes = primes

    def task(self, i):
        rng = self.rng(i)
        h = draw_plant(rng, self.primes)
        scale = math.lcm(*(c.denominator for c in h.values()))
        H = {m: int(c * scale) for m, c in h.items()}
        text = "x1^2"
        for m in QUADRATIC_MONOMIALS:
            if H[m]:
                params = _monomial(m, ("p1", "p2", "p3"))
                text += _term(H[m], "x0^2" + (f"*{params}" if params else ""))
        family = self.inputs.write("locus.txt", text + "\n")
        fam = Family([(1, (0, 2), (0, 0, 0))] + [(H[m], (2, 0), m) for m in QUADRATIC_MONOMIALS])
        residues: dict = {m: [] for m in QUADRATIC_MONOMIALS}
        for p in self.primes:
            F = GF(p)
            seed = rng.randrange(2**31)
            job = yield ["hunt", "--family", family, "--field", str(p), "--trials",
                         str(LOCUS_TRIALS), "--seed", str(seed)]
            singular = _plant_zeros(oracles.param_draws(F, 3, LOCUS_TRIALS, seed), h, p)
            if not accept(job, oracles.check_hunt(job.out, job.code, F, fam, False, singular)):
                return 0
            params = [tuple(c[0] for c in m[0]) for m in oracles.parse_members(F, job.out)]
            pts = self.inputs.write("locus-points.txt", "".join(" ".join(map(str, a)) + "\n" for a in params))
            job = yield ["interpolate", "--points", pts, "--field", str(p), "--degree", "2",
                         "--slack", str(LOCUS_SLACK), "--draws", str(LOCUS_DRAWS),
                         "--seed", str(rng.randrange(2**31))]
            normalised = _normalised_locus(job, p)
            if not accept(job, normalised if isinstance(normalised, str) else None):
                return 0
            want = {m: oracles.mod_p(c, p) for m, c in h.items()}
            if not accept(job, None if normalised == want else f"locus mod {p} is not the plant"):
                return 0
            for m in QUADRATIC_MONOMIALS:
                residues[m].append((p, normalised[m]))
        for m in QUADRATIC_MONOMIALS:
            res = self.inputs.write("locus-residues.txt", "".join(f"{p}: {r}\n" for p, r in residues[m]))
            job = yield ["lift", "--residues", res]
            if not accept(job, _check_lift(job, h[m])):
                return 0
        return 1


def _plant_zeros(draws, h: dict, p: int) -> set:
    """The drawn parameters where h vanishes mod p: exactly the singular members
    of x0^2*h + x1^2, each singular at (1:0)."""
    hp = [(m, oracles.mod_p(c, p)) for m, c in h.items()]
    return {a for a in draws
            if not sum(c * a[0][0] ** m[0] * a[1][0] ** m[1] * a[2][0] ** m[2] for m, c in hp) % p}


def _normalised_locus(job: Job, p: int):
    """The interpolated quadric scaled to x0^2 coefficient 1, or a problem."""
    if job.code != 0:
        return f"exit code {job.code}"
    results = section(job.out, "results")
    if first(results, "dimension") != "1":
        return f"dimension {first(results, 'dimension')}, expected 1"
    poly = oracles.parse_poly_modp(first(results, "poly 1"), 3, p)
    lead = poly.get((2, 0, 0), 0)
    if not lead:
        return "interpolated quadric has no x0^2 term"
    inv = pow(lead, -1, p)
    return {m: poly.get(m, 0) * inv % p for m in QUADRATIC_MONOMIALS}


def _check_lift(job: Job, want: Fraction):
    if job.code != 0:
        return f"exit code {job.code}"
    value = first(section(job.out, "results"), "value")
    if value is None or Fraction(value) != want:
        return f"lifted {value}, planted {want}"
    if "  pass | held-out |" not in job.out:
        return "no passing held-out verdict"
    return None


# ---------------------------------------------------------------------------
# classify-qq: projective classification over Q of disguised A1, A2, A3
# ---------------------------------------------------------------------------

# y = U0 * diag(s0, s1, s2, 1) * x.  The last column of U0 is e3, so the
# singular point is (0:0:0:1) for every sign choice, and the Tjurina matrix of
# each seed is the same matrix up to the signs of rows and columns: all seeds
# cost the same, which keeps the workload steady.
U0 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1))


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ppow(a: dict, k: int) -> dict:
    out = {(0, 0, 0, 0): 1}
    for _ in range(k):
        out = _pmul(out, a)
    return out


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def disguised_normal_form(k: int, signs) -> str:
    """y3^2 (y0^2 + y1^2) + y3^(3-k) y2^(k+1): an A_k point at y = (0:0:0:1)."""
    s = tuple(signs) + (1,)
    y = [{tuple(int(i == j) for i in range(4)): row[j] * s[j] for j in range(4) if row[j]}
         for row in U0]
    f = _pmul(_ppow(y[3], 2), _padd(_ppow(y[0], 2), _ppow(y[1], 2)))
    f = _padd(f, _pmul(_ppow(y[3], 3 - k), _ppow(y[2], k + 1)))
    names = ("x0", "x1", "x2", "x3")
    text = "".join(_term(f[e], _monomial(e, names)) for e in sorted(f, reverse=True))
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


class Classify(Workload):
    name = "classify-qq"
    unit = "points classified"

    def task(self, i):
        rng = self.rng(i)
        for k in (1, 2, 3):
            signs = [rng.choice((1, -1)) for _ in range(3)]
            job = yield ["classify", "--poly", disguised_normal_form(k, signs), "--point=0,0,0,1"]
            if not accept(job, _check_label(job, k)):
                return 0
        return 3


def _check_label(job: Job, k: int):
    if job.code != 0:
        return f"exit code {job.code}"
    got = dict(section(job.out, "results"))
    want = {"label": f"A{k}", "corank": str(0 if k == 1 else 1), "tjurina": str(k)}
    bad = {key: got.get(key) for key in want if got.get(key) != want[key]}
    return f"got {bad}, planted {want}" if bad else None


# ---------------------------------------------------------------------------
# certify-lattice: the fixture, lattice and cover jobs on the built-in lattices
# ---------------------------------------------------------------------------

NAMES9 = "N1 N2 N3 N4 N5 N6 N7 N8 K".split()
GRAM9 = (
    (-2, 0, 0, 0, 0, 0, 0, 0, 0), (0, -2, 0, 0, 0, 0, 0, 0, 0), (0, 0, -2, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0, 0), (0, 0, 0, 1, -2, 0, 0, 0, 0), (0, 0, 0, 0, 0, -2, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, -2, 1, 0), (0, 0, 0, 0, 0, 0, 1, -2, 0), (0, 0, 0, 0, 0, 0, 0, 0, 1),
)
# the 9 classes extended by the curves C' and D' of the paper's relations
C_ROW = (1, 0, 0, 0, 1, 1, 0, 0, 2)
D_ROW = (1, 1, 0, 0, 0, 0, 1, 0, 2)
GRAM11 = tuple(r + (c, d) for r, c, d in zip(GRAM9, C_ROW, D_ROW)) + (C_ROW + (2, 3), D_ROW + (3, 2))
TEMPLATE_C = "lhs: 8*K\ncurve: 4*C'\nsupport: N1 N3 N4 N5 N6 N7 N8\n"
CONSTRAINTS_C = (
    "pair N1 {1}\npair N2 {0}\npair N3 {0}\npair N4 {0,1}\npair N5 {0,1}\n"
    "pair N6 {0,1}\npair N7 {0,1}\npair N8 {0}\ncontact N3+N4+N5 = 1\ncontact N6+N7+N8 = 1\n"
)
COVER = (
    "group: 2 4\nbranch: N4+N7 | N1 | N2 | N3 | N5 | N6 | N8\n"
    "L (1,0): 2*K - D' - N7\nL (1,1): 2*K - C'\n"
)
EXHAUSTIVE_BOX = ",".join([f"N{i}=0..1" for i in range(1, 9)] + ["K=0..4", "self=-2..4"])
EXHAUSTIVE_HITS = 118
SAMPLED_BOX = ",".join([f"N{i}=0..2" for i in range(1, 9)] + ["K=0..4", "self=-2..4"])


def _gram_text(names, gram) -> str:
    return "names: " + " ".join(names) + "\n" + "".join(" ".join(map(str, r)) + "\n" for r in gram)


class Lattice(Workload):
    name = "certify-lattice"
    unit = "jobs"

    def __init__(self, seed, inputs, sampled_trials=2000):
        super().__init__(seed, inputs)
        self.sampled_trials = sampled_trials
        self.gram9 = inputs.write("gram9.txt", _gram_text(NAMES9, GRAM9))
        self.gram11 = inputs.write("gram11.txt", _gram_text(NAMES9 + ["C'", "D'"], GRAM11))
        self.template = inputs.write("template.txt", TEMPLATE_C)
        self.constraints = inputs.write("constraints.txt", CONSTRAINTS_C)
        self.cover = inputs.write("cover.txt", COVER)

    def task(self, i):
        seed = self.rng(i).randrange(2**31)
        # an odd number of jobs puts the median job in the middle of one kind
        # of job rather than between the slowest of one and the fastest of another
        steps = [
            (["fixture"], lambda job: _check_summary(job, 17)),
            (["lattice", "--gram", self.gram11, "rank"], lambda job: _check_rank(job, GRAM11, 9, 2)),
            (["lattice", "--gram", self.gram9, "search", "--bounds", EXHAUSTIVE_BOX, "--limit", "500"],
             lambda job: _check_search(job, EXHAUSTIVE_HITS)),
            (["lattice", "--gram", self.gram9, "search", "--bounds", SAMPLED_BOX, "--seed", str(seed),
              "--trials", str(self.sampled_trials), "--limit", "500"],
             lambda job: _check_search(job, None)),
            (["lattice", "--gram", self.gram9, "solve", "--template", self.template,
              "--constraints", self.constraints], _check_solve),
            (["cover", "--lattice", self.gram11, "--cover", self.cover, "verify"],
             lambda job: _check_summary(job, 7)),
            (["cover", "--lattice", self.gram11, "--cover", self.cover, "invariants"], _check_invariants),
        ]
        for argv, check in steps:
            job = yield argv
            if not accept(job, check(job)):
                return 0
        return len(steps)


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.strip().strip("[]").split(",") if tok.strip()]


def _annihilates(gram, v) -> bool:
    return all(sum(a * b for a, b in zip(row, v)) == 0 for row in gram)


def _extend(gram, pairings, self_int):
    return [list(r) + [c] for r, c in zip(gram, pairings)] + [list(pairings) + [self_int]]


def _check_summary(job: Job, n: int):
    if job.code != 0 or f"summary: {n}/{n} verdicts pass" not in job.out:
        return f"exit code {job.code}; expected {n}/{n} passing verdicts"
    return None


def _check_rank(job: Job, gram, rank: int, radical: int):
    results = section(job.out, "results")
    if job.code != 0 or first(results, "rank") != str(rank) \
            or first(results, "radical_dimension") != str(radical):
        return f"rank/radical {first(results, 'rank')}/{first(results, 'radical_dimension')}"
    vectors = [_ints(v) for k, v in results if k == "radical_vector"]
    if len(vectors) != radical or not all(any(v) and _annihilates(gram, v) for v in vectors):
        return "radical vectors do not annihilate the Gram matrix"
    return None


def _check_search(job: Job, expected):
    results = section(job.out, "results")
    count = first(results, "degenerate_extensions")
    hits = [v for k, v in results if k == "hit"]
    if job.code != 0 or count is None or int(count) != len(hits):
        return f"exit code {job.code}; {count} extensions, {len(hits)} hit lines"
    if expected is not None and len(hits) != expected:
        return f"{len(hits)} degenerate extensions, expected {expected}"
    for hit in hits:
        pairings = _ints(hit.split("pairings=")[1].split(" self=")[0])
        self_int = int(hit.split(" self=")[1].split(" ")[0])
        ext = _extend(GRAM9, pairings, self_int)
        for rel in hit.split("relations=")[1].split(";"):
            v = _ints(rel)
            if not any(v) or not _annihilates(ext, v):
                return f"relation {v} is not in the radical of extension {pairings}, {self_int}"
    return None


def _check_solve(job: Job):
    results = section(job.out, "results")
    sols = [v for k, v in results if k == "solution"]
    if job.code != 0 or first(results, "solutions") != "1" or len(sols) != 1:
        return f"exit code {job.code}; {first(results, 'solutions')} solutions, expected 1"
    pairings = _ints(sols[0].split("pairings=")[1].split(" self=")[0])
    self_int = int(sols[0].split(" self=")[1].split(" ")[0])
    relation = _ints(sols[0].split("relation=")[1])
    if pairings != list(C_ROW) or not _annihilates(_extend(GRAM9, pairings, self_int), relation):
        return f"solution pairings {pairings} / relation {relation} rejected"
    return None


def _check_invariants(job: Job):
    results = dict(section(job.out, "results"))
    if job.code != 0 or results.get("chi_cover") != "1" or results.get("K2_cover") != "8":
        return f"chi_cover {results.get('chi_cover')}, K2_cover {results.get('K2_cover')}"
    return None


WORKLOADS = {w.name: w for w in (HuntGFp, HuntGFq, Locus, Classify, Lattice)}
