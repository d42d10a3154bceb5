"""In-memory span tracer and the instrumentation the traced run installs.

A span records its name, start, end, parent span and job id.  Spans stay in
memory until the run ends; `self_times` then turns them into per-layer self
time.  The parent stack is per thread.  A span opened on a thread whose stack
is empty (a hunt worker of the CLI's thread pool) takes as parent the
innermost open span of the client thread, which is blocked waiting for it.

Counts are kept per thread and summed when read, so worker threads never
contend on a shared counter.

`instrument` wraps the public functions of each singhunt module from outside;
nothing under src/ is edited.  Every span name it records has a metric, so
the self times of all layers plus `cli` add up to the traced job wall time.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        self._client_stack: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        rec = [name, perf_counter(), None, parent, self.job]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack().pop()

    def open_names(self) -> list[str]:
        """Names of the spans open on the calling thread, innermost last."""
        return [rec[NAME] for rec in self._stack()]

    def count(self, name: str, n: int = 1) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._counters.append(counts)
        counts[name] += n

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for c in self._counters:
                total.update(c)
        return total

    def job_span(self, job_id) -> list:
        """Open the root span of one CLI job on the client thread."""
        self.job = job_id
        self._client_stack = self._stack()
        return self.begin("cli")


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name.

    A span's self time is its duration minus the union of its children.  When
    spans of several threads are self-active at once, each instant is split
    evenly between them (only one thread holds the interpreter lock), so the
    self times of all spans add up to the wall time of the root spans.
    """
    index = {id(rec): i for i, rec in enumerate(spans)}
    parent = [index.get(id(rec[PARENT])) if rec[PARENT] is not None else None
              for rec in spans]
    events = []
    for i, rec in enumerate(spans):
        events.append((rec[START], 1, i))
        events.append((rec[END], 0, i))
    events.sort()
    active = [False] * len(spans)
    children = [0] * len(spans)
    leaves: set[int] = set()
    out: dict[str, float] = defaultdict(float)
    last = None
    for t, is_start, i in events:
        if leaves:
            share = (t - last) / len(leaves)
            for j in leaves:
                out[spans[j][NAME]] += share
        last = t
        p = parent[i]
        if is_start:
            active[i] = True
            leaves.add(i)
            if p is not None and active[p]:
                children[p] += 1
                leaves.discard(p)
        else:
            active[i] = False
            leaves.discard(i)
            if p is not None and active[p]:
                children[p] -= 1
                if children[p] == 0:
                    leaves.add(p)
    return dict(out)


# ---------------------------------------------------------------------------
# instrumentation of the singhunt modules
# ---------------------------------------------------------------------------

ELEM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__pow__")


def _spanned(tracer: Tracer, fn, name, after=None):
    """Wrap fn in a span; `name` is a string or a function of the arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return wrapper


def _counted(tracer: Tracer, fn, name, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        if before is not None:
            before(*args, **kwargs)
        return fn(*args, **kwargs)
    return wrapper


def _rref_domain(A) -> str:
    if A.domain == "QQ":
        return "qq"
    return "modp" if A.domain.k == 1 else "gfq"


def instrument(tracer: Tracer):
    """Install span and count wrappers; returns a function that removes them."""
    from singhunt import cover, exactla, fields, hunt, interp, lattice, lift, poly

    t = tracer

    def rref_cells(result, A):
        t.count(f"exactla.rref.{_rref_domain(A)}.cells", A.rows * A.cols)

    def scanned(result, f, ctx, *rest, **kw):
        if f.nvars == 2 and ctx.k == 1 and f.is_homogeneous():
            t.count("hunt.binary_calls")
        else:
            t.count("hunt.points_scanned", (ctx.q ** f.nvars - 1) // (ctx.q - 1))
        if result:
            t.count("hunt.singular_members")

    def unclassified(result, *args, **kwargs):
        if result.label == hunt.UNCLASSIFIED:
            t.count("hunt.unclassified")

    def eval_cells(result, pts, degree, homogeneous=False, *rest, **kw):
        n = len(pts.points[0])
        cols = math.comb(n + degree - 1, degree) if homogeneous else math.comb(n + degree, degree)
        t.count("interp.eval_cells", len(pts.points) * cols)

    def held_out(result, rs):
        if len(rs.primes) >= 3:
            t.count("lift.held_out")

    def candidates(result, L, bounds, self_bounds=(-2, 8), seed=0, trials=10_000,
                   exhaustive_limit=100_000, *rest, **kw):
        box = self_bounds[1] - self_bounds[0] + 1
        for nm in L.names:
            lo, hi = bounds.get(nm, (0, 0))
            box *= hi - lo + 1
        t.count("lattice.candidates", box if box <= exhaustive_limit else trials)

    def radical_in_search(*args, **kwargs):
        if "lattice.search_relations" in t.open_names():
            t.count("lattice.search_radical_calls")

    wrappers = [
        (poly.ParametricFamily, "specialize", _spanned(t, poly.ParametricFamily.specialize, "poly.specialize")),
        (poly.MultiPoly, "substitute", _spanned(t, poly.MultiPoly.substitute, "poly.substitute")),
        (fields, "field_create", _spanned(t, fields.field_create, "fields.field_create")),
        (fields, "inv", _counted(t, fields.inv, "fields.elem_ops")),
        (exactla, "rref", _spanned(t, exactla.rref, lambda A: f"exactla.rref.{_rref_domain(A)}", rref_cells)),
        (exactla, "determinant", _spanned(t, exactla.determinant, "exactla.determinant")),
        (hunt, "hunt_members", _spanned(t, hunt.hunt_members, "hunt.hunt_members")),
        (hunt, "singular_points", _spanned(t, hunt.singular_points, "hunt.singular_points", scanned)),
        (hunt, "classify", _spanned(t, hunt.classify, "hunt.classify", unclassified)),
        (interp, "vanishing_system", _spanned(t, interp.vanishing_system, "interp.vanishing_system", eval_cells)),
        (lift, "lift_rational", _spanned(t, lift.lift_rational, "lift.lift_rational", held_out)),
        (lattice, "search_relations", _spanned(t, lattice.search_relations, "lattice.search_relations", candidates)),
        (lattice, "solve_curve_intersections",
         _spanned(t, lattice.solve_curve_intersections, "lattice.solve_curve_intersections")),
        (lattice.GramLattice, "radical",
         _counted(t, lattice.GramLattice.radical, "lattice.radical.calls", radical_in_search)),
        (lattice.GramLattice, "pairing", _counted(t, lattice.GramLattice.pairing, "lattice.pairing.calls")),
        (cover, "derive_all_L", _spanned(t, cover.derive_all_L, "cover.derive_all_L")),
        (cover.CoverData, "verify_reduced_data",
         _spanned(t, cover.CoverData.verify_reduced_data, "cover.verify_reduced_data")),
    ]
    wrappers += [
        (fields.FieldElement, op, _counted(t, getattr(fields.FieldElement, op), "fields.elem_ops"))
        for op in ELEM_OPS
    ]

    undo = []
    modules = [m for name, m in sys.modules.items() if name.startswith("singhunt")]
    for owner, attr, wrapper in wrappers:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        # names bound by `from .x import name` in other modules
        for mod in modules:
            if mod is not owner and mod.__dict__.get(attr) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def remove():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove


SPANNED = ("poly.specialize", "poly.substitute", "fields.field_create", "exactla.rref.modp",
           "exactla.rref.gfq", "exactla.rref.qq", "exactla.determinant", "hunt.hunt_members",
           "hunt.singular_points", "hunt.classify", "interp.vanishing_system",
           "lift.lift_rational", "lattice.search_relations", "lattice.solve_curve_intersections",
           "cover.derive_all_L", "cover.verify_reduced_data")
CALLS = ("poly.specialize", "exactla.rref.modp", "exactla.rref.gfq", "exactla.rref.qq",
         "exactla.determinant", "hunt.singular_points", "hunt.classify",
         "interp.vanishing_system", "lift.lift_rational")
COUNTS = ("fields.elem_ops", "exactla.rref.modp.cells", "exactla.rref.gfq.cells",
          "exactla.rref.qq.cells", "hunt.points_scanned", "hunt.binary_calls",
          "interp.eval_cells", "lattice.radical.calls", "lattice.pairing.calls")


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer metric values from the spans and counts of a traced run.

    Self times, call counts and work counts are divided by the units of work
    the traced run completed, so they measure the cost of one unit and do not
    grow when a faster program completes more units in the same time.
    Ratios are left as they are.
    """
    selfs = self_times(tracer.spans)
    calls = Counter(rec[NAME] for rec in tracer.spans)
    counts = tracer.counts()
    per = 1 / max(units, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {"cli.self_s": selfs.get("cli", 0.0) * per}
    m.update({f"{name}.self_s": selfs.get(name, 0.0) * per for name in SPANNED})
    m.update({f"{name}.calls": calls[name] * per for name in CALLS})
    m.update({name: counts[name] * per for name in COUNTS})
    m["hunt.singular_ratio"] = ratio(counts["hunt.singular_members"], calls["hunt.singular_points"])
    m["hunt.unclassified_ratio"] = ratio(counts["hunt.unclassified"], calls["hunt.classify"])
    m["lift.held_out_ratio"] = ratio(counts["lift.held_out"], calls["lift.lift_rational"])
    m["lattice.schur_pass_ratio"] = ratio(counts["lattice.search_radical_calls"],
                                          counts["lattice.candidates"])
    m["trace.job_wall_s"] = sum(rec[END] - rec[START] for rec in tracer.spans
                                if rec[NAME] == "cli") * per
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s/unit"
    return "ratio" if metric.endswith("_ratio") else "count/unit"
