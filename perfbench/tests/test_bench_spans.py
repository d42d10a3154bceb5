import threading
import time

import pytest

import spans
from spans import Tracer, self_times


def span(name, start, end, parent=None, job=0):
    return [name, start, end, parent, job]


def test_self_time_of_nested_spans():
    root = span("cli", 0.0, 10.0)
    a = span("a", 1.0, 4.0, root)
    b = span("b", 2.0, 3.0, a)
    c = span("c", 5.0, 9.0, root)
    st = self_times([root, a, b, c])
    assert st == pytest.approx({"cli": 3.0, "a": 2.0, "b": 1.0, "c": 4.0})
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_of_overlapping_spans_from_two_threads():
    # two workers under one client span: the overlap [3, 5) is split evenly
    root = span("hunt", 0.0, 10.0)
    x = span("x", 1.0, 5.0, root)
    y = span("y", 3.0, 7.0, root)
    z = span("z", 4.0, 4.5, y)
    st = self_times([root, x, y, z])
    assert st["hunt"] == pytest.approx(10.0 - 6.0)  # duration minus the union [1, 7)
    assert st["x"] == pytest.approx(2.0 + 0.5 + 0.25 + 0.25)
    assert st["z"] == pytest.approx(0.25)
    assert st["y"] == pytest.approx(0.5 + 0.25 + 2.0)
    assert sum(st.values()) == pytest.approx(10.0)


def test_worker_thread_spans_take_the_client_span_as_parent():
    tracer = Tracer()
    root = tracer.job_span(7)
    outer = tracer.begin("hunt.hunt_members")

    def worker():
        for _ in range(3):
            rec = tracer.begin("hunt.singular_points")
            time.sleep(0.002)
            tracer.count("work")
            tracer.end(rec)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    tracer.end(outer)
    tracer.end(root)

    workers = [rec for rec in tracer.spans if rec[spans.NAME] == "hunt.singular_points"]
    assert len(workers) == 6
    assert all(rec[spans.PARENT] is outer and rec[spans.JOB] == 7 for rec in workers)
    assert tracer.counts()["work"] == 6
    st = self_times(tracer.spans)
    wall = root[spans.END] - root[spans.START]
    assert sum(st.values()) == pytest.approx(wall)
    assert st["hunt.singular_points"] > 0


def test_instrument_records_layers_and_restores_the_modules(tmp_path):
    from run import run_job
    from singhunt import cli, exactla, fields, hunt

    originals = (exactla.rref, hunt.singular_points, cli.field_create,
                 fields.FieldElement.__mul__)
    family = tmp_path / "conic.txt"
    family.write_text("x0^2+x1^2+x2^2+p1*x0*x1+p2*x0*x2+p3*x1*x2\n")
    tracer = Tracer()
    remove = spans.instrument(tracer)
    try:
        job = run_job(["hunt", "--family", str(family), "--field", "7,2", "--trials", "2"],
                      tracer, 0)
    finally:
        remove()
    assert job.code == 0
    assert (exactla.rref, hunt.singular_points, cli.field_create,
            fields.FieldElement.__mul__) == originals
    m = spans.layer_metrics(tracer, 1)
    assert m["hunt.singular_points.calls"] == 2
    assert m["hunt.points_scanned"] == 2 * (49**3 - 1) // 48
    # per unit of work: two members tested
    per_member = spans.layer_metrics(tracer, 2)
    assert per_member["hunt.singular_points.calls"] == 1
    assert per_member["trace.job_wall_s"] == pytest.approx(m["trace.job_wall_s"] / 2)
    assert per_member["hunt.singular_ratio"] == m["hunt.singular_ratio"]
    assert m["fields.elem_ops"] > 0
    assert m["fields.field_create.self_s"] > 0
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(m["trace.job_wall_s"])
