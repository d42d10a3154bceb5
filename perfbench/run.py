"""singhunt benchmark: seeded CLI workloads in a closed loop.

    python3 perfbench/run.py --workload hunt-gfp --seed 1 --seconds 40 --trace 0

One client runs the workload's tasks back to back in this process, each job
through `singhunt.cli.main(argv)` exactly as a user would call it, for about
--seconds, stopping between tasks.  Every job is checked by an oracle.  The last line of stdout is the result JSON:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1 (the
traced run spends the first half of its time untraced, to report the
tracing overhead).  The line before it holds the run's metadata.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
SETUP_CODE = "import singhunt.cli as c; c.build_parser()"


class SetupTimer:
    """Wall time of a fresh interpreter importing the CLI and building its
    parser.  Samples are taken between tasks, one per `interval` seconds of
    the run (several at once after a long task), so they spread over the run
    like the jobs do."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self._time_one()  # untimed: writes the bytecode caches
        self.start = perf_counter()

    def _time_one(self) -> float:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        return perf_counter() - t0

    def sample(self) -> None:
        due = 1 + (int((perf_counter() - self.start) / self.interval) if self.interval > 0 else 0)
        while len(self.samples) < min(due, SETUP_SAMPLES):
            self.samples.append(self._time_one())


def run_job(argv: list, tracer=None, job_id=None):
    from singhunt import cli
    from workloads import Job

    out, err = io.StringIO(), io.StringIO()
    problem = None
    root = tracer.job_span(job_id) if tracer else None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed job, not a failed benchmark
        code = None
        problem = "exception: " + traceback.format_exc(limit=-3)
    seconds = perf_counter() - t0
    if tracer:
        tracer.end(root)
    return Job(argv, code, out.getvalue(), err.getvalue(), seconds, problem)


class Loop:
    """Closed-loop run of one workload's tasks, starting from task 0."""

    def __init__(self, workload, tracer=None, between_tasks=None):
        self.workload = workload
        self.tracer = tracer
        self.between_tasks = between_tasks
        self.units = 0
        self.job_seconds: list[float] = []
        self.failed: list[str] = []
        self.first_job = None

    def run(self, seconds: float) -> "Loop":
        """Run whole tasks and stop at the task boundary nearest to `seconds`
        (at least one task), so a run lasts about `seconds` even when a task
        takes several seconds."""
        start = perf_counter()
        i = 0
        while True:
            t0 = perf_counter()
            self.units += self.run_task(self.workload.task(i))
            task_seconds = perf_counter() - t0
            i += 1
            if self.between_tasks:
                self.between_tasks()
            if perf_counter() - start + task_seconds / 2 >= seconds:
                return self

    def run_task(self, gen) -> int:
        job = None
        while True:
            try:
                argv = gen.send(job)
            except StopIteration as stop:
                if job is not None and job.problem:
                    self.fail(job)
                return stop.value
            except Exception:
                if job is None:  # the workload failed to make its inputs
                    raise
                # an oracle that chokes on malformed output rejects the job
                job.problem = "oracle: " + traceback.format_exc(limit=-2)
                self.fail(job)
                return 0
            self.workload.inputs.note(argv)
            job = run_job(argv, self.tracer, len(self.job_seconds))
            self.job_seconds.append(job.seconds)
            if self.first_job is None:
                self.first_job = job
            if job.problem:  # an exception escaped the CLI
                gen.close()
                self.fail(job)
                return 0

    def fail(self, job) -> None:
        self.failed.append(f"{' '.join(job.argv)}: {job.problem}")

    @property
    def units_per_s(self) -> float:
        """Units completed per second of job time."""
        return self.units / sum(self.job_seconds)

    def check_repeat(self) -> None:
        """Two runs of one seed must print the same report up to timings:."""
        from oracles import strip_timings

        job = self.first_job
        if job.problem:  # already counted as failed
            return
        again = run_job(job.argv)
        if again.code != job.code or strip_timings(again.out) != strip_timings(job.out):
            job.problem = "report bytes differ between two runs of one seed"
            self.fail(job)


def src_stats() -> tuple[int, str]:
    lines, digest = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args, workload, loop, default_threads) -> dict:
    import numpy

    lines, digest = src_stats()
    return {
        "workload": args.workload,
        "unit": workload.unit,
        "seed": args.seed,
        "inputs_sha256": workload.inputs.digest.hexdigest(),
        "git_sha": git_sha(),
        "src_sha256": digest,
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "default_threads": default_threads,
        "jobs": len(loop.job_seconds),
        "units": loop.units,
        "job_seconds": [round(t, 5) for t in loop.job_seconds],
        "failures": loop.failed[:5],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singhunt" / "cli.py").is_file():
        print(f"error: no singhunt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the CLI is called as a user calls it: no --threads, no SINGHUNT_THREADS
    os.environ.pop("SINGHUNT_THREADS", None)
    import spans
    from workloads import WORKLOADS, Inputs
    from singhunt import cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    default_threads = getattr(
        cli.build_parser().parse_args(["hunt", "--family", "-", "--field", "2"]), "threads", None)

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        inputs = Inputs(workdir)
        workload = WORKLOADS[args.workload](args.seed, inputs)
        if args.trace:
            # half the time untraced, then the same tasks traced: the ratio of
            # the two throughputs is the tracing overhead
            loop = Loop(workload).run(args.seconds / 2)
            tracer = spans.Tracer()
            remove = spans.instrument(tracer)
            try:
                traced = Loop(WORKLOADS[args.workload](args.seed, inputs), tracer).run(args.seconds / 2)
            finally:
                remove()
            metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                       for name, value in spans.layer_metrics(tracer, traced.units).items()}
            metrics["trace.overhead_ratio"] = {"value": loop.units_per_s / traced.units_per_s,
                                               "unit": "ratio"}
            loop.failed += traced.failed
            loop.job_seconds += traced.job_seconds
            loop.units += traced.units
        else:
            setup = SetupTimer(args.seconds / SETUP_SAMPLES)
            loop = Loop(workload, between_tasks=setup.sample).run(args.seconds)
            if workload.repeat_check:
                loop.check_repeat()
            metrics = {
                "setup_s": {"value": statistics.median(setup.samples), "unit": "s"},
                "units_per_s": {"value": loop.units_per_s, "unit": "1/s"},
                "job_s.p50": {"value": statistics.median(loop.job_seconds), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    print(json.dumps({"meta": metadata(args, workload, loop, default_threads)}))
    print(json.dumps({
        "correct": not loop.failed,
        "attempted": len(loop.job_seconds),
        "failed": len(loop.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
