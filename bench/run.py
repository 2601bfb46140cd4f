"""Benchmark for polymaass: one process, one client, closed loop.

    python3 bench/run.py --workload cases --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/`` and
the CLI is started as ``python -m polymaass.cli`` with ``PYTHONPATH=src``.

With ``--trace 0`` the run measures, with no tracing and with every time
scaled to a reference machine speed (``gauge.py``):

* ``setup_s``: median time of a fresh interpreter that imports the CLI and
  exits on ``<verb> --help``;
* an in-process loop of whole rounds of jobs (see ``workloads.py``), as
  many as ``--seconds`` holds at the workload's nominal cost per round,
  giving ``jobs_per_s``, ``job_p50_s`` and ``job_tail_s``;
* ``cli_p50_s``: median time of one CLI subprocess over a fixed set of
  CLI jobs that the loop does not run;
* ``peak_rss_mb`` of this process.

With ``--trace 1`` it runs round 0 untraced and round 1 traced, then the
CLI jobs in-process under tracing, and prints the per-layer metrics.

Every job's output is checked against ``reference.json`` and against the
workload's semantic checks.  The last line of standard output is the
result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from gauge import Gauge

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

SETUP_PER_ROUND = 2   # fresh-interpreter set-up samples after each round
CLI_CALLS_PER_ROUND = 3   # CLI jobs after each round make at least this many calls
SETUP_MIN = 9
CLI_MIN_JOBS = 6
TRACED_CLI_JOBS = 3
SUBPROCESS_TIMEOUT_S = 120
TAIL_BEYOND = 10
WARMUP_LOOPS = 50     # gauge loops run before the first timed job
WALL_CAP = 2.0        # a timed run stops early after this many times --seconds

# Functions wrapped in the traced run, by owning module, with the fields
# reported for each.
CS, S = ("calls", "self_s"), ("self_s",)
TRACED = {
    "symcalc": {"apply_lowering": CS, "apply_raising": CS, "apply_laplace": CS,
                "apply_power": CS, "expand_pending": CS, "is_zero": CS,
                "apply_flip": CS, "form_to_json": S, "form_from_json": S,
                "pretty": S},
    "specsolve": {"solve_wd": CS, "brute_force_wd": CS, "rref": CS, "kernel": CS,
                  "solve_linear": CS, "mat_mul": CS, "mat_vec": CS,
                  "construct_case": S, "emit_form": S},
    "classify": {"classify_bk": S, "exact_depth": S},
    "quiverrep": {"classify_cyclic": CS, "is_cyclic": CS,
                  "has_only_trivial_idempotents": CS, "endomorphism_basis": CS,
                  "iso_two_descriptions": CS},
    "numcheck": {"verify_identity": CS, "fd_operator": CS, "eval_eisenstein": CS},
    "cli": {"main": S},
}
COUNTED_METHODS = (("scalars", "Scalar", "__mul__"),)
SIZE_METRICS = {  # name -> unit
    "scalars.mul.calls": "count", "scalars.coeff_bits.max": "bits",
    "symcalc.terms.max": "count", "symcalc.pole_warnings.count": "count",
    "specsolve.layer_bits.max": "bits", "specsolve.block_dim.max": "count",
    "classify.laplace_per_job": "calls/job", "quiverrep.end_dim.max": "count",
}
OVERHEAD_METRICS = {"trace.untraced_jobs_per_s": "1/s", "trace.traced_jobs_per_s": "1/s",
                    "trace.overhead_ratio": "ratio"}
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
              "cli_p50_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for owner, funcs in TRACED.items():
        for func, fields in funcs.items():
            for field in fields:
                units["%s.%s.%s" % (owner, func, field)] = "count" if field == "calls" else "s"
    units.update(SIZE_METRICS)
    units.update(OVERHEAD_METRICS)
    return units


# ---------------------------------------------------------------------------
# helpers


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv, stdin: str = "") -> tuple:
    """One CLI subprocess: (start, wall seconds, return code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "polymaass.cli", *argv], input=stdin,
                          capture_output=True, text=True, cwd=ROOT, env=cli_env(),
                          timeout=SUBPROCESS_TIMEOUT_S)
    return start, time.perf_counter() - start, proc.returncode, proc.stdout


def pin_to_one_cpu():
    """Run this process, and the CLI processes it starts, on one CPU, so
    the speed gauge measures the CPU that every timed piece of work runs
    on.  Returns that CPU, or None where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tail(latencies) -> tuple:
    """(percentile, value) at the highest percentile that has TAIL_BEYOND
    samples beyond it: the (TAIL_BEYOND + 1)-th largest latency.  Unlike a
    fixed ladder of percentiles it does not jump when a faster run fits
    one more round."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 0.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def environment(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "polymaass").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": workload, "seed": seed, "git_commit": commit,
            "source_sha256": src_hash.hexdigest()[:16]}


class Checker:
    """Counts attempted and failed jobs against the reference."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.cli_attempted = 0
        self.failed = 0
        self.problems: list = []

    def _fail(self, key, why):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (key, why))

    def job(self, job, out, error) -> bool:
        self.attempted += 1
        if error is not None:
            self._fail(job.key, "%s: %s" % (type(error).__name__, error))
            return False
        expected = self.reference.get(job.key)
        if expected is None:
            self._fail(job.key, "no reference output")
            return False
        got = self.workload.record(job, out)
        if got != expected:
            self._fail(job.key, "output differs from reference in %s"
                       % sorted(k for k in got if got[k] != expected.get(k)))
            return False
        why = self.workload.problem(job, out)
        if why:
            self._fail(job.key, why)
            return False
        return True

    def cli_job(self, cli_job, outputs) -> bool:
        """outputs: list of (return code, stdout) per step, or an exception."""
        self.attempted += 1
        self.cli_attempted += 1
        if isinstance(outputs, Exception):
            self._fail(cli_job.key, "%s: %s" % (type(outputs).__name__, outputs))
            return False
        expected = self.reference.get(cli_job.key)
        codes = [code for code, _ in outputs]
        if any(codes):
            self._fail(cli_job.key, "exit codes %s" % codes)
            return False
        got = [self.workload.cli_digest(out) for _, out in outputs]
        if got != expected:
            self._fail(cli_job.key, "CLI output differs from reference")
            return False
        return True


def cli_in_process(argv, stdin: str = "") -> tuple:
    """``polymaass.cli.main`` in this process: (return code, stdout)."""
    from polymaass import cli
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def run_job(workload, job):
    """(start, latency, output, error) for one in-process job."""
    start = time.perf_counter()
    try:
        out = workload.run(job)
    except Exception as ex:   # a failed job is counted, the loop goes on
        return start, time.perf_counter() - start, None, ex
    return start, time.perf_counter() - start, out, None


def run_round(workload, jobs, checker, gauge, run=run_job) -> tuple:
    """Run one round, sampling `gauge` between jobs: the (start, latency)
    of each job and the number of correct jobs."""
    timings, correct = [], 0
    for job in jobs:
        gauge.tick()
        start, dt, out, err = run(workload, job)
        timings.append((start, dt))
        correct += checker.job(job, out, err)
    return timings, correct


def scaled(gauge, timings) -> list:
    return [gauge.scale(start, dt) for start, dt in timings]


def cli_steps(cli_job, call):
    """Run the steps of a CLI job, feeding each '--in -' step the previous
    step's output.  `call(argv, stdin)` returns (return code, stdout)."""
    outputs, previous = [], ""
    for argv in cli_job.steps:
        code, out = call(argv, previous if "--in" in argv else "")
        outputs.append((code, out))
        if code:
            break
        previous = out
    return outputs


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload, rng, reference, seconds):
    """End-to-end metrics, every time scaled to the reference speed by the
    gauge.  The run measures round(seconds / workload.ROUND_S) whole rounds
    (fewer if the pool runs out), each followed by set-up samples and CLI
    jobs, so every metric samples the same stretch of time; then more
    set-up samples and CLI jobs until `seconds` of scaled time are
    measured.  The round count does not depend on the machine's speed, so
    every seed measures the same mix of jobs.  Should the machine be so
    slow that the run takes WALL_CAP times `seconds`, it stops early."""
    from workloads import rounds as make_rounds

    checker = Checker(workload, reference)
    rounds = make_rounds(workload.slots(rng), rng)
    rounds = rounds[:max(1, round(seconds / workload.ROUND_S))]
    cli_queue = iter(workload.cli_jobs(rng))
    speed = Gauge()
    setup_timings, cli_timings, per_round = [], [], []

    def timed_cli(argv, stdin, timings):
        speed.tick()
        start, dt, code, out = run_cli(argv, stdin)
        timings.append((start, dt))
        return code, out

    def setup_sample():
        timed_cli(workload.help_argv, "", setup_timings)

    def cli_job() -> bool:
        cj = next(cli_queue, None)
        if cj is None:   # every CLI job of the pool has run
            return False
        try:
            outputs = cli_steps(cj, lambda argv, stdin: timed_cli(argv, stdin, cli_timings))
        except subprocess.SubprocessError as ex:
            outputs = ex
        checker.cli_job(cj, outputs)
        return True

    def measured() -> float:
        timings = setup_timings + cli_timings + [x for t, _ in per_round for x in t]
        return sum(scaled(speed, timings))

    run_cli(workload.help_argv)   # compile bytecode and warm the file cache
    speed.warm_up(WARMUP_LOOPS)
    deadline = time.perf_counter() + WALL_CAP * seconds
    for jobs in rounds:
        per_round.append(run_round(workload, jobs, checker, speed))
        for _ in range(SETUP_PER_ROUND):
            setup_sample()
        calls = len(cli_timings) + CLI_CALLS_PER_ROUND
        while len(cli_timings) < calls and cli_job():
            pass
        if time.perf_counter() > deadline:
            break
    while measured() < seconds and time.perf_counter() < deadline:
        setup_sample()
        if not cli_job():
            break
    while len(setup_timings) < SETUP_MIN:
        setup_sample()
    while checker.cli_attempted < CLI_MIN_JOBS and cli_job():
        pass
    speed.sample()

    latencies = [x for timings, _ in per_round for x in scaled(speed, timings)]
    round_busy = [sum(scaled(speed, timings)) for timings, _ in per_round]
    correct = sum(c for _, c in per_round)
    setup_times, cli_times = scaled(speed, setup_timings), scaled(speed, cli_timings)
    raw = [dt for timings, _ in per_round for _, dt in timings]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pct, tail_value = tail(latencies)
    metrics = {"setup_s": statistics.median(setup_times), "jobs_per_s": correct / sum(round_busy),
               "job_p50_s": statistics.median(latencies), "job_tail_s": tail_value,
               "cli_p50_s": statistics.median(cli_times), "peak_rss_mb": peak_kb / 1024.0}
    details = {"round_busy_s": round_busy, "inprocess_jobs": len(latencies),
               "cli_jobs": checker.cli_attempted, "cli_invocations": len(cli_times),
               "setup_samples": len(setup_times),
               "tail_percentile": pct, "tail_samples": len(latencies),
               "unscaled": {"setup_s": statistics.median(dt for _, dt in setup_timings),
                            "jobs_per_s": correct / sum(raw), "job_p50_s": statistics.median(raw),
                            "job_tail_s": tail(raw)[1],
                            "cli_p50_s": statistics.median(dt for _, dt in cli_timings)}}
    details.update(speed.summary())
    return checker, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, details


def _observers():
    from polymaass.symcalc import Form

    def form_sizes(tr, form):
        if isinstance(form, Form):
            tr.note_max("symcalc.terms.max", len(form.terms))
            bits = 0
            for _key, coeff in form.terms:
                for _e, q in coeff.terms:
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
            tr.note_max("scalars.coeff_bits.max", bits)

    def graded(tr, gv):
        tr.note_max("specsolve.block_dim.max", (gv.m + 1) * (gv.d + 1))
        tr.note_max("specsolve.layer_bits.max",
                    max(max(x.numerator.bit_length(), x.denominator.bit_length())
                        for layer in gv.layers for x in layer))

    def end_dim(tr, basis):
        tr.note_max("quiverrep.end_dim.max", len(basis))

    obs = {"symcalc." + f: form_sizes for f in TRACED["symcalc"] if f.startswith(("apply", "expand"))}
    obs.update({"symcalc.form_from_json": form_sizes, "specsolve.construct_case": form_sizes,
                "specsolve.emit_form": form_sizes, "specsolve.solve_wd": graded,
                "specsolve.brute_force_wd": graded, "quiverrep.endomorphism_basis": end_dim})
    return obs


def traced_run(workload, rng, reference):
    from polymaass.symcalc import PolePointWarning
    from tracer import Tracer
    from workloads import rounds as make_rounds

    checker = Checker(workload, reference)
    rounds = make_rounds(workload.slots(rng), rng)
    cli_jobs = workload.cli_jobs(rng)[:TRACED_CLI_JOBS]

    speed = Gauge()
    speed.warm_up(WARMUP_LOOPS)
    untraced = run_round(workload, rounds[0], checker, speed)

    tracer = Tracer()
    tracer.install("polymaass", [(owner, f) for owner, funcs in TRACED.items() for f in funcs],
                   COUNTED_METHODS, _observers())
    pole_hits = 0

    def traced_job(workload, job):
        nonlocal pole_hits
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tracer.job = job.key
            try:
                return run_job(workload, job)
            finally:
                tracer.job = None
                pole_hits += sum(issubclass(w.category, PolePointWarning) for w in caught)

    try:
        traced = run_round(workload, rounds[1], checker, speed, run=traced_job)
        speed.sample()
        for cj in cli_jobs:
            def call(argv, stdin, key=cj.key):
                tracer.job = key
                try:
                    return cli_in_process(argv, stdin)
                finally:
                    tracer.job = None
            try:
                outputs = cli_steps(cj, call)
            except Exception as ex:   # counted as a failed CLI job
                outputs = ex
            checker.cli_job(cj, outputs)
    finally:
        tracer.restore()

    units = per_layer_units()
    metrics = {name: 0 for name in units}
    for name, (self_s, calls) in tracer.self_times().items():
        owner, func = name.split(".")
        for field, value in (("self_s", self_s), ("calls", calls)):
            if field in TRACED[owner][func]:
                metrics["%s.%s" % (name, field)] = value
    metrics["scalars.mul.calls"] = tracer.calls["scalars.mul"]
    metrics.update(tracer.maxima)
    metrics["symcalc.pole_warnings.count"] = pole_hits
    n_classify = tracer.spans_named("classify.classify_bk")
    metrics["classify.laplace_per_job"] = tracer.calls_under(
        "symcalc.apply_laplace", "classify.classify_bk") / n_classify if n_classify else 0
    # job throughput with and without tracing, scaled like the timed run's
    (timings0, correct0), (timings1, correct1) = untraced, traced
    busy0, busy1 = sum(scaled(speed, timings0)), sum(scaled(speed, timings1))
    metrics["trace.untraced_jobs_per_s"] = correct0 / busy0
    metrics["trace.traced_jobs_per_s"] = correct1 / busy1
    metrics["trace.overhead_ratio"] = (correct0 * busy1) / (correct1 * busy0) if correct1 else 0.0
    details = {"untraced_jobs": len(timings0), "traced_jobs": len(timings1),
               "cli_jobs": len(cli_jobs), "spans": len(tracer.spans)}
    return checker, {k: (v, units[k]) for k, v in metrics.items()}, details


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "polymaass" / "__init__.py").is_file():
        print("error: package sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    cpu = pin_to_one_cpu()
    from polymaass.symcalc import PolePointWarning
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have %s)" % (args.workload, sorted(WORKLOADS)),
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(REFERENCE) as fh:
        reference = json.load(fh)[workload.name]
    # pole-table hits are counted in the traced run; untraced runs stay quiet
    warnings.simplefilter("ignore", PolePointWarning)

    rng = random.Random("%s:%d" % (workload.name, args.seed))
    if args.trace:
        checker, metrics, details = traced_run(workload, rng, reference)
    else:
        checker, metrics, details = timed_run(workload, rng, reference, args.seconds)

    env = environment(workload.name, args.seed)
    env["pinned_cpu"] = cpu
    env.update(details)
    env["fail_ratio"] = checker.failed / checker.attempted
    env["problems"] = checker.problems
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
