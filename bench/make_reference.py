"""Write ``reference.json``: digests of every job's output at this commit.

    python3 bench/make_reference.py [--workload NAME ...]

Every job that any seed can draw is run once in-process, its semantic
checks must hold, and its digests are stored; every CLI job is run through
``polymaass.cli.main`` in-process and the digests of its outputs are stored.
The benchmark then counts any job whose output differs as failed, so a
change to a golden display or JSON format shows up in ``fail_ratio``.
Regenerate only when such a change is intended.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

import run as bench

sys.path[:0] = [str(bench.SRC)]

from polymaass.symcalc import PolePointWarning  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_for(workload) -> dict:
    ref = {}
    for job in workload.all_jobs():
        out = workload.run(job)
        why = workload.problem(job, out)
        if why:
            raise SystemExit("%s %s: %s" % (workload.name, job.key, why))
        ref[job.key] = workload.record(job, out)
    for cj in workload.all_cli_jobs():
        outputs = bench.cli_steps(cj, bench.cli_in_process)
        if any(code for code, _ in outputs):
            raise SystemExit("%s %s: exit codes %s" % (workload.name, cj.key,
                                                       [c for c, _ in outputs]))
        ref[cj.key] = [workload.cli_digest(out) for _, out in outputs]
    return ref


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="regenerate only these workloads (default: all)")
    args = p.parse_args()
    warnings.simplefilter("ignore", PolePointWarning)
    reference = {}
    if bench.REFERENCE.exists():
        with open(bench.REFERENCE) as fh:
            reference = json.load(fh)
    for name in args.workload or sorted(WORKLOADS):
        start = time.perf_counter()
        reference[name] = reference_for(WORKLOADS[name])
        print("%s: %d entries in %.1f s" % (name, len(reference[name]),
                                           time.perf_counter() - start), file=sys.stderr)
    with open(bench.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
