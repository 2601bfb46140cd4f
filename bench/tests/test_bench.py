"""Self-test of the benchmark (kept out of the package's test suite).

    PYTHONPATH=src python3 -m pytest bench/tests -q

Checks that the printed metric names match ``BENCHMARK.json``, that a
tampered reference digest is counted as a failure, and that the count
metrics of the traced run repeat exactly for the same seed.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
from workloads import WORKLOADS, rounds  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, trace, seconds=1):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared_units(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declaration_matches_code():
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)
    assert _declared_units("end_to_end") == bench.END_TO_END
    assert _declared_units("per_layer") == bench.per_layer_units()


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_declaration(trace, kind):
    result = _run("numeric", 1, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared_units(kind)


def test_tampered_reference_counts_as_failure(tmp_path, monkeypatch, capsys):
    workload = WORKLOADS["numeric"]
    seed = 7
    rng = random.Random("%s:%d" % (workload.name, seed))
    first = rounds(workload.slots(rng), rng)[0][0]
    reference = json.loads(bench.REFERENCE.read_text())
    entry = reference[workload.name][first.key]
    field = sorted(entry)[0]
    entry[field] = "0" * len(entry[field])
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    monkeypatch.setattr(bench, "REFERENCE", tampered)

    assert bench.main(["--workload", "numeric", "--seed", str(seed), "--seconds", "0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, env = json.loads(lines[-1]), json.loads(lines[-2])["env"]
    assert result["failed"] == 1 and not result["correct"]
    assert env["fail_ratio"] > 0
    assert first.key in env["problems"][0]


def _counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith((".calls", ".max", ".count")) or k == "classify.laplace_per_job"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat(workload):
    first = _run(workload, 3, 1)["metrics"]
    second = _run(workload, 3, 1)["metrics"]
    assert _counts(first) == _counts(second)
    assert any(_counts(first).values())
