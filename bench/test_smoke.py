"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload untraced and traced with `--tiny` at the reference seed,
checks the result line against BENCHMARK.json, shows that a corrupted
reference digest is counted as a failed op, and that the benchmark refuses
to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import DIGESTS, REFERENCE_SEED, TMP_DIR  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(REFERENCE_SEED), "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in expected), result["metrics"]


def test_corrupted_digest_is_a_failed_op():
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    table = digests["closure_solvers/tiny"]
    table[sorted(table)[0]] = "0" * 64
    os.makedirs(TMP_DIR, exist_ok=True)
    path = os.path.join(TMP_DIR, f"corrupt-digests-{os.getpid()}.json")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh)
        proc = _bench("closure_solvers", 0, "--tiny", "--digests", path)
    finally:
        os.remove(path)
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "digest mismatch" in proc.stderr


def test_refuses_to_run_without_the_package():
    bare = os.path.join(TMP_DIR, f"bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
