"""Two traced runs with one seed give the same certificates and counts.

Each run is a fresh process doing one round of the workload.  Counts
(budget nodes, DFA states, relation pairs, routes) must repeat exactly;
self times are measured and may differ.

Run from the repository root: python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SEED = 7


def _traced_run(workload: str, out: Path) -> tuple[dict, list]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    trace = json.loads((out / f"trace-{workload}-{SEED}.json").read_text())
    return result, trace["answers"]


@pytest.fixture
def out_dir():
    path = BENCH.parent / ".bench_out" / f"test-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_exactly(workload, out_dir):
    first, first_answers = _traced_run(workload, out_dir / "1")
    second, second_answers = _traced_run(workload, out_dir / "2")
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (
        second["attempted"], second["failed"])
    assert sorted(first["metrics"]) == sorted(tracing.PER_LAYER_METRICS)
    counts = [name for name in tracing.PER_LAYER_METRICS
              if not name.endswith("_s")]
    assert {n: first["metrics"][n] for n in counts} == {
        n: second["metrics"][n] for n in counts}
    assert first_answers == second_answers
