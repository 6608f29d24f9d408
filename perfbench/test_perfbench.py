"""Self-tests of the benchmark: its oracles, its output contract, its counts.

Run from the repository root (about two minutes; the workload runs are real):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from workloads import cycle_edges, path_edges

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


@pytest.mark.parametrize(
    "n, edges, colourable",
    [
        (3, complete_edges(3), True),
        (5, cycle_edges(5), True),
        (10, petersen_edges(), True),
        (4, complete_edges(4), False),
    ],
    ids=["K3", "C5", "Petersen", "K4"],
)
def test_three_colouring_oracle(n, edges, colourable):
    assert oracles.three_colourable(n, edges) is colourable


@pytest.mark.parametrize("n", [3, 5, 17, 31])
def test_odd_dist13_cycles_are_unsat_and_even_ones_sat(n):
    # dist13 = {+-1, +-3} is satisfiable on a graph exactly when it is bipartite
    assert not oracles.bipartite(n, cycle_edges(n))
    assert oracles.bipartite(n + 1, cycle_edges(n + 1))
    assert oracles.bipartite(n, path_edges(n))


def test_witness_oracle_rejects_a_broken_edge():
    allowed = frozenset((-3, -1, 1, 3))
    edges = cycle_edges(4)
    assert oracles.edge_witness_ok(4, edges, (0, 1, 0, 1), allowed)
    assert not oracles.edge_witness_ok(4, edges, (0, 1, 0, 0), allowed)
    assert not oracles.edge_witness_ok(4, edges, (0, 1, 0), allowed)


def test_median_and_map_oracles_on_dist13():
    import random

    dist13 = [(2, ((-3,), (-1,), (1,), (3,)))]
    assert oracles.median_violation(2, dist13, random.Random(0)) is None
    assert oracles.median_violation(1, dist13, random.Random(0)) is not None
    assert oracles.is_endomorphism(3, (0, 1, 0), 1, dist13)
    assert not oracles.is_endomorphism(1, (0,), 0, dist13)
    assert oracles.is_translation_or_reflection(1, (4,), -1)
    assert not oracles.is_translation_or_reflection(3, (0, 1, 0), 1)


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, attempt: int = 0):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]  # fmt: skip
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = bench(workload, trace)
    declared = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert f"{metric['name']} {reported['value']} {metric['unit']}" in lines


@pytest.mark.parametrize("workload", ["paths", "coloring", "templates"])
def test_counts_repeat_for_a_seed(workload):
    _, first = bench(workload, 1)
    _, second = bench(workload, 1, attempt=1)
    counts = {
        name: m["value"] for name, m in first["metrics"].items() if m["unit"] == "count"
    }
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    named = {
        "paths": ["model.check_int.calls", "solver.propagate.pair_visits",
                  "solver.propagate.replacements"],
        "coloring": ["solver.propagate.pair_visits", "brute.constraint_checks"],
        "templates": ["endomorphism.is_endomorphism.calls"],
    }[workload]  # fmt: skip
    assert all(counts[name] > 0 for name in named)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [*CONFIG["command"], "--workload", WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"]  # fmt: skip
    argv[0] = sys.executable
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
