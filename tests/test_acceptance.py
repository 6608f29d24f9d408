"""End-to-end acceptance gates.

Each test is one gate over the full stack; the terminal summary prints one
PASS/FAIL line per gate.  Workloads shared between gates (the random solver
sweeps and the benchmark graphs) run once in module-scoped fixtures with the
solver's debug assertions enabled, so the invariant gate can inspect them.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from distcsp import analysis, solver
from distcsp.brute import brute_solve
from distcsp.endomorphism import (
    PERIODIC,
    PeriodicMapSpec,
    classify_endomorphism,
    is_endomorphism,
    reduce_template,
    search_periodic_endomorphism,
)
from distcsp.errors import InternalInvariantError
from distcsp.formats import instance_to_dict, template_to_dict, to_json
from distcsp.polymorphism import (
    check_two_decomposable,
    find_modular_median,
    modular_median,
    preserves_relation,
    random_preservation_trials,
)
from helpers import (
    DIST12,
    DIST13,
    DIST136_3,
    FIXTURE_TEMPLATES,
    complete_edges,
    cycle_edges,
    graph_instance,
    petersen_edges,
    random_any_template,
    random_connected_instance,
    random_median_template,
)

ENDO1 = PeriodicMapSpec(3, (0, 1, 0), 1)


def _decide(inst, t, mode, violations):
    try:
        return solver.solve(inst, t, mode=mode, debug=True)
    except InternalInvariantError as e:
        violations.append(f"{t.name}: {e}")
        return None


@pytest.fixture(scope="module")
def median_workload():
    """500 random pairs over templates closed under a modular median."""
    rng = random.Random(2024)
    pairs = unknowns = disagreements = 0
    failures = []
    violations = []
    start = time.perf_counter()
    while pairs < 500:
        t = random_median_template(rng, f"m{pairs}")
        if find_modular_median(t, 4) is None:
            continue
        for _ in range(5):
            inst = random_connected_instance(t, rng.randint(2, 7), rng)
            pairs += 1
            verdict = _decide(inst, t, "consistency", violations)
            if verdict is None:
                continue
            if verdict.status == "unknown":
                unknowns += 1
                failures.append(f"unknown on {t.name}: {verdict.reason}")
                continue
            expected = "sat" if brute_solve(inst, t) is not None else "unsat"
            if verdict.status != expected:
                disagreements += 1
                failures.append(
                    f"{t.name} {instance_to_dict(inst)}: "
                    f"consistency={verdict.status} brute={expected}"
                )
    return {
        "pairs": pairs,
        "unknowns": unknowns,
        "disagreements": disagreements,
        "failures": failures,
        "violations": violations,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def arbitrary_workload():
    """500 random pairs over unrestricted templates; audits unsat soundness."""
    rng = random.Random(4096)
    unsat_checked = 0
    unsound = []
    violations = []
    for i in range(500):
        t = random_any_template(rng, f"a{i}")
        inst = random_connected_instance(t, rng.randint(2, 4), rng)
        verdict = _decide(inst, t, "consistency", violations)
        if verdict is None or verdict.status != "unsat":
            continue
        unsat_checked += 1
        witness = brute_solve(inst, t)
        if witness is not None:
            unsound.append(f"{t.name} {instance_to_dict(inst)}: witness {witness}")
    return {"unsat_checked": unsat_checked, "unsound": unsound, "violations": violations}


@pytest.fixture(scope="module")
def benchmark_graphs():
    """K3, C5, Petersen and K4 over distances {1,2}, solved both ways."""
    cases = {
        "K3": (3, complete_edges(3), "sat"),
        "C5": (5, cycle_edges(5), "sat"),
        "Petersen": (10, petersen_edges(), "sat"),
        "K4": (4, complete_edges(4), "unsat"),
    }
    violations = []
    results = {}
    for label, (n, edges, expected) in cases.items():
        inst = graph_instance("dist12", n, edges)
        verdict = _decide(inst, DIST12, "auto", violations)
        start = time.perf_counter()
        witness = brute_solve(inst, DIST12)
        brute_time = time.perf_counter() - start
        results[label] = {
            "expected": expected,
            "auto": None if verdict is None else verdict.status,
            "brute": "sat" if witness is not None else "unsat",
            "brute_time": brute_time,
        }
    return {"results": results, "violations": violations}


def test_01_median_templates_decided_exactly(median_workload):
    w = median_workload
    assert w["pairs"] >= 500
    assert w["elapsed"] < 120.0, f"took {w['elapsed']:.1f}s"
    assert w["unknowns"] == 0 and w["disagreements"] == 0, "\n".join(w["failures"])


def test_02_unsat_verdicts_sound(arbitrary_workload):
    w = arbitrary_workload
    assert w["unsat_checked"] > 0
    assert not w["unsound"], "\n".join(w["unsound"])


def test_03_benchmark_graphs(benchmark_graphs):
    for label, r in benchmark_graphs["results"].items():
        assert r["auto"] == r["expected"], f"{label}: auto said {r['auto']}"
        assert r["brute"] == r["expected"], f"{label}: brute said {r['brute']}"
        assert r["brute_time"] < 5.0, f"{label}: brute took {r['brute_time']:.2f}s"


def test_04_debug_invariants_clean(median_workload, arbitrary_workload, benchmark_graphs):
    violations = (
        median_workload["violations"]
        + arbitrary_workload["violations"]
        + benchmark_graphs["violations"]
    )
    assert not violations, "\n".join(violations)


def test_05_median_laws():
    rng = random.Random(5)
    span = 10**6
    for i in range(100_000):
        d = 1 + i % 10
        x, y = rng.randint(-span, span), rng.randint(-span, span)
        args = [x, x, y]
        rng.shuffle(args)
        assert modular_median(d, *args) == x or x == y
    for i in range(100_000):
        d = 1 + i % 10
        x = rng.randint(-span, span)
        assert modular_median(d, x, x, x) == x
    for i in range(100_000):
        d = 1 + i % 10
        x, y, z = (rng.randint(-span, span) for _ in range(3))
        s = rng.randint(-span, span)
        assert modular_median(d, x + s, y + s, z + s) == modular_median(d, x, y, z) + s


def test_06_windowed_verdicts_uncontradicted():
    for t in FIXTURE_TEMPLATES:
        combos = [(d, rel) for d in (1, 2) for rel in t.relations]
        per_combo = -(-100_000 // len(combos))
        for seed, (d, rel) in enumerate(combos):
            verdict = preserves_relation(d, rel)
            witness = random_preservation_trials(d, rel, trials=per_combo, seed=seed)
            if verdict.preserved:
                assert witness is None, (
                    f"windowed check accepted d={d} on {t.name}.{rel.name} "
                    f"but random trials found {witness}"
                )


def test_07_ternary_median_relations_two_decomposable():
    checked = 0
    for t in FIXTURE_TEMPLATES:
        if not any(rel.arity >= 3 for rel in t.relations):
            continue
        if find_modular_median(t) is None:
            continue
        for rel in t.relations:
            if rel.arity < 3:
                continue
            start = time.perf_counter()
            decomposable, witness = check_two_decomposable(rel)
            elapsed = time.perf_counter() - start
            assert decomposable and witness is None, f"{t.name}.{rel.name}: {witness}"
            assert elapsed < 10.0, f"{t.name}.{rel.name}: took {elapsed:.2f}s"
            checked += 1
    assert checked >= 2


def test_08_endomorphism_fixtures():
    assert is_endomorphism(ENDO1, DIST13).ok
    classification = classify_endomorphism(ENDO1, DIST13)
    assert classification.kind == PERIODIC
    assert classification.direction == 1
    assert classification.minimal_stable == 3
    assert analysis.max_distance_or_zero(DIST13) == 3
    assert 3 % classification.minimal_stable == 0

    found = search_periodic_endomorphism(
        DIST136_3, max_period=4, value_window=8, drift_filter=(0,)
    )
    assert found is None

    reduced = reduce_template(DIST136_3, 3)
    assert reduced.relations[0].offset_tuples == ((-2,), (-1,), (1,), (2,))
    assert reduced.relations[1].offset_tuples == ((-1,), (1,))


def test_09_stretch_and_orbit_inequality():
    assert analysis.stretch_constant(DIST13) == 6
    assert analysis.stretch_constant(DIST12) == 2
    rng = random.Random(9)
    stretch = analysis.stretch_constant(DIST13)
    for _ in range(10_000):
        x, y = rng.randint(-500, 500), rng.randint(-500, 500)
        lhs = analysis.graph_distance(DIST13, ENDO1(x), ENDO1(y))
        rhs = analysis.graph_distance(DIST13, x, y) + stretch
        assert lhs <= rhs, f"x={x} y={y}: {lhs} > {rhs}"


def test_10_cli_byte_determinism(tmp_path):
    paths = {}
    docs = {
        "t13.json": template_to_dict(DIST13),
        "t12.json": template_to_dict(DIST12),
        "t136.json": template_to_dict(DIST136_3),
        "tri.json": instance_to_dict(graph_instance("dist12", 3, complete_edges(3))),
        "k4.json": instance_to_dict(graph_instance("dist12", 4, complete_edges(4))),
        "petersen.json": instance_to_dict(graph_instance("dist12", 10, petersen_edges())),
        "k3_13.json": instance_to_dict(graph_instance("dist13", 3, complete_edges(3))),
        "pair13.json": instance_to_dict(graph_instance("dist13", 2, ((0, 1),))),
        "good.json": {"values": [0, 3]},
        "bad.json": {"values": [0, 2]},
    }
    for name, doc in docs.items():
        path = tmp_path / name
        path.write_text(to_json(doc))
        paths[name] = str(path)
    spec_path = tmp_path / "endo1.txt"
    spec_path.write_text("p=3; values=0,1,0; drift=+1\n")
    paths["endo1.txt"] = str(spec_path)

    commands = [
        ["analyze", paths["t13.json"]],
        ["analyze", paths["t12.json"]],
        ["analyze", paths["t136.json"]],
        ["solve", paths["t12.json"], paths["tri.json"], "--stats"],
        ["solve", paths["t12.json"], paths["k4.json"]],
        ["solve", paths["t12.json"], paths["k4.json"], "--mode", "consistency", "--stats"],
        ["solve", paths["t12.json"], paths["petersen.json"], "--stats"],
        ["solve", paths["t13.json"], paths["k3_13.json"]],
        ["verify", paths["t13.json"], paths["pair13.json"], paths["good.json"]],
        ["verify", paths["t13.json"], paths["pair13.json"], paths["bad.json"]],
        ["poly", paths["t13.json"], "--trials", "50"],
        ["poly", paths["t12.json"]],
        ["endo", "check", paths["t13.json"], "--spec", paths["endo1.txt"]],
        ["endo", "search", paths["t13.json"]],
        ["endo", "search", paths["t136.json"],
         "--max-period", "4", "--value-window", "8", "--drift", "0"],
        ["endo", "reduce", paths["t136.json"], "--q", "3"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "distcsp.cli", *argv], capture_output=True
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode, argv
        assert runs[0].stdout == runs[1].stdout, argv
        if runs[0].stdout:
            json.loads(runs[0].stdout)
