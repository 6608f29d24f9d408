"""The four workloads: seeded inputs, the op issued per input, and its check.

A workload yields rounds: fixed lists of plain-data cases whose composition
is the same in every round and for every seed, so that throughput and
percentiles compare like with like; the seed picks the concrete inputs
(labelings, random graphs, random templates, documents).  Each op is one
call a library or CLI user would make, issued by a single caller that waits
for the answer (a closed loop with one client).  Cases are turned into
distcsp objects (or JSON files, for ``cli``) before the op's clock starts,
and every answer is judged afterwards by ``oracles``, off the clock.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import oracles

CHILD_TIMEOUT_S = 60


@dataclass
class Case:
    label: str
    data: dict = field(default_factory=dict)


@dataclass
class Judged:
    decided: bool
    problem: str | None = None


def import_distcsp() -> SimpleNamespace:
    import distcsp
    from distcsp import analysis, brute, cli, endomorphism, formats, model, polymorphism, solver

    return SimpleNamespace(
        distcsp=distcsp,
        analysis=analysis,
        brute=brute,
        cli=cli,
        endomorphism=endomorphism,
        formats=formats,
        model=model,
        polymorphism=polymorphism,
        solver=solver,
    )


def binary(name: str, offsets) -> tuple:
    return (name, 2, tuple((o,) for o in offsets))


def build_template(api, name: str, relations) -> object:
    return api.model.Template(
        name,
        tuple(api.model.RelationDef(r, arity, tuple(tuples)) for r, arity, tuples in relations),
    )


def build_graph_instance(api, rel: str, n: int, edges) -> object:
    return api.model.Instance(
        n, tuple(api.model.Constraint(rel, (a, b)) for a, b in edges)
    )


def shuffle_edges(edges, rng) -> list[tuple[int, int]]:
    """Edges in random orientation and order."""
    out = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]
    rng.shuffle(out)
    return out


def relabel(n: int, edges, rng) -> list[tuple[int, int]]:
    """Edges under a random vertex permutation, orientation and order."""
    perm = rng.sample(range(n), n)
    return shuffle_edges([(perm[a], perm[b]) for a, b in edges], rng)


def path_edges(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def grid_edges(rows: int, cols: int):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def random_connected_graph(n: int, rng) -> list[tuple[int, int]]:
    """Random spanning tree plus random extra edges, about 1.6-2.4 n in all."""
    m = min(round(rng.uniform(1.6, 2.4) * n), n * (n - 1) // 2)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    rng.shuffle(rest)
    edges.update(rest[: m - len(edges)])
    return relabel(n, sorted(edges), rng)


DIST13 = binary("dist13", (-3, -1, 1, 3))
DIST12 = binary("dist12", (-2, -1, 1, 2))


class Workload:
    """Shared driver hooks; subclasses define the cases and the op."""

    name = ""
    tail_pct = 0  # fixed per workload: at least ten latencies lie beyond it at baseline
    repeats = 3  # issues of each case per latency sample, see run.measure
    trace_rounds = 1

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def rounds(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            yield self.make_round(rng)

    def make_round(self, rng) -> list[Case]:
        raise NotImplementedError

    def write_documents(self) -> None:
        """Inputs that must exist as files before set-up; none by default."""

    def warm_up(self, api) -> None:
        raise NotImplementedError

    def prepare(self, api, case: Case):
        raise NotImplementedError

    def run(self, api, prepared):
        raise NotImplementedError

    def judge(self, case: Case, result) -> Judged:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Paths(Workload):
    """Consistency-mode solve over the median-closed dist13 = {+-1, +-3}.

    Paths, even cycles and grids are bipartite and so satisfiable (put the
    two sides at 0 and 1); odd cycles are unsatisfiable, since an odd number
    of odd steps cannot sum to zero.  The expected verdict is therefore known
    by construction.  Variables keep their natural numbering (along the path
    or cycle, row by row in a grid) and the seed shuffles only the order and
    orientation of the constraints, which leaves the solver's work unchanged:
    a vertex permutation would move a case's cost by tens of percent and
    blur which case each percentile falls on.
    """

    name = "paths"
    tail_pct = 67.5  # mid-way through the twelfth-cheapest case, whatever the round count
    repeats = 2
    SPECS = [
        ("path", 16), ("path", 20), ("path", 24),
        ("cycle", 16), ("cycle", 20), ("cycle", 24),
        ("grid", (4, 4)), ("grid", (4, 5)), ("grid", (5, 5)),
        *(("odd_cycle", n) for n in range(17, 32, 2)),
    ]

    def make_round(self, rng):
        cases = []
        for family, size in self.SPECS:
            if family == "grid":
                n, edges = size[0] * size[1], grid_edges(*size)
            elif family == "path":
                n, edges = size, path_edges(size)
            else:
                n, edges = size, cycle_edges(size)
            cases.append(
                Case(f"{family}{n}", {"n": n, "edges": shuffle_edges(edges, rng), "sat": family != "odd_cycle"})
            )
        return cases

    def warm_up(self, api):
        t = build_template(api, "dist13", [DIST13])
        for n, edges in ((6, path_edges(6)), (5, cycle_edges(5))):
            api.solver.solve(build_graph_instance(api, "dist13", n, edges), t, mode="consistency")

    def prepare(self, api, case):
        t = build_template(api, "dist13", [DIST13])
        return build_graph_instance(api, "dist13", case.data["n"], case.data["edges"]), t

    def run(self, api, prepared):
        inst, t = prepared
        return api.solver.solve(inst, t, mode="consistency")

    def judge(self, case, verdict):
        return judge_graph_verdict(case, verdict, case.data["sat"], frozenset((-3, -1, 1, 3)))


def judge_graph_verdict(case, verdict, expected_sat: bool, allowed) -> Judged:
    status = verdict.status
    if status == "unknown":
        return Judged(False)
    if status == "sat" and not expected_sat:
        return Judged(True, f"{case.label}: sat, expected unsat")
    if status == "unsat" and expected_sat:
        return Judged(True, f"{case.label}: unsat, expected sat")
    if status == "sat" and not oracles.edge_witness_ok(
        case.data["n"], case.data["edges"], verdict.witness, allowed
    ):
        return Judged(True, f"{case.label}: witness {verdict.witness} violates an edge")
    if status not in ("sat", "unsat"):
        return Judged(False, f"{case.label}: status {status!r}")
    return Judged(True)


class Coloring(Workload):
    """Auto-mode solve of dist12 = {+-1, +-2} on random connected graphs.

    On a graph, dist12 is 3-colourability (x mod 3 is a proper colouring, and
    a colouring is a solution), which propagation rarely settles, so most ops
    take the exhaustive fallback.  One graph of each size 6..14 per round;
    sizes 13 and 14 pass the fallback's 10^8 search-space cap and come back
    unknown, which shows as decided_ratio below 1.
    """

    name = "coloring"
    tail_pct = 90
    trace_rounds = 12
    SIZES = range(6, 15)

    def make_round(self, rng):
        return [
            Case(f"graph{n}", {"n": n, "edges": random_connected_graph(n, rng)})
            for n in self.SIZES
        ]

    def warm_up(self, api):
        t = build_template(api, "dist12", [DIST12])
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for n, edges in ((4, k4), (5, cycle_edges(5))):  # K4 takes the fallback
            api.solver.solve(build_graph_instance(api, "dist12", n, edges), t)

    def prepare(self, api, case):
        t = build_template(api, "dist12", [DIST12])
        return build_graph_instance(api, "dist12", case.data["n"], case.data["edges"]), t

    def run(self, api, prepared):
        inst, t = prepared
        return api.solver.solve(inst, t)

    def judge(self, case, verdict):
        if verdict.status == "unknown":
            return Judged(False)
        expected = oracles.three_colourable(case.data["n"], case.data["edges"])
        return judge_graph_verdict(case, verdict, expected, frozenset((-2, -1, 1, 2)))


FIXTURES = [
    ("dist13", [DIST13]),
    ("dist12", [DIST12]),
    ("diff13", [binary("diff13", (1, 3))]),
    ("shift1", [binary("shift1", (1,))]),
    ("dist136_3", [binary("dist136", (-6, -3, -1, 1, 3, 6)), binary("dist3", (-3, 3))]),
    ("chain3", [("chain3", 3, ((1, 2),))]),
    ("twodec_true", [("r", 3, ((0, 0), (0, 1), (1, 1)))]),
    ("twodec_false", [("r", 3, ((0, 1), (1, 0), (1, 1)))]),
]
# answers the fixtures must get: modulus (None for no median) or endomorphism found
FIXTURE_MODULUS = {"dist13": 2, "diff13": 2, "dist12": None}
FIXTURE_HAS_ENDOMORPHISM = {"dist136_3"}

WARM_TEMPLATES = [
    ("warm_a", [binary("r", (-2, 1, 3))]),
    ("warm_b", [("r", 3, ((1, 2), (2, 1), (-1, 1)))]),
    ("warm_c", [binary("r", (-4, -1, 2)), binary("s", (3,))]),
]


def content_key(relations) -> tuple:
    return tuple(sorted((arity, tuple(sorted(set(tuples)))) for _, arity, tuples in relations))


def residue_run(rng, d: int, bound: int = 4) -> tuple[int, ...]:
    """A contiguous run of one residue class mod d inside [-bound, bound]."""
    r = rng.randrange(d)
    values = [v for v in range(-bound, bound + 1) if v % d == r]
    lo = rng.randrange(len(values))
    return tuple(values[lo : rng.randrange(lo, len(values)) + 1])


def random_template(rng, shape: tuple[str, ...]) -> list:
    """One relation per entry of ``shape``.

    "run" is a binary residue run and "box" a ternary box of two runs, each
    closed under m_d for its d; "bin" and "tern" are one to five random
    binary or ternary offset tuples with no closure guarantee.
    """
    relations = []
    for idx, kind in enumerate(shape):
        name = f"r{idx}"
        if kind == "run":
            relations.append(binary(name, residue_run(rng, rng.choice((1, 2, 3)))))
        elif kind == "box":
            d = rng.choice((1, 2, 3))
            a, b = residue_run(rng, d)[:2], residue_run(rng, d)[:2]
            relations.append((name, 3, tuple((x, y) for x in a for y in b)))
        else:
            arity = 2 if kind == "bin" else 3
            tuples = {
                tuple(rng.randint(-4, 4) for _ in range(arity - 1))
                for _ in range(rng.randint(1, 5))
            }
            relations.append((name, arity, tuple(sorted(tuples))))
    return relations


def endo_bounds(max_distance: int) -> tuple[int, int]:
    """Bounded endomorphism search: periods up to min(D, 3), values within min(2D, 6)."""
    return min(max_distance, 3), min(2 * max_distance, 6)


class Templates(Workload):
    """Template analysis: distances, modular median, 2-decomposability, endomorphisms.

    The fixture templates come first, then seeded random templates of two
    kinds in turn (median-closed pieces, arbitrary tuples).  No two templates
    of a run share their content, so every analysis is a first sight.  An op
    counts as decided when it finds a certificate: a modulus or an
    endomorphism.
    """

    name = "templates"
    tail_pct = 90
    repeats = 1  # a repeat would be a second sight of the template
    trace_rounds = 4
    # every batch of random templates has these shapes, so that seeds differ
    # in offsets, not in how many large templates they draw
    SHAPES = [("run",), ("box",), ("run", "run"), ("run",), ("run", "box"),
              ("bin",), ("tern",), ("bin", "bin"), ("bin",), ("bin", "tern")]  # fmt: skip

    def rounds(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        seen = {content_key(rels) for _, rels in WARM_TEMPLATES}
        pending = list(FIXTURES)
        for _, rels in pending:
            seen.add(content_key(rels))
        count = 0
        while True:
            while len(pending) < len(self.SHAPES):
                rels = random_template(rng, self.SHAPES[count % len(self.SHAPES)])
                key = content_key(rels)
                if key in seen or not oracles.realized_distances(
                    [(a, t) for _, a, t in rels]
                ):
                    continue
                seen.add(key)
                count += 1
                pending.append((f"t{count}", rels))
            yield [Case(name, {"relations": rels}) for name, rels in pending]
            pending = []

    def warm_up(self, api):
        for name, rels in WARM_TEMPLATES:
            self.run(api, build_template(api, name, rels))

    def prepare(self, api, case):
        return build_template(api, case.label, case.data["relations"])

    def run(self, api, t):
        report = api.analysis.analyze_template(t)
        modulus = api.polymorphism.find_modular_median(t)
        decompositions = [api.polymorphism.check_two_decomposable(rel) for rel in t.relations]
        period, window = endo_bounds(report.max_distance)
        spec = api.endomorphism.search_periodic_endomorphism(
            t, max_period=period, value_window=window
        )
        return report, modulus, decompositions, spec

    def judge(self, case, result):
        report, modulus, decompositions, spec = result
        relations = [(arity, tuples) for _, arity, tuples in case.data["relations"]]
        name = case.label
        decided = modulus is not None or spec is not None
        distances, biggest, connected, lengths, stretch = oracles.analysis_expected(relations)
        if (
            tuple(report.distances) != distances
            or report.max_distance != biggest
            or report.connected != connected
            or dict(report.path_lengths) != lengths
            or report.stretch_bound != stretch
        ):
            return Judged(decided, f"{name}: analysis {report} disagrees with the oracle")
        if modulus is not None:
            rng = random.Random(f"median:{name}:{self.seed}")
            bad = oracles.median_violation(modulus, relations, rng)
            if bad is not None:
                return Judged(decided, f"{name}: m_{modulus} escapes on {bad}")
        for (arity, tuples), (ok, candidate) in zip(relations, decompositions):
            if not ok and not oracles.decomposition_counterexample_ok(arity, tuples, candidate):
                return Judged(decided, f"{name}: bad 2-decomposability counterexample {candidate}")
            if not ok and modulus is not None:
                return Judged(decided, f"{name}: median {modulus} but not 2-decomposable")
        if spec is not None:
            if not oracles.is_endomorphism(spec.period, spec.base_values, spec.drift, relations):
                return Judged(decided, f"{name}: {spec} is not an endomorphism")
            if oracles.is_translation_or_reflection(spec.period, spec.base_values, spec.drift):
                return Judged(decided, f"{name}: {spec} is a plain translation or reflection")
        if name in FIXTURE_MODULUS and modulus != FIXTURE_MODULUS[name]:
            return Judged(decided, f"{name}: modulus {modulus}, expected {FIXTURE_MODULUS[name]}")
        if name in FIXTURE_HAS_ENDOMORPHISM and spec is None:
            return Judged(decided, f"{name}: no endomorphism found")
        return Judged(decided)


@dataclass
class Child:
    stdout: bytes
    exit_code: int
    seconds: float
    maxrss_mb: float


DRIFT_TEXT = {1: "+1", -1: "-1", 0: "0"}


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def run_child(argv, cwd: Path, env: dict) -> Child:
    """Run one process to completion and collect its own resource usage."""
    start = time.perf_counter()
    with open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(stdout, proc.returncode, seconds, usage.ru_maxrss / 1024)


class Cli(Workload):
    """Sequential ``python -m distcsp.cli`` processes on small documents.

    One round runs solve on a dist13 path or cycle (sat), on an odd cycle
    (unsat) and on a small dist12 graph (auto mode), then analyze, poly and
    endo check on seeded templates.  The documents are the same in every
    round, so every report must repeat byte for byte.
    """

    name = "cli"
    tail_pct = 75
    trace_rounds = 3
    FORMAT_REPS = 40

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.env = child_env(root)
        self.first_output: dict[tuple, bytes] = {}
        self.children_rss_mb = 0.0
        self.cases = self._cases(random.Random(f"{self.name}:{self.seed}"))

    def _cases(self, rng) -> list[Case]:
        n = rng.randrange(8, 13)
        family = rng.choice(("path", "cycle"))
        if family == "cycle" and n % 2:
            n += 1  # even cycles only
        sat_edges = relabel(n, path_edges(n) if family == "path" else cycle_edges(n), rng)
        odd = rng.choice((7, 9, 11))
        odd_edges = relabel(odd, cycle_edges(odd), rng)
        colour_n = 7
        colour_edges = random_connected_graph(colour_n, rng)
        while True:
            analyzed = random_template(rng, ("bin", "tern"))
            if oracles.realized_distances([(a, t) for _, a, t in analyzed]):
                break
        poly_template = random_template(rng, ("run",))  # so poly finds a modulus
        kind = rng.randrange(3)
        if kind == 0:
            spec = (3, (0, 1, 0), 1)  # an endomorphism of dist13
        elif kind == 1:
            spec = (1, (rng.randint(-3, 3),), -1)  # a reflection, one for any symmetric template
        else:
            p = rng.randint(1, 3)
            spec = (p, tuple(rng.randint(-3, 3) for _ in range(p)), rng.choice((-1, 0, 1)))
        return [
            Case("solve", {"template": ("dist13", [DIST13]), "graph": (n, sat_edges),
                           "expect": 0, "allowed": (-3, -1, 1, 3), "mode": "consistency"}),
            Case("solve", {"template": ("dist13", [DIST13]), "graph": (odd, odd_edges),
                           "expect": 1, "allowed": (-3, -1, 1, 3), "mode": "consistency"}),
            Case("solve", {"template": ("dist12", [DIST12]), "graph": (colour_n, colour_edges),
                           "expect": 0 if oracles.three_colourable(colour_n, colour_edges) else 1,
                           "allowed": (-2, -1, 1, 2), "mode": "auto"}),
            Case("analyze", {"template": ("analyzed", analyzed)}),
            Case("poly", {"template": ("poly", poly_template)}),
            Case("endo_check", {"template": ("dist13", [DIST13]), "spec": spec}),
        ]  # fmt: skip

    def make_round(self, rng):
        return self.cases

    def write_documents(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i, case in enumerate(self.cases):
            name, rels = case.data["template"]
            doc = {
                "name": name,
                "relations": [
                    {"name": r, "arity": a, "tuples": [list(v) for v in t]} for r, a, t in rels
                ],
            }
            args = [f"t{i}.json"]
            (self.workdir / args[0]).write_text(json.dumps(doc))
            if case.label == "solve":
                n, edges = case.data["graph"]
                rel = rels[0][0]
                inst = {
                    "variables": n,
                    "constraints": [{"relation": rel, "args": [a, b]} for a, b in edges],
                }
                args.append(f"i{i}.json")
                (self.workdir / args[1]).write_text(json.dumps(inst))
                argv = ["solve", *args, "--mode", case.data["mode"]]
            elif case.label == "endo_check":
                p, values, drift = case.data["spec"]
                text = f"p={p}; values={','.join(map(str, values))}; drift={DRIFT_TEXT[drift]}"
                (self.workdir / f"s{i}.txt").write_text(text + "\n")
                argv = ["endo", "check", args[0], "--spec", f"s{i}.txt"]
            else:
                argv = [case.label, args[0]]
            case.data["argv"] = argv

    def warm_up(self, api):
        for case in self.cases:
            self.run(api, case)

    def prepare(self, api, case):
        return case

    def run(self, api, case):
        argv = [sys.executable, "-m", "distcsp.cli", *case.data["argv"]]
        return run_child(argv, self.workdir, self.env)

    def judge(self, case, child: Child):
        # only measured ops are judged, so warm-up processes stay out of the peak
        self.children_rss_mb = max(self.children_rss_mb, child.maxrss_mb)
        key = tuple(case.data["argv"])
        first = self.first_output.setdefault(key, child.stdout)
        label = " ".join(case.data["argv"])
        if child.stdout != first:
            return Judged(False, f"{label}: report differs from the first run")
        try:
            report = json.loads(child.stdout)
        except ValueError:
            return Judged(False, f"{label}: exit {child.exit_code}, stdout is not JSON")
        code = child.exit_code
        rels = [(a, t) for _, a, t in case.data["template"][1]]
        if case.label == "solve":
            expected = {0: "sat", 1: "unsat"}[case.data["expect"]]
            if code == 2 and report.get("verdict") == "unknown":
                return Judged(False)
            if code != case.data["expect"] or report.get("verdict") != expected:
                return Judged(True, f"{label}: exit {code} {report}, expected {expected}")
            n, edges = case.data["graph"]
            if expected == "sat" and not oracles.edge_witness_ok(
                n, edges, report.get("witness"), frozenset(case.data["allowed"])
            ):
                return Judged(True, f"{label}: bad witness {report.get('witness')}")
            return Judged(True)
        if case.label == "analyze":
            distances, biggest, connected, lengths, stretch = oracles.analysis_expected(rels)
            expected = {
                "distances": list(distances),
                "max_distance": biggest,
                "connected": connected,
                "path_lengths": {str(q): lengths[q] for q in sorted(lengths)},
                "stretch_bound": stretch,
            }
            if code != 0 or report != {"analysis": expected}:
                return Judged(True, f"{label}: exit {code} {report}, expected {expected}")
            return Judged(True)
        if case.label == "poly":
            if code == 2 and report.get("found") is False:
                return Judged(False)
            modulus = report.get("modulus")
            if code != 0 or not isinstance(modulus, int):
                return Judged(True, f"{label}: exit {code} {report}")
            rng = random.Random(f"median:cli:{self.seed}")
            bad = oracles.median_violation(modulus, rels, rng)
            if bad is not None:
                return Judged(True, f"{label}: m_{modulus} escapes on {bad}")
            return Judged(True)
        p, values, drift = case.data["spec"]
        is_endo = oracles.is_endomorphism(p, values, drift, rels)
        if code != (0 if is_endo else 1) or report.get("endomorphism") is not is_endo:
            return Judged(True, f"{label}: exit {code} {report}, endomorphism is {is_endo}")
        return Judged(True)

    def peak_rss_mb(self):
        return self.children_rss_mb

    def format_pass(self, api) -> int:
        """In-process parse and canonical serialization of the cli documents."""
        docs = []
        for case in self.cases:
            texts = [(self.workdir / a).read_text() for a in case.data["argv"] if a.endswith(".json")]
            reply = json.loads(self.first_output[tuple(case.data["argv"])])
            docs.append((texts, reply))
        for _ in range(self.FORMAT_REPS):
            for texts, reply in docs:
                t = api.formats.parse_template(texts[0])
                if len(texts) > 1:
                    api.formats.parse_instance(texts[1], t)
                api.formats.to_json(reply)
        return self.FORMAT_REPS * len(docs)


WORKLOADS = {w.name: w for w in (Paths, Coloring, Templates, Cli)}
