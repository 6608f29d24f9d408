"""Benchmark for distcsp: end-to-end metrics, or per-layer metrics from a trace.

Run from the repository root:

    python3 perfbench/run.py --workload paths --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for what each op is and how it is checked):

    paths      consistency-mode solve over dist13 on paths, cycles and grids
    coloring   auto-mode solve over dist12 on random graphs (3-colourability)
    templates  template analysis: distances, median, 2-decomposability, endomorphisms
    cli        ``python -m distcsp.cli`` processes on small JSON documents

With ``--trace 0`` the workload runs whole rounds of ops in a closed loop
with one caller until ``--seconds`` have passed and reports the end-to-end
metrics.  Times are expressed in units of a reference kernel timed next to
every op (see ``measure``), which cancels the machine's changing speed; the
unscaled figures are printed above the result line.  Set-up (importing
distcsp plus a warm-up that takes the lazy first paths: the first
exhaustive fallback, numpy's first use, the walk-length table) is timed in
this process and in four fresh processes, and the median is reported.

With ``--trace 1`` a fixed, seed-determined list of ops runs once untraced
and once with the layer spans of ``tracing.py`` installed; the per-layer
metrics come from the traced pass, and their counts repeat exactly for a
given seed.  Subprocess start-up costs (bare interpreter, numpy,
distcsp.cli) are measured in every traced run.  A per-layer metric of a
layer the workload never reaches reads 0.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every answer is checked by ``oracles.py``,
which shares no code with distcsp; a failed op is an exception or an answer
the oracle rejects, while an undecided answer ("unknown", or a bounded
search that found nothing) is counted in decided_ratio instead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # fresh processes that repeat the set-up, besides this one
IMPORT_PROBE_REPS = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "decided_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("self_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# End-to-end times are reported as (op time / kernel time) * this constant,
# the kernel's time on an idle CPU of the machine the baseline was recorded
# on.  Timed between ops, with caches the op has just used, the kernel
# usually reads slower than that, so scaled times run below unscaled ones;
# only their ratios across runs and commits carry meaning.
REFERENCE_NOMINAL_S = 0.0025


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python job shaped like the solver's inner loop."""
    start = perf_counter()
    a, b = tuple(range(0, 120, 3)), tuple(range(0, 90, 2))
    for _ in range(40):
        sums = tuple(sorted({x + y for x in a for y in b}))
        cells = {(i, i + 1): sums for i in range(200)}
    del cells  # built only to be timed
    return perf_counter() - start


@dataclass
class Outcome:
    durations: list[float] = field(default_factory=list)  # one scaled latency per case
    raw: list[float] = field(default_factory=list)  # the same, unscaled
    reference: list[float] = field(default_factory=list)  # kernel time per op issued
    labels: list[str] = field(default_factory=list)
    attempted: int = 0  # ops issued, repeats included
    decided: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def measure(w, api, rounds, seconds=None, repeats: int = 1, tracer=None) -> Outcome:
    """Issue the ops of whole rounds, one at a time, and judge each answer.

    ``rounds`` yields lists of (case, prepared input).  Other tenants of a
    shared machine slow everything in it down together, by up to 1.7x and
    for seconds to minutes at a time, so two things steady the latency
    recorded for a case.  The reference kernel runs (best of two) between
    consecutive ops, and each op's time is scaled by the kernel's nominal
    time over the mean of its measured times on either side, so a slow
    spell stretches both and cancels out.  And each case is issued
    ``repeats`` times in a row, keeping the fastest scaled time, since
    interference only ever adds time.  With ``seconds`` set, no new round
    starts once that much time has passed.
    """
    out = Outcome()
    start = perf_counter()
    kernel = min(reference_kernel(), reference_kernel())
    for batch in rounds:
        for case, prepared in batch:
            best, best_raw = math.inf, math.inf
            for _ in range(repeats):
                if tracer is not None:
                    tracer.open("op")
                began = perf_counter()
                try:
                    result, error = w.run(api, prepared), None
                except Exception as e:  # an op that raises is a failed op, not a crash
                    result, error = None, e
                elapsed = perf_counter() - began
                if tracer is not None:
                    tracer.close()
                before, kernel = kernel, min(reference_kernel(), reference_kernel())
                out.reference.append(kernel)
                best = min(best, elapsed * 2 * REFERENCE_NOMINAL_S / (before + kernel))
                best_raw = min(best_raw, elapsed)
                out.attempted += 1
                if error is not None:
                    out.failed += 1
                    out.problems.append(
                        f"{case.label}: " + "".join(traceback.format_exception_only(error)).strip()
                    )
                    continue
                judged = w.judge(case, result)
                out.decided += judged.decided
                if judged.problem:
                    out.failed += 1
                    out.problems.append(judged.problem)
            out.durations.append(best)
            out.raw.append(best_raw)
            out.labels.append(case.label)
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return out


def prepared_rounds(w, api, rounds):
    for cases in rounds:
        yield [(case, w.prepare(api, case)) for case in cases]


def setup(w):
    """Import distcsp and warm up.

    Returns the API, the seconds it took, and the reference kernel's time
    (best of three) just before it, which scales the sample like an op.
    """
    from workloads import import_distcsp

    w.workdir.mkdir(parents=True, exist_ok=True)
    w.write_documents()
    kernel = min(reference_kernel() for _ in range(3))
    start = perf_counter()
    api = import_distcsp()
    w.warm_up(api)
    return api, perf_counter() - start, kernel


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]  # fmt: skip
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    seconds, kernel = done.stdout.split()[-2:]
    return float(seconds), float(kernel)


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def import_probes(w) -> dict[str, float]:
    """Subprocess medians: bare interpreter, and numpy / distcsp.cli imports above it."""
    from workloads import child_env, run_child

    env = child_env(ROOT)
    codes = {"interpreter": "pass", "numpy": "import numpy", "cli": "import distcsp.cli"}
    samples: dict[str, list[float]] = {k: [] for k in codes}
    for _ in range(IMPORT_PROBE_REPS):
        for key, code in codes.items():
            child = run_child([sys.executable, "-c", code], w.workdir, env)
            if child.exit_code != 0:
                raise RuntimeError(f"python -c {code!r} exited {child.exit_code}")
            samples[key].append(child.seconds * 1000)
    p50 = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "cli.interpreter_ms": p50["interpreter"],
        "cli.numpy_import_ms": p50["numpy"] - p50["interpreter"],
        "cli.import_ms": p50["cli"] - p50["interpreter"],
    }


def end_to_end(w, seconds: float):
    api, *own_setup = setup(w)
    setups = [tuple(own_setup)] + [setup_probe(w.name, w.seed) for _ in range(SETUP_PROBES)]
    out = measure(w, api, prepared_rounds(w, api, w.rounds()), seconds, w.repeats)
    tail, beyond = percentile(out.durations, w.tail_pct)
    kernel = statistics.median(out.reference)
    notes = [
        f"op_tail_ms is p{w.tail_pct} of {len(out.durations)} latencies "
        f"(each the best of {w.repeats}), {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: read it as a maximum)"),
        f"failed_ratio {out.failed / out.attempted:.4f} ({out.failed} of {out.attempted})",
        f"set-up samples (s, unscaled): {', '.join(f'{s:.4f}' for s, _ in setups)}",
        f"reference kernel median {kernel * 1000:.4f} ms, nominal {REFERENCE_NOMINAL_S * 1000} ms",
        f"unscaled: ops_per_s {len(out.raw) / sum(out.raw):.6g}, "
        f"op_p50_ms {statistics.median(out.raw) * 1000:.6g}, "
        f"op_tail_ms {percentile(out.raw, w.tail_pct)[0] * 1000:.6g}",
    ]
    metrics = {
        "ops_per_s": len(out.durations) / sum(out.durations),
        "op_p50_ms": statistics.median(out.durations) * 1000,
        "op_tail_ms": tail * 1000,
        "decided_ratio": out.decided / out.attempted,
        "setup_s": statistics.median(s * REFERENCE_NOMINAL_S / k for s, k in setups),
        "peak_rss_mb": w.peak_rss_mb(),
    }
    return out, metrics, notes


def traced(w, seconds: float):
    from tracing import Tracer, install, layer_metrics

    api = setup(w)[0]
    cases = [c for batch in itertools.islice(w.rounds(), w.trace_rounds) for c in batch]
    plain = measure(w, api, prepared_rounds(w, api, [cases]))
    inputs = list(prepared_rounds(w, api, [cases]))  # built before the spans go in
    tracer = Tracer()
    patches = install(tracer)
    try:
        spanned = measure(w, api, inputs, tracer=tracer)
    finally:
        patches.restore()
    out = Outcome(
        plain.durations + spanned.durations,
        plain.raw + spanned.raw,
        plain.reference + spanned.reference,
        plain.labels + spanned.labels,
        plain.attempted + spanned.attempted,
        plain.decided + spanned.decided,
        plain.failed + spanned.failed,
        plain.problems + spanned.problems,
    )
    overhead = sum(spanned.durations) / sum(plain.durations)
    subcommands = {}
    if w.name == "cli":
        # the ops are other processes; what the spans can see here is the
        # in-process document handling, so the overhead is taken from that
        start = perf_counter()
        w.format_pass(api)
        untraced_s = perf_counter() - start
        tracer = Tracer()
        patches = install(tracer)
        try:
            start = perf_counter()
            w.format_pass(api)
            overhead = (perf_counter() - start) / untraced_s
        finally:
            patches.restore()
        for label in sorted(set(out.labels)):
            times = [d for d, l in zip(out.raw, out.labels) if l == label]
            subcommands[f"cli.{label}.p50_ms"] = statistics.median(times) * 1000
    metrics = layer_metrics(tracer)
    metrics.update(import_probes(w))
    for label in ("solve", "analyze", "poly", "endo_check"):
        metrics[f"cli.{label}.p50_ms"] = subcommands.get(f"cli.{label}.p50_ms", 0.0)
    metrics["trace_overhead_ratio"] = overhead
    notes = [
        f"traced pass: {spanned.attempted} ops; untraced pass: {plain.attempted} ops",
        f"reference kernel median {statistics.median(out.reference) * 1000:.4f} ms "
        f"(nominal {REFERENCE_NOMINAL_S * 1000} ms); per-layer times are unscaled",
        f"failed_ratio {out.failed / out.attempted:.4f} ({out.failed} of {out.attempted})",
    ]
    return out, metrics, notes


def environment_line(seed: int) -> str:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    numpy = sys.modules.get("numpy")
    return (
        f"commit {commit}; python {platform.python_version()}; "
        f"numpy {getattr(numpy, '__version__', 'unknown')}; nproc {os.cpu_count()}; seed {seed}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["paths", "coloring", "templates", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "distcsp" / "__init__.py").is_file():
        print(f"error: no distcsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts, so that the
    # reference kernel is timed on the CPU the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    w = WORKLOADS[args.workload](args.seed, ROOT, workdir)
    try:
        if args.setup_probe:
            _, seconds, kernel = setup(w)
            print(repr(seconds), repr(kernel))
            return 0
        out, metrics, notes = (traced if args.trace else end_to_end)(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {w.name}: {environment_line(args.seed)}")
    for note in notes:
        print(note)
    for problem in out.problems[:20]:
        print(f"FAILED {problem}")
    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in metrics}
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
