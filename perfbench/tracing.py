"""Layer spans recorded from outside the package.

The tracer wraps public functions of distcsp at their module boundaries for
the duration of a traced pass and restores them afterwards; nothing inside
the package changes.  Every wrapped call is a span with a name, a start, an
end and the enclosing span as its parent; the op the benchmark issues is the
root.  Self time is a span's duration minus the time its child spans cover.
Spans are folded into per-name totals in memory as they close, because the
offset-set operations alone open millions of them per pass; nothing is
written while a pass runs.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._median_templates: set = set()

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def close(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args)`` feeds ``after(state, result, error)``.

        The open/close steps are inlined: offset-set spans run millions of
        times per pass, and every call saved shrinks the tracing overhead.
        """
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapped(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            result, error = None, None
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                error = e
                raise
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if after:
                    after(state, result, error)
            return result

        return wrapped

    def counted(self, name: str, fn, when=None):
        """``fn`` counted under ``name`` without a span, optionally only while ``when()``."""
        counts = self.counts
        if when is None:

            def wrapped(*args):
                counts[name] += 1
                return fn(*args)

        else:

            def wrapped(*args):
                if when():
                    counts[name] += 1
                return fn(*args)

        return wrapped


class Patches:
    """Rebinds names in distcsp modules and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def everywhere(self, original, replacement) -> None:
        """Rebind ``original`` in every distcsp module namespace that holds it."""
        for name, module in list(sys.modules.items()):
            if name != "distcsp" and not name.startswith("distcsp."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def set(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _size(s) -> int:
    return 0 if s.offsets is None else len(s.offsets)


def install(tracer: Tracer) -> Patches:
    """Wrap the layer boundaries named in the per-layer metrics."""
    from distcsp import analysis, brute, endomorphism, formats, model, polymorphism, solver

    p = Patches()
    t = tracer
    offset = model.OffsetSet

    def add_pairs(a, b):
        t.counts["model.offset_add.pairs"] += _size(a) * _size(b)

    p.set(offset, "__add__", t.span("model.offset_add", offset.__add__, before=add_pairs))
    p.set(offset, "__and__", t.span("model.offset_and", offset.__and__))
    p.set(offset, "__neg__", t.span("model.offset_neg", offset.__neg__))
    p.set(model, "_check_int", t.counted("model.check_int", model._check_int))

    def before_propagate(matrix, *args, **kwargs):
        return matrix, matrix.stats.sweeps, matrix.stats.proper_replacements

    def after_propagate(state, result, error):
        matrix, sweeps, replacements = state
        visits = matrix.stats.sweeps - sweeps
        t.counts["solver.propagate.pair_visits"] += visits
        t.counts["solver.propagate.replacements"] += (
            matrix.stats.proper_replacements - replacements
        )
        t.counts["solver.propagate.midpoints"] += visits * max(matrix.size - 2, 0)

    def after_init(state, result, error):
        if result is not None:
            t.counts["solver.initialize_pairs.cells"] += len(result.cells)

    def after_extract(state, result, error):
        if error is None and result is None:
            t.counts["solver.extract_solution.stuck"] += 1

    def after_brute(state, result, error):
        if isinstance(error, brute.CapExceededError):
            t.counts["brute.brute_solve.cap_refusals"] += 1

    def before_median(template, *args, **kwargs):
        key = tuple((rel.arity, rel.body) for rel in template.relations)
        if key in t._median_templates:
            t.counts["polymorphism.find_modular_median.repeats"] += 1
        t._median_templates.add(key)

    wraps = [
        (solver.preprocess, "solver.preprocess", None, None),
        (solver.initialize_pairs, "solver.initialize_pairs", None, after_init),
        (solver.propagate, "solver.propagate", before_propagate, after_propagate),
        (solver.extract_solution, "solver.extract_solution", None, after_extract),
        (brute.brute_solve, "brute.brute_solve", None, after_brute),
        (brute.verify_assignment, "brute.verify_assignment", None, None),
        (polymorphism.find_modular_median, "polymorphism.find_modular_median", before_median, None),
        (polymorphism.preserves_relation, "polymorphism.preserves_relation", None, None),
        (polymorphism.check_two_decomposable, "polymorphism.check_two_decomposable", None, None),
        (endomorphism.search_periodic_endomorphism, "endomorphism.search_periodic_endomorphism", None, None),
        (endomorphism.is_endomorphism, "endomorphism.is_endomorphism", None, None),
        (analysis.analyze_template, "analysis.analyze_template", None, None),
        (formats.parse_template, "formats.parse", None, None),
        (formats.parse_instance, "formats.parse", None, None),
        (formats.to_json, "formats.to_json", None, None),
    ]
    for fn, name, before, after in wraps:
        p.everywhere(fn, t.span(name, fn, before, after))
    p.everywhere(
        analysis.gaifman_distances,
        t.counted("analysis.gaifman_distances", analysis.gaifman_distances),
    )
    # constraint checks of the exhaustive search, not of witness verification
    p.set(
        brute,
        "tuple_in_relation",
        t.counted(
            "brute.constraint_checks",
            brute.tuple_in_relation,
            when=lambda: t.current() == "brute.brute_solve",
        ),
    )
    return p


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer values (without the cli probes) from one traced pass."""

    def calls(name):
        return t.calls[name]

    def self_s(name):
        return t.self_s[name]

    visits = t.counts["solver.propagate.midpoints"]
    medians = calls("polymorphism.find_modular_median")
    return {
        "model.offset_add.calls": calls("model.offset_add"),
        "model.offset_add.self_s": self_s("model.offset_add"),
        "model.offset_add.pairs": t.counts["model.offset_add.pairs"],
        "model.offset_and.calls": calls("model.offset_and"),
        "model.offset_and.self_s": self_s("model.offset_and"),
        "model.offset_neg.calls": calls("model.offset_neg"),
        "model.check_int.calls": t.counts["model.check_int"],
        "solver.propagate.self_s": self_s("solver.propagate"),
        "solver.propagate.pair_visits": t.counts["solver.propagate.pair_visits"],
        "solver.propagate.replacements": t.counts["solver.propagate.replacements"],
        "solver.propagate.useful_ratio": (
            t.counts["solver.propagate.replacements"] / visits if visits else 0.0
        ),
        "solver.initialize_pairs.self_s": self_s("solver.initialize_pairs"),
        "solver.initialize_pairs.cells": t.counts["solver.initialize_pairs.cells"],
        "solver.preprocess.self_s": self_s("solver.preprocess"),
        "solver.extract_solution.self_s": self_s("solver.extract_solution"),
        "solver.extract_solution.stuck": t.counts["solver.extract_solution.stuck"],
        "brute.brute_solve.calls": calls("brute.brute_solve"),
        "brute.brute_solve.self_s": self_s("brute.brute_solve"),
        "brute.brute_solve.cap_refusals": t.counts["brute.brute_solve.cap_refusals"],
        "brute.constraint_checks": t.counts["brute.constraint_checks"],
        "brute.verify_assignment.self_s": self_s("brute.verify_assignment"),
        "polymorphism.find_modular_median.calls": medians,
        "polymorphism.find_modular_median.self_s": self_s("polymorphism.find_modular_median"),
        "polymorphism.find_modular_median.repeat_ratio": (
            t.counts["polymorphism.find_modular_median.repeats"] / medians if medians else 0.0
        ),
        "polymorphism.preserves_relation.calls": calls("polymorphism.preserves_relation"),
        "polymorphism.preserves_relation.self_s": self_s("polymorphism.preserves_relation"),
        "polymorphism.check_two_decomposable.self_s": self_s(
            "polymorphism.check_two_decomposable"
        ),
        "endomorphism.search_periodic_endomorphism.self_s": self_s(
            "endomorphism.search_periodic_endomorphism"
        ),
        "endomorphism.is_endomorphism.calls": calls("endomorphism.is_endomorphism"),
        "endomorphism.is_endomorphism.self_s": self_s("endomorphism.is_endomorphism"),
        "analysis.analyze_template.self_s": self_s("analysis.analyze_template"),
        "analysis.gaifman_distances.calls": t.counts["analysis.gaifman_distances"],
        "formats.parse.self_s": self_s("formats.parse"),
        "formats.to_json.self_s": self_s("formats.to_json"),
    }
