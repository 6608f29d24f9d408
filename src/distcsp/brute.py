"""Exhaustive decision procedure; it shares only the component numbering with the solver.

Satisfiable components always have a witness whose values stay within
(m-1) * D of the root, where m is the component size and D the largest
realized distance: along a spanning tree of the co-occurrence graph,
adjacent variables constrained by an orbit differ by at most D, and
variables adjacent only through FULL constraints can be set equal.  Scanning
that window completely is therefore a full decision procedure, not a
heuristic.  Candidates are the values allowed by the finite pair sets to
lower variables, ANDed as plain-int bitmasks; a binary constraint on two
distinct variables is its own pair set and needs no per-candidate check.
"""

from __future__ import annotations

from itertools import combinations

from .analysis import max_distance_or_zero
from .errors import CapExceededError, InputError
from .model import DEFAULT_NODE_CAP, Instance, Template, projected_offsets, tuple_in_relation
from .solver import split_components


def verify_assignment(
    inst: Instance, t: Template, values: tuple[int, ...]
) -> tuple[bool, int | None]:
    """Check every constraint; returns (ok, index of first failing constraint)."""
    inst.validate_against(t)
    if len(values) != inst.num_vars:
        raise InputError(
            f"assignment has {len(values)} values for {inst.num_vars} variables"
        )
    for idx, c in enumerate(inst.constraints):
        rel = t.relation(c.relation)
        if not tuple_in_relation(rel, tuple(values[a] for a in c.args)):
            return False, idx
    return True, None


def search_space_estimate(inst: Instance, t: Template) -> int:
    """Upper bound on assignments the backtracking search can visit.

    Every non-root variable reached through a constraint with offset tuples
    branches over at most 2D + 1 values; variables adjacent only through
    FULL constraints fall back to the whole window.  Components are searched
    one after another, so their estimates add up.
    """
    inst.validate_against(t)
    return _estimate(_component_plans(inst, t), max_distance_or_zero(t))


def _estimate(plans, biggest: int) -> int:
    total = 0
    for comp, pair_sets, _ in plans:
        # variables with a finite pair to a lower one branch over 2D + 1
        linked = len({j for _, j in pair_sets})
        window = 2 * (len(comp) - 1) * biggest + 1
        total += (2 * biggest + 1) ** linked * window ** (len(comp) - 1 - linked)
    return total


def _component_plans(inst: Instance, t: Template):
    """Per component: its variables in canonical order, finite pair sets
    of value[j] - value[i] keyed by (i, j) with i < j, and induced instance."""
    plans = []
    for comp, sub in split_components(inst):
        pair_sets: dict[tuple[int, int], frozenset[int]] = {}
        for c in sub.constraints:
            rel = t.relation(c.relation)
            if not rel.has_tuples:
                continue
            for pi, pj in combinations(range(len(c.args)), 2):
                a, b = c.args[pi], c.args[pj]
                if a == b:
                    continue
                if a < b:
                    allowed = projected_offsets(rel, pi + 1, pj + 1)
                else:
                    a, b, allowed = b, a, projected_offsets(rel, pj + 1, pi + 1)
                pair_sets[a, b] = pair_sets.get((a, b), allowed) & allowed
        plans.append((comp, pair_sets, sub))
    return plans


def brute_solve(
    inst: Instance, t: Template, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[int, ...] | None:
    """Depth-first search for the least witness under the search order, or None.

    Components are searched independently in index order, each with its
    lowest variable pinned to 0 and the others scanned ascending over the
    complete window.
    Binary projections of the covering constraints prune candidates early;
    they are implied constraints, so pruning never loses a witness.  Raises
    CapExceededError instead of starting a search estimated over node_cap.
    """
    inst.validate_against(t)
    for c in inst.constraints:
        if t.relation(c.relation).is_empty:
            return None
    plans = _component_plans(inst, t)
    biggest = max_distance_or_zero(t)
    estimate = _estimate(plans, biggest)
    if estimate > node_cap:
        raise CapExceededError(
            f"search space estimate {estimate} exceeds the cap {node_cap}"
        )
    values = [0] * inst.num_vars
    for comp, pair_sets, sub in plans:
        half = (len(comp) - 1) * biggest
        # links[j] holds (i, lo, mask) for each pair set to a lower i: bit k
        # set when value[j] - value[i] = lo + k; the estimate bounds the width
        links: list[list[tuple[int, int, int]]] = [[] for _ in comp]
        for (i, j), offs in pair_sets.items():
            lo = min(offs, default=0)
            packed = bytearray((max(offs, default=lo) - lo) // 8 + 1)
            for s in offs:
                packed[(s - lo) // 8] |= 1 << (s - lo) % 8
            links[j].append((i, lo, int.from_bytes(packed, "little")))
        # check each constraint once, at the assignment of its highest variable,
        # unless it is FULL or a binary one that its own pair set enforces
        due: list[list] = [[] for _ in comp]
        for c in sub.constraints:
            rel = t.relation(c.relation)
            if rel.has_tuples and (rel.arity > 2 or c.args[0] == c.args[1]):
                due[max(c.args)].append((rel, c.args))
        local = [0] * len(comp)

        def domain(j: int) -> range | list[int]:
            if not links[j]:
                return range(-half, half + 1)
            # AND the masks translated by local[i], with bit 0 at value base
            base, bits = -half, -1
            for i, lo, mask in links[j]:
                shift = local[i] + lo
                if shift > base:
                    bits, base = bits >> (shift - base), shift
                bits &= mask >> (base - shift)
            out = []
            while bits and (value := base + (bits & -bits).bit_length() - 1) <= half:
                out.append(value)
                bits &= bits - 1
            return out

        # candidates[step] holds the untried values of variable step; the
        # search goes one step deeper after each value that passes and
        # backtracks when a step runs out of values
        candidates = [iter([0])]
        while candidates:
            step = len(candidates) - 1
            for value in candidates[step]:
                local[step] = value
                if not due[step] or all(
                    tuple_in_relation(rel, tuple(local[a] for a in args)) for rel, args in due[step]
                ):
                    break
            else:
                candidates.pop()
                continue
            if step + 1 == len(comp):
                break
            candidates.append(iter(domain(step + 1)))
        if not candidates:
            return None
        for g, value in zip(comp, local):
            values[g] = value
    return tuple(values)
