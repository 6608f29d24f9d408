"""Exhaustive decision procedure: one depth-first search over a complete window.

Satisfiable components always have a witness whose values stay within
(m-1) * D of the root, where m is the component size and D the largest
realized distance: along a spanning tree of the co-occurrence graph,
adjacent variables constrained by an orbit differ by at most D, and
variables adjacent only through FULL constraints can be set equal.  Scanning
that window completely is therefore a full decision procedure, not a
heuristic.  Candidates are the values allowed by the finite pair sets to
lower variables, ANDed as plain-int bitmasks; a binary constraint on two
distinct variables is its own pair set and needs no per-candidate check.

It shares only the component numbering with the solver, and none of its
search.  Called directly it is the oracle; `solve` hands it one component
of its own split as a renumbered instance, in brute mode or when the span
cap refuses propagation.  Either way, its pair links are the constraints'
projections, built in one pass with the constraints due at each variable
and each relation packed once per call, and it skips mirrored subtrees of
components closed under negation.
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
    biggest = max_distance_or_zero(t)
    return sum(_plan(sub, t, biggest)[0] for _, sub in split_components(inst))


def _plan(sub: Instance, t: Template, biggest: int) -> tuple[int, bool]:
    """Window search space estimate of a component, and whether every
    relation it names is closed under negation."""
    linked: set[int] = set()  # paired with a lower variable: 2D + 1 values
    mirror = True
    for c in sub.constraints:
        rel = t.relation(c.relation)
        mirror = mirror and rel.negation_closed
        if rel.has_tuples:
            low = min(c.args)
            linked.update(a for a in c.args if a != low)
    window = 2 * (sub.num_vars - 1) * biggest + 1
    return (2 * biggest + 1) ** len(linked) * window ** (sub.num_vars - 1 - len(linked)), mirror


def _projection_links(sub: Instance, t: Template, plans: dict):
    """In one pass over the constraints of a validated component with no
    EMPTY one: per variable j, (i, lo, mask) for each lower i paired with it
    by the projections, bit k set when value[j] - value[i] = lo + k is
    allowed (the masks of a pair that several constraints cover
    intersected), and the constraints due at j, their highest variable,
    which have offset tuples that their pair sets do not enforce: arity 3
    and up, or a variable twice.  plans holds, per relation name met, the
    relation, whether it is due and its coordinate pairs, packed forward and
    reversed."""
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    due: list[list] = [[] for _ in range(sub.num_vars)]
    for c in sub.constraints:
        plan = plans.get(c.relation)
        if plan is None:
            rel = t.relation(c.relation)
            coords = combinations(range(1, rel.arity + 1), 2) if rel.has_tuples else ()
            packed = [(i - 1, j - 1, _pack(rel, i, j), _pack(rel, j, i)) for i, j in coords]
            plan = plans[c.relation] = rel, rel.arity > 2 and rel.has_tuples, packed
        rel, check, packed = plan
        for i, j, forward, reverse in packed:
            a, b = c.args[i], c.args[j]
            if a == b:
                check = True
                continue
            if a > b:
                a, b, forward = b, a, reverse
            old = pairs.get((a, b))
            if old is not None:  # AND the masks, counted from the larger lo
                lo = max(old[0], forward[0])
                forward = lo, (old[1] >> (lo - old[0])) & (forward[1] >> (lo - forward[0]))
            pairs[a, b] = forward
        if check:
            due[max(c.args)].append((rel, c.args))
    links: list[list[tuple[int, int, int]]] = [[] for _ in range(sub.num_vars)]
    for (i, j), (lo, mask) in pairs.items():
        links[j].append((i, lo, mask))
    return links, due


def _pack(rel, i: int, j: int) -> tuple[int, int]:
    """(lo, mask) of the projection of rel onto coordinates (i, j)."""
    offs = projected_offsets(rel, i, j)
    lo = min(offs, default=0)
    packed = bytearray((max(offs, default=lo) - lo) // 8 + 1)
    for s in offs:
        packed[(s - lo) // 8] |= 1 << (s - lo) % 8
    return lo, int.from_bytes(packed, "little")


def brute_solve(
    inst: Instance, t: Template, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[int, ...] | None:
    """Depth-first search for the least witness under the search order, or None.

    inst is validated and split by `split_components`; `solve` hands over
    one component, as the instance that the split makes of it, which comes
    back from the split as it is.  Components are searched independently
    in index order, each with its lowest variable pinned to 0 and the
    others scanned ascending over the complete window.
    Binary projections of the covering constraints prune candidates early;
    they are implied constraints, so pruning never loses a witness.  Raises
    CapExceededError instead of starting a search estimated over node_cap.

    When every relation a component names is closed under negation, a step
    whose lower variables are all 0 tries only values <= 0, as negation
    maps solutions to solutions in the symmetric window: the least is not
    positive.
    """
    inst.validate_against(t)
    for c in inst.constraints:
        if t.relation(c.relation).is_empty:
            return None
    biggest = max_distance_or_zero(t)
    plans = [(comp, sub, *_plan(sub, t, biggest)) for comp, sub in split_components(inst)]
    estimate = sum(plan[2] for plan in plans)
    if estimate > node_cap:
        raise CapExceededError(
            f"search space estimate {estimate} exceeds the cap {node_cap}"
        )
    values = [0] * inst.num_vars
    packed: dict = {}
    for comp, sub, _, mirror in plans:
        # links[j] holds (i, lo, mask) for each finite pair set to a lower i,
        # built only once the estimate has passed
        links, due = _projection_links(sub, t, packed)
        half = (len(comp) - 1) * biggest
        local = [0] * len(comp)

        def domain(j: int, top: int) -> range | list[int]:
            if not links[j]:
                return range(-half, top + 1)
            # AND the masks translated by local[i], with bit 0 at value base
            base, bits = -half, -1
            for i, lo, mask in links[j]:
                shift = local[i] + lo
                if shift > base:
                    bits, base = bits >> (shift - base), shift
                bits &= mask >> (base - shift)
            out = []
            while bits and (value := base + (bits & -bits).bit_length() - 1) <= top:
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
            top = 0 if mirror and not any(local[: step + 1]) else half
            candidates.append(iter(domain(step + 1, top)))
        if not candidates:
            return None
        for g, value in zip(comp, local):
            values[g] = value
    return tuple(values)
