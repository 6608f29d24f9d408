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

Called directly, as the oracle, it shares only the component numbering with
the solver.  `solve` calls it the same way on a component whose extraction
got stuck, and hands it one numbered component with a finite core to search
over.  Every way, its pair links are the constraints' projections, packed
once per relation and call, and it skips mirrored subtrees of components
closed under negation.

The core option narrows the window to a finite set R with max R = 0: the
range of a drift-0 endomorphism e of the template, shifted down by its
maximum M.  That search is complete as well.  Take any solution s,
translated so that the root sits at a point where e takes the value M;
then e o s is a solution, and so is e o s - M, which lies in R^n with the
root at 0.  A variable then branches over at most max over x in R of
|R & (x + S)| values, S a pair set to a lower variable: 2 for `dist12` over
its core {-2, -1, 0}, against 2D + 1 = 5 in the window.
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


def _plan(sub: Instance, t: Template, biggest: int):
    """A component's search space estimate, the constraints due at each
    variable and whether every relation it names is closed under negation."""
    linked: set[int] = set()  # paired with a lower variable: 2D + 1 values
    # check each constraint once, at the assignment of its highest variable,
    # unless it is FULL or a binary one that its own pair set enforces
    due: list[list] = [[] for _ in range(sub.num_vars)]
    mirror = True
    for c in sub.constraints:
        rel = t.relation(c.relation)
        mirror = mirror and rel.negation_closed
        if rel.has_tuples:
            low = min(c.args)
            linked.update(a for a in c.args if a != low)
            if rel.arity > 2 or c.args[0] == c.args[1]:
                due[max(c.args)].append((rel, c.args))
    window = 2 * (sub.num_vars - 1) * biggest + 1
    estimate = (2 * biggest + 1) ** len(linked) * window ** (sub.num_vars - 1 - len(linked))
    return estimate, due, mirror


def _core_estimate(links: list[list[tuple[int, int, int]]], core: tuple[int, ...], bits: int):
    """A component's search space estimate over R = core, whose members are
    the set bits of bits counted from min R: past the root, each variable
    branches over the fewest values of R that one of its pair sets S to a
    lower variable leaves for any value x of that variable, max over x in R
    of |R & (x + S)|, or over all of R when it has none."""
    low = core[0]
    branches: dict[tuple[int, int], int] = {}  # per distinct pair set
    for lo, mask in {(lo, mask) for pairs in links for _, lo, mask in pairs}:
        # bit k of the shifted mask stands for x + lo + k, counted from low
        shifts = [x + lo - low for x in core]
        branches[lo, mask] = max(
            ((mask << k if k >= 0 else mask >> -k) & bits).bit_count() for k in shifts
        )
    estimate = 1
    for pairs in links[1:]:
        estimate *= min((branches[lo, mask] for _, lo, mask in pairs), default=len(core))
    return estimate


def _projection_links(
    sub: Instance, t: Template, span: int | None = None
) -> list[list[tuple[int, int, int]]]:
    """Per variable j, (i, lo, mask) for each lower i paired with it by the
    projections: bit k set when value[j] - value[i] = lo + k is allowed.

    Each relation's coordinate pairs are packed once per call, forward and
    reversed, keeping only the offsets in [-span, span] when span is given;
    the masks of a pair that several constraints cover are intersected."""
    plans: dict[str, list[tuple[int, int, tuple[int, int], tuple[int, int]]]] = {}
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for c in sub.constraints:
        if c.relation not in plans:
            rel = t.relation(c.relation)
            coords = combinations(range(1, rel.arity + 1), 2) if rel.has_tuples else ()
            plans[c.relation] = [
                (i - 1, j - 1, _pack(rel, i, j, span), _pack(rel, j, i, span)) for i, j in coords
            ]
        for i, j, forward, reverse in plans[c.relation]:
            a, b = c.args[i], c.args[j]
            if a == b:
                continue
            if a > b:
                a, b, forward = b, a, reverse
            old = pairs.get((a, b))
            if old is not None:  # AND the masks, counted from the larger lo
                lo = max(old[0], forward[0])
                forward = lo, (old[1] >> (lo - old[0])) & (forward[1] >> (lo - forward[0]))
            pairs[a, b] = forward
    links: list[list[tuple[int, int, int]]] = [[] for _ in range(sub.num_vars)]
    for (i, j), (lo, mask) in pairs.items():
        links[j].append((i, lo, mask))
    return links


def _pack(rel, i: int, j: int, span: int | None) -> tuple[int, int]:
    """(lo, mask) of the projection of rel onto coordinates (i, j), with
    only its offsets in [-span, span] when span is given."""
    offs = projected_offsets(rel, i, j)
    if span is not None:
        offs = [s for s in offs if -span <= s <= span]
    lo = min(offs, default=0)
    packed = bytearray((max(offs, default=lo) - lo) // 8 + 1)
    for s in offs:
        packed[(s - lo) // 8] |= 1 << (s - lo) % 8
    return lo, int.from_bytes(packed, "little")


def brute_solve(
    inst: Instance,
    t: Template,
    node_cap: int = DEFAULT_NODE_CAP,
    core: tuple[int, ...] | None = None,
) -> tuple[int, ...] | None:
    """Depth-first search for the least witness under the search order, or None.

    Components are searched independently in index order, each with its
    lowest variable pinned to 0 and the others scanned ascending over the
    complete window.
    Binary projections of the covering constraints prune candidates early;
    they are implied constraints, so pruning never loses a witness.  Raises
    CapExceededError instead of starting a search estimated over node_cap.

    core, the strictly ascending values of a finite core R of t with
    max R = 0 (see the module docstring), replaces the window for inst, one
    component that `solve` has preprocessed and numbered, which is not
    validated or split again: every domain is ANDed with R, the witness is
    the least one in R^n, and the estimate is `_core_estimate`'s, from the
    projections the search reads.  Only offsets between two values of R,
    in [min R, -min R], are packed.

    When every relation a component names is closed under negation, a step
    whose lower variables are all 0 tries only values <= 0, as negation maps
    solutions to solutions in the symmetric window: the least is not positive.
    Over R that bound excludes nothing, as it must unless -R = R: every
    value of R is <= 0.
    """
    if core is None:
        inst.validate_against(t)
        for c in inst.constraints:
            if t.relation(c.relation).is_empty:
                return None
        components = split_components(inst)
    else:
        ascending = all(type(v) is int for v in core) and all(a < b for a, b in zip(core, core[1:]))
        if not (core and ascending and core[-1] == 0):
            raise InputError(f"a core must be strictly ascending integers up to 0, got {core}")
        core_bits = sum(1 << (v - core[0]) for v in core)
        components = [(list(range(inst.num_vars)), inst)]
    biggest = max_distance_or_zero(t)
    plans = []
    for comp, sub in components:
        estimate, due, mirror = _plan(sub, t, biggest)
        links = None
        if core is not None:  # counted from the pair sets that the search reads
            links = _projection_links(sub, t, -core[0])
            estimate = _core_estimate(links, core, core_bits)
        plans.append((comp, sub, estimate, due, mirror, links))
    estimate = sum(plan[2] for plan in plans)
    if estimate > node_cap:
        raise CapExceededError(
            f"search space estimate {estimate} exceeds the cap {node_cap}"
        )
    values = [0] * inst.num_vars
    for comp, sub, _, due, mirror, links in plans:
        half = (len(comp) - 1) * biggest
        # links[j] holds (i, lo, mask) for each finite pair set to a lower i
        if links is None:  # built only once the window's estimate has passed
            links = _projection_links(sub, t)
        # the window or the core, with bit 0 at value lowest, starts every domain
        lowest, every = (-half, -1) if core is None else (core[0], core_bits)
        local = [0] * len(comp)

        def domain(j: int, top: int) -> range | list[int]:
            if not links[j] and core is None:
                return range(-half, top + 1)
            # AND the masks translated by local[i], with bit 0 at value base
            base, bits = lowest, every
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
