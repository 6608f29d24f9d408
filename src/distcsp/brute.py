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
the solver, and none of its search.  `solve` hands it one component of its
own split with the index map that numbers it: in brute mode, when the span
cap refuses propagation, or to search over a finite core.  Every way, its
pair links are the constraints' projections, built in one pass with the
constraints due at each variable.  The window search packs each relation
once per call and skips mirrored subtrees of components closed under
negation; a core search reads them, and the branch counts of its estimate,
from a table kept per (template, core) value.

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

from functools import lru_cache
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


def _plan(sub: Instance, t: Template, biggest: int, index=None) -> tuple[int, bool]:
    """Window search space estimate of a component read through index, and
    whether every relation it names is closed under negation."""
    linked: set[int] = set()  # paired with a lower variable: 2D + 1 values
    mirror = True
    for c in sub.constraints:
        rel = t.relation(c.relation)
        mirror = mirror and rel.negation_closed
        if rel.has_tuples:
            args = c.args if index is None else [index[a] for a in c.args]
            low = min(args)
            linked.update(a for a in args if a != low)
    window = 2 * (sub.num_vars - 1) * biggest + 1
    return (2 * biggest + 1) ** len(linked) * window ** (sub.num_vars - 1 - len(linked)), mirror


@lru_cache(maxsize=64)
def _core_table(t: Template, core: tuple[int, ...]) -> tuple[dict, dict]:
    """The relation plans of `_projection_links` over R = core and the
    branch counts of `_core_estimate`, filled as needed, per value."""
    return {}, {}


def _core_estimate(links: list[list], core: tuple[int, ...], bits: int, branches: dict) -> int:
    """A component's search space estimate over R = core, whose members are
    the set bits of bits counted from min R: past the root, each variable
    branches over the fewest values of R that one of its pair sets S to a
    lower variable leaves for any value x of that variable, max over x in R
    of |R & (x + S)| (kept in branches), or over all of R when it has none."""
    estimate = 1
    for pairs in links[1:]:
        fewest = len(core)
        for _, lo, mask in pairs:
            count = branches.get((lo, mask))
            if count is None:  # bit k of the shifted mask stands for x + lo + k
                count = branches[lo, mask] = max(
                    ((mask << k if k >= 0 else mask >> -k) & bits).bit_count()
                    for k in (x + lo - core[0] for x in core)
                )
            fewest = min(fewest, count)
        estimate *= fewest
    return estimate


def _projection_links(sub: Instance, t: Template, plans: dict, span: int | None = None, index=None):
    """In one pass over the constraints: per variable j, (i, lo, mask) for
    each lower i paired with it by the projections, bit k set when
    value[j] - value[i] = lo + k is allowed (the masks of a pair that several
    constraints cover intersected), and the constraints due at j, their
    highest variable, which have offset tuples that their pair sets do not
    enforce: arity 3 and up, or a variable twice.  None when one is EMPTY;
    InputError when one has the wrong arity.  plans holds, per relation name
    met, the relation, whether it is due and its coordinate pairs, packed
    forward and reversed, with only the offsets in [-span, span] if given;
    argument a of a constraint is variable index[a] (a when index is None)."""
    index = range(sub.num_vars) if index is None else index
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    due: list[list] = [[] for _ in range(sub.num_vars)]
    for c in sub.constraints:
        plan = plans.get(c.relation)
        if plan is None:
            rel = t.relation(c.relation)
            coords = combinations(range(1, rel.arity + 1), 2) if rel.has_tuples else ()
            packed = None if rel.is_empty else [
                (i - 1, j - 1, _pack(rel, i, j, span), _pack(rel, j, i, span)) for i, j in coords
            ]
            plan = plans[c.relation] = rel, rel.arity > 2 and rel.has_tuples, packed
        rel, check, packed = plan
        if packed is None or len(c.args) != rel.arity:
            sub.validate_against(t)  # raises on a wrong arity
            return None  # as the window search answers an EMPTY constraint
        for i, j, forward, reverse in packed:
            a, b = index[c.args[i]], index[c.args[j]]
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
            args = tuple(map(index.__getitem__, c.args))
            due[max(args)].append((rel, args))
    links: list[list[tuple[int, int, int]]] = [[] for _ in range(sub.num_vars)]
    for (i, j), (lo, mask) in pairs.items():
        links[j].append((i, lo, mask))
    return links, due


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
    index=None,
) -> tuple[int, ...] | None:
    """Depth-first search for the least witness under the search order, or None.

    Components are searched independently in index order, each with its
    lowest variable pinned to 0 and the others scanned ascending over the
    complete window.
    Binary projections of the covering constraints prune candidates early;
    they are implied constraints, so pruning never loses a witness.  Raises
    CapExceededError instead of starting a search estimated over node_cap.

    With index or core, inst is one component of `solve`'s split, argument
    a read as variable index[a], neither validated nor split again: an EMPTY
    constraint gives None, and a wrong arity InputError where links are built.
    core, the strictly ascending values of a finite core R of t with
    max R = 0 (see the module docstring), replaces the window for inst.
    Every domain is ANDed with R, the witness is the least one in R^n, and
    the estimate is `_core_estimate`'s, from the projections the search
    reads.  Only offsets between two values of R, in [min R, -min R], are
    packed, once per (template, core) value (`_core_table`).

    When every relation a component names is closed under negation, a step
    of the window search whose lower variables are all 0 tries only values
    <= 0, as negation maps solutions to solutions in the symmetric window:
    the least is not positive.  Over R that bound would exclude nothing, as
    it must unless -R = R: every value of R is <= 0.
    """
    if core is None:
        components = [(range(inst.num_vars), inst)]
        if index is None:
            inst.validate_against(t)
            components = split_components(inst)
        for c in inst.constraints:
            if t.relation(c.relation).is_empty:
                return None
        biggest = max_distance_or_zero(t)
        packed: dict = {}
        plans = [
            (comp, sub, *_plan(sub, t, biggest, index), (len(comp) - 1) * biggest, None)
            for comp, sub in components
        ]
    else:
        ascending = all(type(v) is int for v in core) and all(a < b for a, b in zip(core, core[1:]))
        if not (core and ascending and core[-1] == 0):
            raise InputError(f"a core must be strictly ascending integers up to 0, got {core}")
        core_bits = sum(1 << (v - core[0]) for v in core)
        packed, branches = _core_table(t, core)
        built = _projection_links(inst, t, packed, -core[0], index)
        if built is None:
            return None
        estimate = _core_estimate(built[0], core, core_bits, branches)
        # no mirror rule, and no window: every value of R is <= 0
        plans = [(range(inst.num_vars), inst, estimate, False, 0, built)]
    estimate = sum(plan[2] for plan in plans)
    if estimate > node_cap:
        raise CapExceededError(
            f"search space estimate {estimate} exceeds the cap {node_cap}"
        )
    values = [0] * inst.num_vars
    for comp, sub, _, mirror, half, built in plans:
        # links[j] holds (i, lo, mask) for each finite pair set to a lower i,
        # built for the window only once its estimate has passed
        links, due = built or _projection_links(sub, t, packed, None, index)
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
