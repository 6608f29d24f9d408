"""Pairwise difference propagation and witness extraction.

`split_components` numbers the variables of each connected component in
its canonical breadth-first order, so that order is simply index order.
`solve` reads each component in place instead, through one index map from
each variable to its place in its component (`_split`).  Each component
but those of brute mode is read once more, by `initialize_pairs`, into a
`PairMatrix`: one row per variable v, mapping each lower neighbour u of v
to the pair's offset set P(u,v), the intersection of the projections of
every constraint covering the pair.  One directional sweep, `propagate`,
then fills the rows in to a chordal completion of the component's
co-occurrence graph, eliminating the variables highest index first so that
every variable's lower neighbours form a clique, and tightens the sets
through its triangles: each variable v, highest index first, revises every
pair a < b of its lower neighbours once,

    P(a,b)  <-  P(a,b)  intersect  (P(a,v) + P(v,b)).

Every tightening is implied by the instance, so an empty pair set proves
unsatisfiability.  A witness is searched for over the matrix alone, depth
first in index order, checking the constraints of arity 3 or more: over
the propagated rows, or over the rows as the constraints leave them with
every value in a finite core of the template.  Both searches are complete;
on a template closed under a modular median the first never backtracks.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from math import prod
from types import SimpleNamespace
from typing import Callable

from .errors import CapExceededError, InputError, InternalInvariantError
from .model import (
    DEFAULT_NODE_CAP,
    EMPTY,
    FULL,
    MODES,
    Constraint,
    FrozenRecord,
    Instance,
    OffsetSet,
    Record,
    RelationDef,
    Template,
    _trusted,
    project_constraint,
    projected_offsets,
    tuple_in_relation,
)

TraceFn = Callable[[str], None]


class SolveStats(Record):
    """Counters from one solve: the revisions of `propagate` that shrank a
    cell, and of them those that bounded a FULL one; sweeps, the vertices
    whose lower pairs it revised, those with at least two lower completion
    neighbours; and core_searches, the components that `extract_solution`
    decided over a finite core, unpropagated (see `solve`)."""

    proper_replacements: int = 0
    sweeps: int = 0
    full_to_finite: int = 0
    components: int = 0
    core_searches: int = 0

    def absorb(self, other: "SolveStats") -> None:
        self.proper_replacements += other.proper_replacements
        self.sweeps += other.sweeps
        self.full_to_finite += other.full_to_finite


class Verdict(FrozenRecord):
    """Outcome of a solve: sat with verified witness, unsat, or unknown."""

    status: str
    witness: tuple[int, ...] | None = None
    reason: str | None = None
    stats: SolveStats | None = None

    @classmethod
    def sat(cls, witness: tuple[int, ...], stats: SolveStats | None = None) -> "Verdict":
        return cls("sat", witness=witness, stats=stats)

    @classmethod
    def unsat(cls, stats: SolveStats | None = None) -> "Verdict":
        return cls("unsat", stats=stats)

    @classmethod
    def unknown(cls, reason: str, stats: SolveStats | None = None) -> "Verdict":
        return cls("unknown", reason=reason, stats=stats)


class Preprocessed(FrozenRecord):
    """Instance with repeated-variable constraints rewritten, plus the template
    extended with the rewritten relations; unsat marks a constraint that
    emptied out."""

    instance: Instance
    template: Template
    unsat: bool


def preprocess(inst: Instance, t: Template) -> Preprocessed:
    """Normalize an instance: split off repeated variables, drop vacuous atoms.

    A FULL constraint, of any arity, says nothing and is dropped, so it
    neither joins components nor puts a FULL cell into a pair matrix.  A
    constraint using the same variable several times is rewritten over its
    distinct variables by keeping exactly the orbits whose components agree
    at the repeated positions, under a name no relation of t has.  Unary
    leftovers are all of Z (dropped) or empty (unsatisfiable).  Duplicate
    constraints are dropped.  The same pass does `Instance.validate_against`'s
    checks; an instance that needs no change comes back as it is.
    """
    derived: dict[str, RelationDef] = {}
    kept: list[Constraint] = []
    seen: set[tuple[str, tuple[int, ...]]] = set()

    def unsat() -> Preprocessed:
        # a malformed constraint is an error even after an unsatisfiable one
        inst.validate_against(t)
        return Preprocessed(inst, t, True)

    for c in inst.constraints:
        rel = t.relation(c.relation)
        if len(c.args) != rel.arity or rel.body == EMPTY:
            return unsat()  # validation raises on the arity mismatch
        if rel.body == FULL:
            continue  # every unary body is FULL or EMPTY
        if len(set(c.args)) < len(c.args):
            # positions of first occurrences, in order
            order: list[int] = []
            slot: dict[int, int] = {}
            for a in c.args:
                if a not in slot:
                    slot[a] = len(order)
                    order.append(a)
            pattern = "".join(str(slot[a]) for a in c.args)
            first_pos = [c.args.index(v) for v in order]
            filtered = set()
            for v in rel.offset_tuples:
                w = (0, *v)
                if all(w[i] == w[first_pos[slot[c.args[i]]]] for i in range(len(c.args))):
                    filtered.add(tuple(w[p] - w[first_pos[0]] for p in first_pos[1:]))
            if not filtered:
                return unsat()
            if len(order) == 1:
                continue  # some orbit survives at every base point
            # a pattern has no "~", so only a relation of t can take the name
            name = f"{rel.name}~{pattern}"
            while any(r.name == name for r in t.relations):
                name += "~"
            derived.setdefault(name, RelationDef(name, len(order), tuple(filtered)))
            c = _trusted(Constraint, relation=name, args=tuple(order))
        key = (c.relation, c.args)
        if key not in seen:
            seen.add(key)
            kept.append(c)

    if not derived and len(kept) == len(inst.constraints):
        return Preprocessed(inst, t, False)
    template = Template(t.name, t.relations + tuple(derived.values())) if derived else t
    return Preprocessed(
        _trusted(Instance, num_vars=inst.num_vars, constraints=tuple(kept)), template, False
    )


def co_occurrence_adjacency(inst: Instance) -> list[set[int]]:
    """Neighbour sets of the graph joining variables that share a constraint."""
    adjacency: list[set[int]] = [set() for _ in range(inst.num_vars)]
    for c in inst.constraints:
        if len(c.args) == 2:
            a, b = c.args
            adjacency[a].add(b)
            adjacency[b].add(a)
        else:
            for a in c.args:
                adjacency[a].update(c.args)
    for v, neighbours in enumerate(adjacency):
        neighbours.discard(v)
    return adjacency


def breadth_first(adjacency: list[set[int]], start: int) -> list[int]:
    """The vertices reachable from start, in breadth-first visit order.

    Neighbours are visited in ascending order, so from a component's lowest
    vertex this is the canonical order in which `split_components` numbers
    it.
    """
    order, seen = [start], {start}
    for v in order:
        for w in sorted(adjacency[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def split_components(inst: Instance) -> list[tuple[list[int], Instance]]:
    """Connected components of the co-occurrence graph, by lowest variable.

    Each comes as its variables in canonical breadth-first order (from the
    lowest one, neighbours in ascending order) and the instance it induces,
    with those variables renumbered 0..m-1 in that order, so the canonical
    order of every component is index order.  A connected instance already
    in canonical order, such as a component split off before, comes back as
    it is.  `solve` reads the same split in place (`_split`).
    """
    components, index = _split(inst)
    return [(variables, _renumbered(part, index)) for variables, part in components]


def _renumbered(part, index: list | range) -> Instance:
    """A part of `_split` as the `Instance` it induces, argument a renumbered
    index[a]; part itself when index is a range."""
    if isinstance(index, range):
        return part
    return _trusted(Instance, num_vars=part.num_vars, constraints=tuple(
        _trusted(Constraint, relation=c.relation, args=tuple(map(index.__getitem__, c.args)))
        for c in part.constraints))


def _split(inst: Instance) -> tuple[list[tuple[list[int], Instance]], list | range]:
    """`split_components` without copies: per component, its variables and
    a part with num_vars and inst's own constraints on it, distributed in
    one pass, argument a being variable index[a] of its component; inst
    itself, and index a range, when inst comes back as it is."""
    size = inst.num_vars
    adjacency = co_occurrence_adjacency(inst)
    index = [0] * size
    owner: list[list[Constraint] | None] = [None] * size
    components = []
    for start in range(size):
        if owner[start] is None:
            variables = breadth_first(adjacency, start)
            if len(variables) == size and variables == list(range(size)):
                return [(variables, inst)], range(size)
            part = SimpleNamespace(num_vars=len(variables), constraints=[])
            for i, v in enumerate(variables):
                index[v], owner[v] = i, part.constraints
            components.append((variables, part))
    for c in inst.constraints:
        owner[c.args[0]].append(c)
    return components, index


_FULL = OffsetSet.full()


class PairMatrix:
    """Offset sets for the edges of a chordal completion of one component.

    Each edge is stored once, in the row of its higher end: `rows[v]` maps
    each lower neighbour u of v to P(u,v), and a pair off the rows is FULL.
    `initialize_pairs` writes the pairs that constraints join; `propagate`
    adds each fill edge of the completion when it first revises it, so the
    keys of the rows are the completion once a sweep has run in full.
    `due[v]` lists the constraints that extraction checks at v, as
    (relation, local arguments): those of arity 3 or more, with offset
    tuples, whose highest variable is v.  `cells`, a {(k, l): P(k,l)} view
    of both orientations built on each read, is for tests and tracing.
    """

    due: list[list[tuple[RelationDef, tuple[int, ...]]]]

    def __init__(self, size: int, variable_ids, rows: list[dict]):
        self.size = size
        self.variable_ids = list(variable_ids)
        self.rows = rows
        self.stats = SolveStats()
        self.empty_pair: tuple[int, int] | None = None

    @property
    def cells(self) -> dict[tuple[int, int], OffsetSet]:
        cells = {}
        for l, row in enumerate(self.rows):
            for k, cell in row.items():
                cells[k, l], cells[l, k] = cell, -cell
        return cells


def initialize_pairs(
    inst: Instance, t: Template, variable_ids: list[int] | None = None, index=None
) -> PairMatrix:
    """Pair matrix for one preprocessed component, in one pass over its constraints.

    Pairs sharing a constraint start at the intersection of the projections
    of all covering constraints (intersecting every conjunct instead of
    picking one is sound and only tightens), FULL under FULL ones alone;
    no other pair has a cell yet.  Each relation's coordinate
    pairs, with the forward and reverse projections it caches, are looked
    up once per call; a pair that index order reverses takes the reverse
    one, so nothing is negated.  The same pass puts each constraint that
    extraction checks in `due`.  Argument a of a constraint is variable index[a] (a
    when index is None), as `solve` reads the parts of `_split`.
    """
    size = inst.num_vars
    index = range(size) if index is None else index
    rows: list[dict[int, OffsetSet]] = [{} for _ in range(size)]
    due: list[list[tuple[RelationDef, tuple[int, ...]]]] = [[] for _ in range(size)]
    # per relation: itself when it is checked at extraction, and its pairs
    plans: dict[str, tuple[RelationDef | None, list] | None] = {}
    empty_pair = None
    for c in inst.constraints:
        args = c.args
        if c.relation not in plans:
            rel = t.relation(c.relation)
            plans[c.relation] = None if rel.is_empty else (
                rel if rel.has_tuples and rel.arity > 2 else None,
                [
                    (i - 1, j - 1, project_constraint(rel, i, j), project_constraint(rel, j, i))
                    if rel.has_tuples else (i - 1, j - 1, _FULL, _FULL)
                    for i, j in combinations(range(1, rel.arity + 1), 2)
                ],
            )
        plan = plans[c.relation]
        if plan is None or len(set(args)) != len(args):
            raise InputError(
                f"constraint {c.relation}{c.args} repeats a variable or is EMPTY; preprocess first"
            )
        checked, pairs = plan
        for i, j, forward, reverse in pairs:
            k, l = index[args[i]], index[args[j]]
            if k > l:
                k, l, forward = l, k, reverse
            row = rows[l]
            old = row.get(k)
            if old is None:
                row[k] = forward
            elif forward is not _FULL:
                row[k] = tightened = old & forward
                if tightened.is_empty:
                    empty_pair = (k, l)
        if checked is not None:
            local = tuple(map(index.__getitem__, args))
            due[max(local)].append((checked, local))
    matrix = PairMatrix(size, variable_ids or list(range(size)), rows)
    matrix.empty_pair, matrix.due = empty_pair, due
    return matrix


def propagate(matrix: PairMatrix, trace: TraceFn | None = None, debug: bool = False) -> PairMatrix:
    """Directional path consistency on the chordal completion, in place,
    filling the completion in as it goes.

    Each vertex v, from the highest index down, revises every pair a < b of
    its lower neighbours once, P(a,b) <- P(a,b) & (P(a,v) + P(v,b))
    (Dechter & Pearl, AIJ 1987), and the sweep stops at the first empty
    cell.  The first revision of a pair that no constraint joins writes its
    cell, FULL, into b's row, even when a FULL P(v,b) leaves nothing to
    revise: eliminating v joins its lower neighbours pairwise, so after a
    full sweep the keys of the rows are the filled graph of eliminating
    the highest index first.  The revisions at v write below v, so v's row
    is complete, and P(a,v) with a < v final, when v comes up; the sweep
    leaves P(a,b) within P(a,v) + P(v,b) for every such v, a and b.
    Every tightening is implied by the instance, so an empty cell proves
    unsatisfiability on every template.

    That inclusion decides a template closed under a modular median.  Take
    the variables in index order and a partial assignment x of the lower
    ones that respects every completion edge among them.  The next variable
    v's lower neighbours a_1..a_k form a clique.  Let Q hold of (y_1..y_k)
    when some z lies in every candidate set P(a_i,v) + y_i.  Q is
    pp-definable from the cells, and they from the relations, so a modular
    median, a majority polymorphism, preserves Q, and Q is 2-decomposable:
    it holds of every tuple whose binary projections it holds of (Jeavons,
    Cohen & Cooper, AIJ 1998).  Every cell is nonempty, so Q's projection on
    (i, j) holds exactly when the two candidate sets meet, and for x they
    do: x_{a_j} - x_{a_i} lies in P(a_i,a_j), within P(a_i,v) + P(v,a_j).
    So v has a candidate.  (The sets' own closure would not do: the plain
    median preserves every set, and {1,2}, {2,3}, {1,3} meet pairwise only.)
    Every candidate respects every edge from v to a lower variable, and a
    constraint of higher arity, whose variables form a clique, holds as
    soon as its binary projections do (2-decomposability again).  So the
    search of `extract_solution` never backtracks: every candidate its
    first descent takes extends to a full solution, and the least
    candidates make the least solution.  Nothing here needs the canonical
    numbering or a connected matrix: any numbering, with its own
    completion, works.

    Both cells read at v, P(a,v) and P(b,v), are in v's row, and P(v,b) is
    the negation of the second.  Each sum P(a,v) + -P(b,v) is computed once
    per call and then read from a memo keyed on the (lo, mask) pairs of the
    two cells; offset sets are values, so equal keys give equal results.
    `(A + B) & X` returns X itself exactly when the sum covers X, so a
    no-op revision is told by identity.  stats.sweeps counts
    the vertices whose lower pairs were revised.  When debug is set, a sweep
    that found no empty cell is checked by `_check_sweep`.
    """
    if matrix.empty_pair is not None:
        return matrix
    ids, rows, stats = matrix.variable_ids, matrix.rows, matrix.stats
    sums: dict[tuple[int, int | None, int, int], OffsetSet] = {}
    for v in reversed(range(matrix.size)):
        row_v = rows[v]
        if len(row_v) < 2:
            continue
        stats.sweeps += 1
        lower = sorted(row_v)
        for i, a in enumerate(lower):
            left = row_v[a]  # P(a,v) is final: the revisions at v write below v
            for b in lower[i + 1 :]:
                right = row_v[b]  # P(b,v)
                row_b = rows[b]
                old = row_b.setdefault(a, _FULL)
                if right.mask is None:
                    continue
                key = (left.lo, left.mask, right.lo, right.mask)
                total = sums.get(key)
                if total is None:
                    total = sums[key] = left + -right
                new = total & old
                if new is old:
                    continue
                row_b[a] = new
                stats.proper_replacements += 1
                if old.is_full:
                    stats.full_to_finite += 1
                if trace is not None:
                    trace(f"pair=({ids[a]},{ids[b]}) via {ids[v]} old={old} new={new}")
                if new.is_empty:
                    matrix.empty_pair = (a, b)
                    return matrix
    if debug:
        _check_sweep(matrix)
    return matrix


def _check_sweep(matrix: PairMatrix) -> None:
    """Raise unless P(a,b) lies within P(a,v) + P(v,b) for every pair a < b
    of lower neighbours of every v, as `propagate`'s argument reads, a pair
    off the rows being FULL."""
    rows = matrix.rows
    for v, row in enumerate(rows):
        below = sorted(row)
        for i, a in enumerate(below):
            for b in below[i + 1 :]:
                cell = rows[b].get(a, _FULL)
                if (row[a] + -row[b]) & cell != cell:
                    raise InternalInvariantError(f"pair ({a},{b}) holds {cell}, wider than via {v}")


def extract_solution(
    matrix: PairMatrix, node_cap=DEFAULT_NODE_CAP, core: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """The least witness in index order, by a depth-first search of the
    matrix alone, with every value in core when it is given; None when
    there is none.

    Variable j tries, ascending, the values that every finite cell of its
    row allows (the AND of the masks of P(i,j) + x_i) and, past the root,
    that lie in core, a finite core R of the template, ascending, with
    max R = 0; the root, and over Z a variable with no finite cell, take 0
    alone.  It takes the first that satisfies each constraint due at j
    (`PairMatrix.due`); the cells enforce the binary ones, and it backtracks
    to the untried values below when j has none left.  Over Z the first
    descent is greedy extraction, which never backtracks on a template
    closed under a modular median (see `propagate`).

    On a component of a preprocessed instance in canonical order the search
    is complete: every cell is implied by the instance, so any solution with
    the root at 0 takes one of the values tried at each variable.  Over Z
    only the root takes 0 alone, since `preprocess` drops FULL constraints
    and every other variable v has a finite cell to its breadth-first
    parent.  Over R, let e be a drift-0 endomorphism of the template whose
    range, shifted down by its maximum M, is R.  Take any solution s,
    translated so that the root sits at a point where e takes the value M;
    then e o s is a solution, and so is e o s - M, which lies in R^n with
    the root at 0.

    Before the first backtrack it charges the product, over the variables
    past the root, of the fewest values one finite cell S of j's row leaves
    j for any value of the lower variable: |S| over Z, and max over x in R
    of |R & (x + S)| over R, or |R| when no cell bounds j; it raises
    CapExceededError when that is over node_cap.  The cell to v's parent
    lies in [-D, D], D the largest realized distance, so over Z n variables
    cost at most (2D + 1)^(n-1), the window search's estimate
    (`brute._plan` links every non-root variable): nothing it decides is
    refused here.
    """
    if matrix.empty_pair is not None:
        raise InternalInvariantError("extraction attempted on an empty pair matrix")
    rows, due, size = matrix.rows, matrix.due, matrix.size
    # a non-root variable's values start from R, with bit 0 at value min R
    lowest, every = (0, None) if core is None else (core[0], sum(1 << (v - core[0]) for v in core))
    values, untried, bases = [0] * size, [0] * size, [0] * size
    j, back, estimated = 0, False, False
    while 0 <= j < size:
        if back:
            base, bits = bases[j], untried[j]
        else:  # AND the masks of the sets P(i,j) + x_i, bit 0 at value base
            base, bits = (lowest, every) if j else (0, None)
            for i, cell in rows[j].items():
                mask = cell.mask
                if mask is None:
                    continue
                shift = values[i] + cell.lo
                if bits is None:
                    base, bits = shift, mask
                elif shift > base:
                    bits, base = bits >> (shift - base) & mask, shift
                else:
                    bits &= mask >> (base - shift)
            if bits is None:
                base, bits = 0, 1
        # the least untried value, and the next ones only while a due
        # constraint fails
        while bits:
            low = bits & -bits
            bits ^= low
            values[j] = base + low.bit_length() - 1
            if not due[j] or all(
                tuple_in_relation(rel, tuple(values[a] for a in args)) for rel, args in due[j]
            ):
                untried[j], bases[j] = bits, base
                j, back = j + 1, False
                break
        else:
            if not estimated:
                # the values a cell (lo, mask) leaves: |S|, or over R the most
                # for any x in R, bit k of the shifted mask being x + lo + k
                counts = {
                    (c.lo, c.mask): 0 for row in rows for c in row.values() if c.mask is not None
                }
                for lo, mask in counts:
                    counts[lo, mask] = mask.bit_count() if core is None else max(
                        ((mask << k if k >= 0 else mask >> -k) & every).bit_count()
                        for k in (x + lo - core[0] for x in core)
                    )
                estimate = prod(
                    min((counts[c.lo, c.mask] for c in row.values() if c.mask is not None),
                        default=len(core) if core else 1)
                    for row in rows[1:]
                )
                if estimate > node_cap:
                    raise CapExceededError(
                        f"search space estimate {estimate} exceeds the cap {node_cap}"
                    )
                estimated = True
            j, back = j - 1, True
    return tuple(values) if j == size else None


def component_template(inst: Instance, t: Template) -> Template:
    """The relations of t that the constraints of inst name, in t's order:
    all that deciding one component depends on.  A relation it does not use
    could only widen the exhaustive search or the median closure check;
    t itself when they name all of t's relations."""
    used = {c.relation for c in inst.constraints}
    if len(used) == len(t.relations):
        return t
    return Template(t.name, tuple(r for r in t.relations if r.name in used))


# Most candidate maps `Route.core` tries: (4D + 1)^p for each period p
CORE_CANDIDATES = 10_000


class Route:
    """The facts about a `component_template` t that route its component in
    `solve`, each computed when first read; `route` keeps one per value."""

    def __init__(self, t: Template) -> None:
        self.template = t

    @cached_property
    def one_step(self) -> bool:
        """Whether every relation with offset tuples is binary with offsets
        in an arithmetic progression of one common step (a single offset
        fits any step; FULL relations are ignored).  The modular median of
        that step then preserves them all, so `solve` skips the median
        search when it reads this first."""
        steps = set()
        for rel in self.template.relations:
            if rel.has_tuples:
                offsets = sorted(projected_offsets(rel, 1, 2)) if rel.arity == 2 else ()
                gaps = {b - a for a, b in zip(offsets, offsets[1:])}
                steps.add(None if rel.arity > 2 or len(gaps) > 1 else max(gaps, default=0))
        return None not in steps and len(steps - {0}) < 2

    @cached_property
    def modulus(self) -> int | None:
        """`find_modular_median` of t, read by auto mode only when t is not
        one-step: a component with a median is propagated, one without may
        be searched over a finite core.  A closure check refused by its size
        cap verifies no median, so it counts as None."""
        from .polymorphism import find_modular_median

        try:
            return find_modular_median(self.template)
        except CapExceededError:
            return None

    @cached_property
    def core(self) -> tuple[int, ...] | None:
        """The range R of a drift-0 endomorphism of t, shifted so that
        max R = 0, ascending; None when none is found.

        It is the first map of `search_periodic_endomorphism` with values in
        [-2D, 2D] and periods p <= 3D, taken while the candidates of every
        period so far, (4D + 1)^p each, stay within `CORE_CANDIDATES`: that
        finds dist12's core at p = 3 and bounds the search on templates that
        have none."""
        from .analysis import max_distance_or_zero
        from .endomorphism import search_periodic_endomorphism

        t = self.template
        biggest = max_distance_or_zero(t)
        period = spent = 0
        while period < 3 * biggest and spent + (4 * biggest + 1) ** (period + 1) <= CORE_CANDIDATES:
            period += 1
            spent += (4 * biggest + 1) ** period
        spec = period and search_periodic_endomorphism(t, period, 2 * biggest, drift_filter=(0,))
        if not spec:
            return None
        top = max(spec.base_values)
        return tuple(sorted({v - top for v in spec.base_values}))


route = lru_cache(maxsize=64)(Route)  # one `Route` per component template value


def solve(
    inst: Instance,
    t: Template,
    mode: str = "auto",
    trace: TraceFn | None = None,
    debug: bool = False,
    node_cap: int | None = None,
) -> Verdict:
    """Decide an instance against a template, one connected component at a time.

    Modes: "consistency" runs `propagate` and the search of
    `extract_solution` on each component; "brute" hands each, as the
    `Instance` that `split_components` would make of it, to `brute_solve`
    with its `component_template`, which searches it over its window; "auto"
    searches each component whose
    `component_template` is, by its `route`, not one-step, with no modular
    median and a finite core R, over R^n on its rows as the constraints
    leave them, and sends the rest, and any whose search over R is refused
    at its first backtrack, to consistency on the same rows.  Every search
    is complete, and refused at its first backtrack when its estimate is
    over the cap.  Sat verdicts carry a re-verified witness.
    Propagation is undecided, not failed, for a component whose pair set
    would span more than `model.MAX_SPAN` integers; "auto" then searches it
    over its window.  The instance is unsat when some component is;
    otherwise unknown, with the reason of the first component left
    undecided, when some component is.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    stats = SolveStats()
    prep = preprocess(inst, t)
    if prep.unsat:
        return Verdict.unsat(stats)
    components, index = _split(prep.instance)
    stats.components = len(components)
    cap = DEFAULT_NODE_CAP if node_cap is None else node_cap

    def decide(variables, sub):
        # a component's witness, None if it is unsat; CapExceededError says
        # why not; only auto mode's route and the window search read own
        own = mode != "consistency" and component_template(sub, prep.template)
        facts = mode == "auto" and route(own)
        # consistency decides a component whose relations have a modular
        # median, as every one-step component's do; the rest may have a finite core
        core = facts and not facts.one_step and facts.modulus is None and facts.core
        refused = ""
        if mode != "brute":
            try:
                matrix = initialize_pairs(sub, prep.template, variables, index)
                if core:
                    try:
                        witness = None if matrix.empty_pair else extract_solution(matrix, cap, core)
                    except CapExceededError:
                        pass  # refused at its first backtrack: the propagated rows may fit
                    else:
                        stats.core_searches += 1
                        return witness
                propagate(matrix, trace=trace, debug=debug)
            except CapExceededError as e:
                if mode == "consistency":
                    raise CapExceededError(f"propagation refused: {e}") from None
                refused = f"propagation refused: {e}; "
            else:
                stats.absorb(matrix.stats)
                return None if matrix.empty_pair is not None else extract_solution(matrix, cap)
        from . import brute

        try:
            return brute.brute_solve(_renumbered(sub, index), own, cap)
        except CapExceededError as e:
            raise CapExceededError(refused + str(e)) from None

    values, reasons = [0] * inst.num_vars, []
    for variables, sub in components:
        try:
            witness = decide(variables, sub)
        except CapExceededError as e:
            reasons.append(str(e))
            continue
        if witness is None:
            return Verdict.unsat(stats)
        for g, value in zip(variables, witness):
            values[g] = value
    if reasons:
        return Verdict.unknown(reasons[0], stats)
    # preprocess has validated inst: only the witness is checked, by lookups
    for idx, c in enumerate(inst.constraints):
        rel, args = t.relation(c.relation), c.args
        if len(args) == 2 and rel.has_tuples:
            held = (values[args[1]] - values[args[0]],) in rel._tuple_set
        else:
            held = tuple_in_relation(rel, tuple(values[a] for a in args))
        if not held:
            raise InternalInvariantError(f"witness fails constraint {idx}")
    return Verdict.sat(tuple(values), stats)
