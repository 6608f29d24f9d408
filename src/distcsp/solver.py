"""Pairwise difference propagation and witness extraction.

`split_components` numbers the variables of each connected component in
its canonical breadth-first order, so that order is simply index order.
`solve` reads each component in place instead, through one index map from
each variable to its place in its component (`_split`).  The solver keeps
offset sets for the pairs of variables that are joined in a chordal
completion of the component's co-occurrence graph: the graph filled in by
eliminating the variables highest index first, so that every variable's
lower neighbours form a clique.  A `PairMatrix` holds them in one row per
variable, beside its sorted lower neighbours, and fills the completion in
one pass of the parent rule.  Each set starts as the intersection of the
projections of every constraint covering the pair (FULL when none does)
and is then tightened through the triangles of the completion,

    P(k,l)  <-  P(k,l)  intersect  (P(k,m) + P(m,l)),

on one of two schedules, chosen by the input: one directional `sweep` for a
one-step component (every relation with offset tuples is binary, its
offsets a progression of one common step), and otherwise `propagate`'s
worklist of the pairs that changed, until nothing shrinks.  Pairs outside
the completion are read as FULL.  Every tightening is implied by the
instance, so an empty pair set proves unsatisfiability.  A witness is then
read off greedily in index order, a reverse perfect elimination order of
the completion; the walk cannot get stuck after a sweep, nor after the
worklist on a template closed under a modular median.  Otherwise a stuck
extraction leaves its component undecided; `solve` may search it exhaustively.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache
from itertools import combinations
from types import SimpleNamespace
from typing import Callable

from .errors import CapExceededError, InputError, InternalInvariantError
from .model import (
    DEFAULT_NODE_CAP,
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
    """Counters from one solve; sweeps counts the changed pairs the
    propagation worklist popped, none on a component the `sweep` or a core
    search decided, and core_searches the components decided over a finite
    core (see `solve`)."""

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

    A constraint using the same variable several times is rewritten over its
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
        if len(c.args) != rel.arity or rel.is_empty:
            return unsat()  # validation raises on the arity mismatch
        if len(set(c.args)) < len(c.args):
            # positions of first occurrences, in order
            order: list[int] = []
            slot: dict[int, int] = {}
            for a in c.args:
                if a not in slot:
                    slot[a] = len(order)
                    order.append(a)
            pattern = "".join(str(slot[a]) for a in c.args)
            arity = len(order)
            body = rel.body  # a FULL relation stays FULL
            if rel.has_tuples:
                first_pos = [c.args.index(v) for v in order]
                filtered = set()
                for v in rel.offset_tuples:
                    w = (0, *v)
                    if all(w[i] == w[first_pos[slot[c.args[i]]]] for i in range(len(c.args))):
                        filtered.add(tuple(w[p] - w[first_pos[0]] for p in first_pos[1:]))
                if not filtered:
                    return unsat()
                body = tuple(filtered)
            if arity == 1:
                continue  # FULL, or some orbit survives at every base point
            # a pattern has no "~", so only a relation of t can take the name
            name = f"{rel.name}~{pattern}"
            while any(r.name == name for r in t.relations):
                name += "~"
            derived.setdefault(name, RelationDef(name, arity, body))
            c = _trusted(Constraint, relation=name, args=tuple(order))
        elif rel.arity == 1:
            continue  # unary FULL says nothing
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


def bfs_depths(adjacency: list[set[int]], start: int) -> dict[int, int]:
    """Hop depth of every vertex reachable from start, keyed in visit order.

    Neighbours are visited in ascending order, so from a component's lowest
    vertex the key order is the canonical breadth-first order in which
    `split_components` numbers it.
    """
    depths = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in sorted(adjacency[v]):
            if w not in depths:
                depths[w] = depths[v] + 1
                queue.append(w)
    return depths


def split_components(inst: Instance) -> list[tuple[list[int], Instance]]:
    """Connected components of the co-occurrence graph, by lowest variable.

    Each comes as its variables in canonical breadth-first order (from the
    lowest one, neighbours in ascending order) and the instance it induces,
    with those variables renumbered 0..m-1 in that order, so the canonical
    order of every component is index order; the constraints are
    distributed in one pass.  A connected instance already in canonical
    order, such as a component split off before, comes back as it is.
    """
    components, _, index = _split(inst)
    return components if isinstance(index, range) else [
        (variables, _trusted(Instance, num_vars=part.num_vars, constraints=tuple(
            _trusted(Constraint, relation=c.relation, args=tuple(map(index.__getitem__, c.args)))
            for c in part.constraints))) for variables, part in components
    ]


def _split(inst: Instance) -> tuple[list[tuple[list[int], Instance]], list[set[int]], list | range]:
    """`split_components` without copies: per component, its variables and
    a part with num_vars and inst's own constraints on it (inst itself, and
    index a range, when inst comes back as it is), argument a being variable
    index[a] of its component; and the co-occurrence graph of inst."""
    size = inst.num_vars
    adjacency = co_occurrence_adjacency(inst)
    index = [0] * size
    owner: list[list[Constraint] | None] = [None] * size
    components = []
    for start in range(size):
        if owner[start] is None:
            variables = list(bfs_depths(adjacency, start))
            if len(variables) == size and variables == list(range(size)):
                return [(variables, inst)], adjacency, range(size)
            part = SimpleNamespace(num_vars=len(variables), constraints=[])
            for i, v in enumerate(variables):
                index[v], owner[v] = i, part.constraints
            components.append((variables, part))
    for c in inst.constraints:
        owner[c.args[0]].append(c)
    return components, adjacency, index


def _component_graph(adjacency: list[set[int]], index: list | range, variables: list[int]):
    """A component's co-occurrence graph in its own numbering: the graph of
    the instance that `_split` split, translated unless index is a range."""
    if isinstance(index, range):
        return adjacency
    return [{index[w] for w in adjacency[v]} for v in variables]


def chordal_completion(adjacency: list[set[int]]) -> list[set[int]]:
    """The graph filled in by eliminating the highest index first, in place.

    Eliminating a vertex joins its remaining (lower) neighbours into a
    clique, so in the result every vertex's lower neighbours form a clique:
    index order reversed is a perfect elimination order and the graph is
    chordal.  `PairMatrix` fills it in one pass; the neighbour sets of
    adjacency are filled, not copied, and adjacency itself is returned.
    """
    return PairMatrix(len(adjacency), (), adjacency, [{} for _ in adjacency]).neighbours


_FULL = OffsetSet.full()


class PairMatrix:
    """Offset sets for the edges of a chordal completion of one component.

    `neighbours` is the `chordal_completion` of the co-occurrence graph
    `adjacency`, filled in place, whose variables `split_components`
    numbered in canonical order, and `lower[v]` lists v's lower neighbours
    in it, ascending.  `rows[k]` maps each completion neighbour l of k to
    P(k,l): the given cell of a pair that constraints join (FULL when all
    of them are FULL), and FULL on every fill edge; `get` answers FULL for
    any other pair, which neither a constraint nor a triangle of the
    completion ever bounds.  Every update writes both orientations, keeping
    the mirror invariant S(P(l,k)) = -S(P(k,l)).  `cells`, a {(k, l): cell}
    view of the rows built on each read, is for tests and tracing.

    One pass, highest index first, fills the completion by the parent rule
    (Rose, Tarjan & Lueker, SIAM J. Comput. 1976): eliminating v joins its
    other lower neighbours to its highest one, p, alone, FULL on each new
    edge.  They are lower neighbours of p, so p's elimination joins them in
    turn: the filled graph is that of joining them all pairwise.
    """

    def __init__(self, size: int, variable_ids, adjacency: list[set[int]], rows: list[dict]):
        self.size = size
        self.variable_ids = list(variable_ids)
        self.neighbours, self.rows = adjacency, rows
        self.lower: list[list[int]] = [[] for _ in range(size)]
        for v in reversed(range(size)):
            below = self.lower[v] = sorted([u for u in adjacency[v] if u < v])
            if len(below) > 1:
                p = below[-1]
                higher, row = adjacency[p], rows[p]
                for u in below[:-1]:
                    if u not in higher:
                        higher.add(u)
                        adjacency[u].add(p)
                        row[u] = rows[u][p] = _FULL
        self.stats = SolveStats()
        self.empty_pair: tuple[int, int] | None = None

    @property
    def cells(self) -> dict[tuple[int, int], OffsetSet]:
        return {(k, l): cell for k, row in enumerate(self.rows) for l, cell in row.items()}

    def get(self, k: int, l: int) -> OffsetSet:
        return self.rows[k].get(l, _FULL)


def initialize_pairs(
    inst: Instance, t: Template, variable_ids: list[int] | None = None, adjacency=None, index=None
) -> PairMatrix:
    """Pair matrix for one preprocessed component, in one pass over its constraints.

    Pairs sharing a constraint start at the intersection of the projections
    of all covering constraints (intersecting every conjunct instead of
    picking one is sound and only tightens), FULL under FULL ones alone;
    fill edges of the completion start FULL.  Each relation's coordinate
    pairs, with the forward and reverse projections it caches, are looked
    up once per call; the mirror cell P(l,k) takes the reverse one, so
    nothing is negated.  The co-occurrence graph adjacency is completed in
    place, or built when not given.  Argument a of a constraint is variable
    index[a] (a when index is None), as `solve` reads the parts of `_split`.
    """
    size = inst.num_vars
    index = range(size) if index is None else index
    rows: list[dict[int, OffsetSet]] = [{} for _ in range(size)]
    plans: dict[str, list[tuple[int, int, OffsetSet, OffsetSet]] | None] = {}
    empty_pair = None
    for c in inst.constraints:
        args = c.args
        if c.relation not in plans:
            rel = t.relation(c.relation)
            plans[c.relation] = None if rel.is_empty else [
                (i - 1, j - 1, project_constraint(rel, i, j), project_constraint(rel, j, i))
                if rel.has_tuples else (i - 1, j - 1, _FULL, _FULL)
                for i, j in combinations(range(1, rel.arity + 1), 2)
            ]
        plan = plans[c.relation]
        if plan is None or len(set(args)) != len(args):
            raise InputError(
                f"constraint {c.relation}{c.args} repeats a variable or is EMPTY; preprocess first"
            )
        for i, j, forward, reverse in plan:
            k, l = index[args[i]], index[args[j]]
            row = rows[k]
            old = row.get(l)
            if old is None:
                row[l], rows[l][k] = forward, reverse
            elif forward is not _FULL:
                row[l] = tightened = old & forward
                rows[l][k] &= reverse
                if tightened.is_empty:
                    empty_pair = (k, l)
    adjacency = adjacency or co_occurrence_adjacency(inst)
    matrix = PairMatrix(size, variable_ids or list(range(size)), adjacency, rows)
    matrix.empty_pair = empty_pair
    return matrix


def _check_bounds(matrix: PairMatrix, bounded: dict[tuple[int, int], OffsetSet], widest: int):
    # A fixpoint property.  Each pair in `bounded` (finite after
    # initialisation) lies in [-D, D], D = `widest`.  At the fixpoint every
    # triangle of the completion gives max P(a,b) <= max P(a,m) + max P(m,b)
    # (infinite for FULL), and on a chordal graph that triangle inequality
    # extends to paths: a counterexample path from a to b with the fewest
    # edges closes a cycle of length >= 4 with the edge (a,b), and a chord
    # of that cycle gives a counterexample with fewer edges.  So every
    # completion edge, fill edges included, lies within D times its hop
    # distance over the bounded pairs.  Mid-propagation a pair first
    # tightened through a detour may transiently hold a wider set.
    hop_graph: list[set[int]] = [set() for _ in range(matrix.size)]
    for k, l in bounded:
        hop_graph[k].add(l)
    hops = [bfs_depths(hop_graph, start) for start in range(matrix.size)]
    for k, row in enumerate(matrix.rows):
        for l, cell in row.items():
            steps = hops[k].get(l)
            if not cell.mask or steps is None:
                continue
            bound = steps * widest
            if cell.offsets[0] < -bound or cell.offsets[-1] > bound:
                raise InternalInvariantError(
                    f"pair ({k},{l}) at hop distance {steps} holds {cell} "
                    f"outside [-{bound},{bound}]"
                )


def _reviser(matrix: PairMatrix, trace: TraceFn | None, queued: set, pending: deque | None):
    """revise(x, m, via, left, right, old) of one `propagate` or `sweep` call:
    P(x,m) <- old & (left + right), from P(x,m), P(x,via) and P(via,m), with
    mirror, stats, trace and empty mark, written to the rows.  With a
    worklist (pending) it queues a cell that shrank and defers a finite
    cell's revision that reads a queued pair; without one, queued is empty.

    Each sumset A + B is computed once per call and then read from a memo
    keyed on the (lo, mask) pairs of A and B, and each new cell is negated
    once per value for its mirror; offset sets are values, so equal keys
    give equal results, and a sum over the span cap raises on its first
    computation as before.  `(A + B) & X` returns X itself exactly when the
    sum covers X, so a no-op revision is told by identity.
    """
    ids, rows, stats = matrix.variable_ids, matrix.rows, matrix.stats
    sums: dict[tuple[int, int | None, int, int], OffsetSet] = {}
    negations: dict[tuple[int, int], OffsetSet] = {}

    def revise(x: int, m: int, via: int, left: OffsetSet, right: OffsetSet, old: OffsetSet):
        if right.mask is None:
            return old
        if queued and old.mask is not None and ((via, m) if via < m else (m, via)) in queued:
            return old
        key = (left.lo, left.mask, right.lo, right.mask)
        total = sums.get(key)
        if total is None:
            total = sums[key] = left + right
        new = total & old
        if new is old:
            return old
        key = (new.lo, new.mask)
        mirror = negations.get(key)
        if mirror is None:
            mirror = negations[key] = -new
        rows[x][m], rows[m][x] = new, mirror
        stats.proper_replacements += 1
        if old.is_full:
            stats.full_to_finite += 1
        if trace is not None:
            trace(f"pair=({ids[x]},{ids[m]}) via {ids[via]} old={old} new={new}")
        if new.is_empty:
            matrix.empty_pair = (x, m)
        elif pending is not None:
            key = (x, m) if x < m else (m, x)
            if key not in queued:
                queued.add(key)
                pending.append(key)
        return new

    return revise


def propagate(matrix: PairMatrix, trace: TraceFn | None = None, debug: bool = False) -> PairMatrix:
    """Tighten the pair matrix to its fixpoint in place.

    The worklist holds the completion edges {k, l}, k < l, whose cell is
    finite and shrank since it was last popped; at the start, every finite
    edge.  Popping {k, l} revises, for every common neighbour m of k and l
    in the completion, P(k,m) via l and then P(l,m) via k, and queues each
    revised cell that shrank.  The triangle's two cells are read once: the
    second revision takes the first one's result for P(k,m), and neither
    reads the dict again.  Each revision writes the mirror cell too, so
    each pair is revised in one orientation.  A revision of a finite cell
    that reads a pair still in the worklist is deferred: it is skipped,
    since that pair's pop runs it again.

    The drained queue is the fixpoint over the triangles of the completion:
    a revision X <- X & (A + B) can shrink X only when A and B are both
    finite.  Every finite cell is queued at the start and whenever it
    shrinks, and popping it runs every revision that reads it (revising
    (l, k) via m gives the negation of revising (k, l) via m), save those
    deferred to the other operand's pop.  Take the later of the last pops
    of A and B, say A's.  A does not change during its own pop, and B is
    not queued when the revision comes up there, or B would be popped again
    later; so the revision ran, undeferred, on the final values of A and B,
    and X has only shrunk since: every revision is a no-op.  Revisions of a
    FULL cell are never deferred.  That costs nothing in soundness, but a
    cell made finite early starts its own propagation early: deferring them
    too stretched the 31-vertex odd `dist13` cycle from 30 pops to 58.  The
    greatest fixpoint is unique, so it is the same cell for cell whatever
    the order of revisions.

    Partial path consistency on the chordal completion decides median-closed
    templates, although it closes fewer triangles than full path
    consistency.  Take the variables in index order and a partial
    assignment x of the lower ones that respects every completion edge
    among them.  The next variable v's lower neighbours a_1..a_k form a
    clique.  Let Q hold of (y_1..y_k) when some z lies in every candidate
    set P(a_i,v) + y_i.  Q is pp-definable from the cells, and they from the
    relations, so a modular median, a majority polymorphism, preserves Q,
    and Q is 2-decomposable: it holds of every tuple whose binary
    projections it holds of (Jeavons, Cohen & Cooper, AIJ 1998).  Every
    cell is nonempty, so Q's projection on (i, j) holds exactly when the
    two candidate sets meet, and for x they do: x_{a_j} - x_{a_i} lies in
    P(a_i,a_j), within P(a_i,v) + P(v,a_j) at the fixpoint.  So v has a
    candidate.  (The sets' own closure would not do: the plain median
    preserves every set, and {1,2}, {2,3}, {1,3} meet pairwise only.)
    Every candidate respects every edge from v to a lower variable, and a
    constraint of higher arity, whose variables form a clique, holds as
    soon as its binary projections do (2-decomposability again).  So the
    greedy walk of `extract_solution` never gets stuck, and every candidate
    it sees extends to a full solution.  Nothing here needs the canonical
    numbering or a connected matrix: any numbering, with its own
    completion, works.  Every cell is implied by the instance, so every
    value that extends is a candidate too: the candidates are exactly the
    values that extend, under full path consistency as here, and the least
    candidate, hence the witness, is the same.  On a complete graph the
    completion is the graph itself and the two coincide.  Without a modular
    median the chordal fixpoint may be weaker than full path consistency;
    unsat answers stay sound either way.

    Revisions come from `_reviser`.  Propagation stops as soon as some pair
    empties.  When debug is set, the replacement budget is enforced and, on
    reaching a fixpoint, every finite cell is checked against the
    hop-distance bound of `_check_bounds`, with D the widest |offset| of the
    cells bounded at the start.
    """
    if matrix.empty_pair is not None:
        return matrix
    rows, neighbours, stats = matrix.rows, matrix.neighbours, matrix.stats
    bounded = {(k, l): c for k, row in enumerate(rows) for l, c in row.items() if not c.is_full}
    if debug:
        budget = sum(c.mask.bit_count() for c in bounded.values())
        widest = max((max(-c.offsets[0], c.offsets[-1]) for c in bounded.values()), default=0)
    pending = deque(sorted((k, l) for k, l in bounded if k < l))
    queued = set(pending)
    revise = _reviser(matrix, trace, queued, pending)

    while pending and matrix.empty_pair is None:
        k, l = pair = pending.popleft()
        queued.discard(pair)
        stats.sweeps += 1
        row_k, row_l = rows[k], rows[l]
        forward, backward = row_k[l], row_l[k]
        for m in sorted(neighbours[k] & neighbours[l]):
            km, lm = row_k[m], row_l[m]
            km = revise(k, m, l, forward, lm, km)
            if km.mask == 0 or revise(l, m, k, backward, km, lm).mask == 0:
                break
    if debug:
        budget += stats.full_to_finite * (2 * matrix.size * widest + 1)
        if stats.proper_replacements > budget:
            raise InternalInvariantError(
                f"{stats.proper_replacements} proper replacements exceed budget {budget}"
            )
        if matrix.empty_pair is None:
            _check_bounds(matrix, bounded, widest)
    return matrix


def sweep(matrix: PairMatrix, trace: TraceFn | None = None) -> PairMatrix:
    """Directional path consistency, in place, for a `Route.one_step` component.

    Each vertex v, from the highest index down, revises every pair a < b of
    its lower completion neighbours once, P(a,b) <- P(a,b) & (P(a,v) +
    P(v,b)) (Dechter & Pearl, AIJ 1987), stopping at the first empty cell, a
    sound unsat.  P(a,v) with a < v changes only while a higher vertex is
    swept, so it is final when v comes up.

    Extraction then cannot get stuck.  With g the common step, every finite
    cell is a progression of step g: the projections are, and sums,
    intersections and negations keep them so (m_g, a majority operation,
    preserves them all).  Let the variables below v respect every
    completion edge among them.  For lower neighbours a < b of v, x_b - x_a
    lies in P(a,b), within P(a,v) + P(v,b), so v's candidate sets
    P(a,v) + x_a and P(b,v) + x_b meet.  Progressions of step g that meet
    pairwise are intervals of one residue class mod g, so they share a
    point (the 2-Helly step).  A common value respects every edge from v
    down, and every constraint is binary or FULL, so every candidate
    extends to a solution, and every value that extends is a candidate, as
    each cell is implied by the instance: the least candidates, and the
    witness, are those of the worklist's fixpoint.
    """
    if matrix.empty_pair is not None:
        return matrix
    rows = matrix.rows
    revise = _reviser(matrix, trace, set(), None)
    for v in reversed(range(matrix.size)):
        lower = matrix.lower[v]
        if len(lower) < 2:
            continue
        row_v = rows[v]
        for i, a in enumerate(lower):
            row_a = rows[a]
            left = row_a[v]  # P(a,v) is final: the revisions at v write below v
            for b in lower[i + 1 :]:
                if revise(a, b, v, left, row_v[b], row_a[b]).mask == 0:
                    return matrix
    return matrix


def extract_solution(matrix: PairMatrix, inst, t: Template, index=None) -> tuple[int, ...] | None:
    """Greedy witness in index order.

    Each next variable takes the least value compatible with the pair sets
    to its lower neighbours in the completion that also satisfies every
    constraint of arity 3 or more whose highest variable it is: the pair
    sets already enforce the binary constraints of a preprocessed instance,
    and FULL ones always hold; only a variable that such a constraint is
    due at decodes more candidates than the lowest.  Returns None when some
    step has no candidate, which cannot happen after `sweep`, nor for
    templates closed under a modular median (see `propagate`).  Any
    numbering works: a variable with no lower completion neighbour takes 0.
    Arguments are read through index, as in `initialize_pairs`.
    """
    if matrix.empty_pair is not None:
        raise InternalInvariantError("extraction attempted on an empty pair matrix")
    index = range(inst.num_vars) if index is None else index
    due: list[list[tuple[RelationDef, tuple[int, ...]]]] = [[] for _ in range(inst.num_vars)]
    for c in inst.constraints:
        rel = t.relation(c.relation)
        if rel.has_tuples and rel.arity > 2:
            args = tuple(map(index.__getitem__, c.args))
            due[max(args)].append((rel, args))
    rows, values = matrix.rows, [0] * inst.num_vars
    for j, lower in enumerate(matrix.lower):
        # AND the masks of the sets P(i,j) + x_i, bit 0 at value base, as
        # `brute` ANDs its domains; bits is None while only FULL ones count
        base = bits = None
        for i in lower:
            cell = rows[i][j]
            if cell.mask is not None:
                shift = values[i] + cell.lo
                if bits is None:
                    base, bits = shift, cell.mask
                elif shift > base:
                    bits, base = bits >> (shift - base) & cell.mask, shift
                else:
                    bits &= cell.mask >> (base - shift)
        # the least candidate, and the next ones only while a due constraint
        # fails; 0 alone when only FULL pairs constrain j, any value meets those
        while bits != 0:
            if bits is not None:
                values[j] = base + (bits & -bits).bit_length() - 1
            if not due[j] or all(
                tuple_in_relation(rel, tuple(values[a] for a in args)) for rel, args in due[j]
            ):
                break
            bits = bits & (bits - 1) if bits else 0
        else:
            return None
    return tuple(values)


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
        fits any step; FULL relations are ignored): then `sweep` decides."""
        steps = set()
        for rel in self.template.relations:
            if rel.has_tuples:
                offsets = sorted(projected_offsets(rel, 1, 2)) if rel.arity == 2 else ()
                gaps = {b - a for a, b in zip(offsets, offsets[1:])}
                steps.add(None if rel.arity > 2 or len(gaps) > 1 else max(gaps, default=0))
        return None not in steps and len(steps - {0}) < 2

    @cached_property
    def modulus(self) -> int | None:
        """`find_modular_median` of t: every stuck extraction re-proves that
        no median exists.  A closure check refused by its size cap verifies
        no median, so it counts as None."""
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

    Each component's `route` is read once.  Modes: "consistency" runs
    propagation, the `sweep` for a one-step component and the worklist for any
    other, plus greedy extraction, and may answer unknown; "brute" searches
    every component exhaustively; "auto" first sends each component whose
    `component_template` is, by its `route`, not one-step, with no modular
    median and a finite core R, to one exhaustive search over R^n, instead of
    propagating it.  That search is complete (see `brute`): it gives unsat as
    a proof and otherwise the least witness in R^n under the search order,
    root at 0.  Every other component, and one whose core search is estimated
    over the cap, runs consistency, and a component whose extraction got stuck
    is then searched alone over the window, as `brute` mode searches it, when
    it fits under the search cap.  Sat verdicts always carry a witness that
    has been re-verified; unsat verdicts from propagation are sound
    unconditionally.  Propagation is undecided, not failed, for a component
    whose pair set would span more than `model.MAX_SPAN` integers.  The
    instance is unsat when some component is; otherwise unknown, with the
    reason of the first component left undecided, when some component is.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    stats = SolveStats()
    prep = preprocess(inst, t)
    if prep.unsat:
        return Verdict.unsat(stats)
    components, adjacency, index = _split(prep.instance)
    stats.components = len(components)
    cap = DEFAULT_NODE_CAP if node_cap is None else node_cap
    settled = []
    pending = []  # undecided components, with their own relations and the reason
    stuck = "witness extraction failed; no modular median verified for the template"
    for variables, sub in components:
        reason = None  # brute mode searches every component
        own = component_template(sub, prep.template)
        facts = route(own)
        # the sweep decides a one-step component, and consistency one whose
        # relations have a modular median; the rest may have a finite core
        if mode == "auto" and not facts.one_step and facts.modulus is None and facts.core:
            from . import brute

            try:
                witness = brute.brute_solve(sub, own, cap, core=facts.core, index=index)
            except CapExceededError:
                pass  # the window search may still fit
            else:
                stats.core_searches += 1
                if witness is None:
                    return Verdict.unsat(stats)
                settled.append((variables, witness))
                continue
        if mode != "brute":
            try:
                graph = _component_graph(adjacency, index, variables)  # propagated only
                matrix = initialize_pairs(sub, prep.template, variables, graph, index)
                if facts.one_step:
                    sweep(matrix, trace=trace)
                else:
                    propagate(matrix, trace=trace, debug=debug)
            except CapExceededError as e:
                reason = f"propagation refused: {e}"
            else:
                stats.absorb(matrix.stats)
                if matrix.empty_pair is not None:
                    return Verdict.unsat(stats)
                witness = extract_solution(matrix, sub, prep.template, index)
                if facts.one_step and (witness is None or debug):
                    # the worklist, checked and counted apart, must agree
                    matrix.stats = SolveStats()
                    if witness is None or extract_solution(
                        propagate(matrix, debug=True), sub, prep.template, index
                    ) != witness:
                        raise InternalInvariantError(f"extraction after a sweep gave {witness}")
                if witness is not None:
                    settled.append((variables, witness))
                    continue
                reason = stuck
        if reason == stuck and facts.modulus:
            raise InternalInvariantError(
                "extraction failed although its relations are closed under a modular median"
            )
        pending.append((variables, sub, own, reason))

    # the window search goes last, so that no component found unsat by
    # propagation waits behind it
    reasons = []
    for variables, sub, own, reason in pending:
        if mode == "consistency":
            reasons.append(reason)
            continue
        from . import brute

        try:
            witness = brute.brute_solve(sub, own, cap, index=index)
        except CapExceededError as e:
            reasons.append(f"{reason}; {e}" if reason else str(e))
            continue
        if witness is None:
            return Verdict.unsat(stats)
        settled.append((variables, witness))
    if reasons:
        return Verdict.unknown(reasons[0], stats)
    values = [0] * inst.num_vars
    for variables, witness in settled:
        for local, g in enumerate(variables):
            values[g] = witness[local]
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
