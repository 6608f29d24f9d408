"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive results from first principles
(plain BFS, itertools enumeration, a from-scratch median) instead of calling
the package's algorithms, so tests can cross-examine the implementation.
"""

from __future__ import annotations

import itertools
from collections import deque

from distcsp.model import Constraint, Instance, OffsetSet, RelationDef, Template


def binary_relation(name: str, offsets) -> RelationDef:
    return RelationDef(name, 2, tuple((o,) for o in offsets))


def symmetric(*magnitudes: int) -> tuple[int, ...]:
    out = []
    for m in magnitudes:
        out += [m, -m]
    return tuple(out)


DIST13 = Template("dist13", (binary_relation("dist13", symmetric(1, 3)),))
DIST12 = Template("dist12", (binary_relation("dist12", symmetric(1, 2)),))
DIFF13 = Template("diff13", (binary_relation("diff13", (1, 3)),))
SHIFT1 = Template("shift1", (binary_relation("shift1", (1,)),))
EQUALITY = Template("equality", (binary_relation("eq", (0,)),))
DIST136_3 = Template(
    "dist136_3",
    (
        binary_relation("dist136", symmetric(1, 3, 6)),
        binary_relation("dist3", symmetric(3)),
    ),
)
TERNARY_CHAIN = Template("chain3", (RelationDef("chain3", 3, ((1, 2),)),))
TWODEC_TRUE = Template("twodec_true", (RelationDef("r", 3, ((0, 0), (1, 1), (0, 1))),))
TWODEC_FALSE = Template("twodec_false", (RelationDef("r", 3, ((0, 1), (1, 0), (1, 1))),))

FIXTURE_TEMPLATES = (
    DIST13,
    DIST12,
    DIFF13,
    SHIFT1,
    EQUALITY,
    DIST136_3,
    TERNARY_CHAIN,
    TWODEC_TRUE,
    TWODEC_FALSE,
)


def graph_instance(rel_name: str, n: int, edges) -> Instance:
    return Instance(n, tuple(Constraint(rel_name, (a, b)) for a, b in edges))


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def oracle_walk_length(distances, q: int, max_depth: int = 10_000) -> int:
    """Shortest number of +-d steps from 0 to q, by unwindowed BFS."""
    if q == 0:
        return 0
    frontier = {0}
    visited = {0}
    for depth in range(1, max_depth + 1):
        frontier = {
            pos + step
            for pos in frontier
            for d in distances
            for step in (d, -d)
        } - visited
        if q in frontier:
            return depth
        visited |= frontier
        if not frontier:
            break
    raise AssertionError(f"no walk from 0 to {q} with steps {distances}")


def oracle_median(d: int, x: int, y: int, z: int) -> int:
    """Independent restatement of the congruence-aware median."""
    groups: dict[int, list[int]] = {}
    for value in (x, y, z):
        groups.setdefault(value % d, []).append(value)
    if len(groups) == 1:
        return sorted((x, y, z))[1]
    if len(groups) == 3:
        return x
    pair = next(vals for vals in groups.values() if len(vals) == 2)
    for value in (x, y, z):
        if value in pair:
            return value
    raise AssertionError("unreachable")


def oracle_in_relation(rel: RelationDef, values) -> bool:
    if rel.body == "full":
        return True
    if rel.body == "empty":
        return False
    return tuple(v - values[0] for v in values[1:]) in set(rel.body)


def oracle_falsify_closure(d, rel, trials, shift_bound, rng):
    """Random search for a triple of relation tuples whose median escapes.

    Returns a witness triple or None.  Uses oracle_median throughout, so it
    shares no code with the package's closure checker.
    """
    vectors = [(0, *v) for v in rel.body]
    for _ in range(trials):
        rows = []
        for _ in range(3):
            base = rng.randint(-shift_bound, shift_bound)
            vec = vectors[rng.randrange(len(vectors))]
            rows.append(tuple(base + c for c in vec))
        image = tuple(
            oracle_median(d, rows[0][j], rows[1][j], rows[2][j])
            for j in range(rel.arity)
        )
        if not oracle_in_relation(rel, image):
            return tuple(rows)
    return None


def oracle_closure_violation(d, rel, window, beyond=-1):
    """First orbit triple whose median escapes, over the shift box [-window, window]^2.

    The first row has base 0 and the others bases a and b; only shifts with
    max(|a|, |b|) > beyond are tried.  Returns (rows, image) or None.
    """
    vectors = [(0, *v) for v in rel.body]
    span = range(-window, window + 1)
    for v1, v2, v3 in itertools.product(vectors, repeat=3):
        for a, b in itertools.product(span, span):
            if max(abs(a), abs(b)) <= beyond:
                continue
            rows = (v1, tuple(a + c for c in v2), tuple(b + c for c in v3))
            image = tuple(oracle_median(d, *column) for column in zip(*rows))
            if not oracle_in_relation(rel, image):
                return rows, image
    return None


def oracle_two_decomposable(rel: RelationDef, window: int):
    """Enumerate candidate tuples whose pairwise gaps all occur in the relation."""
    k = rel.arity
    vectors = [(0, *v) for v in rel.body]
    gaps = {
        (i, j): {w[j] - w[i] for w in vectors}
        for i in range(k)
        for j in range(k)
        if i != j
    }
    for rest in itertools.product(range(-window, window + 1), repeat=k - 1):
        cand = (0, *rest)
        if all(
            cand[j] - cand[i] in gaps[(i, j)]
            for i in range(k)
            for j in range(k)
            if i != j
        ) and not oracle_in_relation(rel, cand):
            return False, cand
    return True, None


def oracle_satisfiable(inst: Instance, t: Template, window: int | None = None):
    """Exhaustive satisfiability by plain enumeration; first variable pinned to 0.

    Only sound for connected instances, where any witness can be translated
    so the first variable is 0 and all values stay within (n-1)*D.  Values
    are tried in the order of itertools.product over the window, depth
    first, and a constraint is checked as soon as its highest variable has
    a value; that only skips assignments that fail it, so the witness is the
    first one in product order.
    """
    gaps = [
        abs(w[j] - w[i])
        for rel in t.relations
        if rel.has_tuples
        for v in rel.offset_tuples
        for w in [(0, *v)]
        for i in range(len(w))
        for j in range(i + 1, len(w))
    ]
    biggest = max(gaps, default=0)
    if window is None:
        window = (inst.num_vars - 1) * biggest
    rels = {rel.name: rel for rel in t.relations}
    span = range(-window, window + 1)
    due: list[list[Constraint]] = [[] for _ in range(inst.num_vars)]
    for c in inst.constraints:
        due[max(c.args)].append(c)
    values = [0] * inst.num_vars

    def extend(j: int) -> bool:
        if j == inst.num_vars:
            return True
        for values[j] in span if j else (0,):
            if all(
                oracle_in_relation(rels[c.relation], [values[a] for a in c.args]) for c in due[j]
            ) and extend(j + 1):
                return True
        return False

    return tuple(values) if extend(0) else None


def oracle_decides(inst: Instance, t: Template) -> bool:
    """Satisfiability of any instance by `oracle_satisfiable`, one component
    at a time.

    A FULL constraint always holds and an EMPTY one never does, so the
    components are those of the other constraints.  Each is renumbered in
    breadth-first order, so that every constraint is checked early in the
    enumeration.
    """
    rels = {rel.name: rel for rel in t.relations}
    if any(rels[c.relation].body == "empty" for c in inst.constraints):
        return False
    kept = Instance(
        inst.num_vars, tuple(c for c in inst.constraints if rels[c.relation].body != "full")
    )
    for comp in components_of(kept):
        place = {v: i for i, v in enumerate(bfs_order(kept, comp[0]))}
        sub = Instance(
            len(comp),
            tuple(
                Constraint(c.relation, tuple(place[a] for a in c.args))
                for c in kept.constraints
                if c.args[0] in place
            ),
        )
        if oracle_satisfiable(sub, t) is None:
            return False
    return True


def oracle_three_colourable(n: int, edges) -> bool:
    """Whether the graph has a proper 3-colouring, by plain backtracking in
    vertex order.  Over dist12 = {+-1, +-2} a graph is satisfiable exactly
    then: x mod 3 colours a solution x properly, and a colouring into
    {0, 1, 2} is itself a solution."""
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    colours: list[int | None] = [None] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for colours[v] in range(3):
            if all(colours[w] != colours[v] for w in adjacency[v]) and extend(v + 1):
                return True
        colours[v] = None
        return False

    return extend(0)


def spanning_tree_edges(n: int, rng) -> list[tuple[int, int]]:
    """A random spanning tree on n vertices: each vertex joins an earlier one."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def random_connected_instance(t: Template, n: int, rng, extra: int = 2) -> Instance:
    """Random connected instance: spanning tree plus a few extra constraints."""
    names = [rel.name for rel in t.relations]
    constraints = []
    for a, b in spanning_tree_edges(n, rng):
        rel = t.relation(rng.choice(names))
        if rel.arity == 2:
            args = (a, b) if rng.random() < 0.5 else (b, a)
        else:
            others = [v for v in range(n) if v not in (a, b)]
            c = rng.choice(others) if others else a
            args = tuple(rng.sample([a, b, c], 3)) if others else (a, b, a)
        constraints.append(Constraint(rel.name, args))
    for _ in range(extra):
        rel = t.relation(rng.choice(names))
        args = tuple(rng.choices(range(n), k=rel.arity))
        constraints.append(Constraint(rel.name, args))
    return Instance(n, tuple(constraints))


def disjoint_union(first, second) -> tuple[Instance, Template]:
    """Two (instance, template) pairs side by side: the second instance's
    variables come after the first's and its relations get a "+" suffix, so
    that the two templates cannot clash."""
    (a, ta), (b, tb) = first, second
    renamed = tuple(RelationDef(rel.name + "+", rel.arity, rel.body) for rel in tb.relations)
    shifted = tuple(
        Constraint(c.relation + "+", tuple(v + a.num_vars for v in c.args))
        for c in b.constraints
    )
    return (
        Instance(a.num_vars + b.num_vars, a.constraints + shifted),
        Template(f"{ta.name}+{tb.name}", ta.relations + renamed),
    )


def random_offset_run(rng, d: int, bound: int = 4) -> tuple[int, ...]:
    """A contiguous run of one residue class mod d inside [-bound, bound]."""
    residue = rng.randrange(d)
    values = [v for v in range(-bound, bound + 1) if v % d == residue]
    lo = rng.randrange(len(values))
    hi = rng.randrange(lo, len(values))
    return tuple(values[lo : hi + 1])


def random_median_template(rng, name: str) -> Template:
    """A random template built from median-closed pieces (runs and boxes)."""
    relations = []
    for idx in range(rng.choice((1, 1, 2))):
        d = rng.choice((1, 1, 2, 2, 3))
        if rng.random() < 0.7:
            offsets = random_offset_run(rng, d)
            relations.append(binary_relation(f"r{idx}", offsets))
        else:
            a = random_offset_run(rng, d)[:3]
            b = random_offset_run(rng, d)[:3]
            tuples = tuple((x, y) for x in a for y in b)
            relations.append(RelationDef(f"r{idx}", 3, tuples))
    return Template(name, tuple(relations))


def random_any_template(rng, name: str) -> Template:
    """A random template with no closure guarantees at all."""
    relations = []
    for idx in range(rng.choice((1, 1, 2))):
        arity = rng.choice((2, 2, 2, 3))
        count = rng.randint(1, 4)
        tuples = {
            tuple(rng.randint(-4, 4) for _ in range(arity - 1)) for _ in range(count)
        }
        relations.append(RelationDef(f"r{idx}", arity, tuple(tuples)))
    return Template(name, tuple(relations))


def oracle_pair_closure(inst: Instance, t: Template, edges=None):
    """Path-consistency fixpoint by repeated full passes over plain sets.

    Keys are ordered variable pairs; a value is a set of allowed differences
    x_l - x_k, or None when the pair is unconstrained.  Every pass applies
    P(k,l) <- P(k,l) & (P(k,m) + P(m,l)) for all k, l, m until a pass changes
    nothing.  Returns None as soon as some pair becomes empty.  Expects an
    instance without repeated variables in a constraint.

    When edges, a set of ordered pairs holding both orientations of each
    pair that shares a constraint, is given, only those pairs are kept and
    a pass revises through the triangles of that graph alone.
    """
    rels = {rel.name: rel for rel in t.relations}
    n = inst.num_vars
    if edges is None:
        edges = [(k, l) for k in range(n) for l in range(n) if k != l]
    pairs = {pair: None for pair in edges}
    for c in inst.constraints:
        body = rels[c.relation].body
        if body == "full":
            continue
        rows = [] if body == "empty" else [(0, *v) for v in body]
        for i, k in enumerate(c.args):
            for j, l in enumerate(c.args):
                if i != j:
                    gaps = {w[j] - w[i] for w in rows}
                    pairs[k, l] = gaps if pairs[k, l] is None else pairs[k, l] & gaps
    if any(s == set() for s in pairs.values()):
        return None
    changed = True
    while changed:
        changed = False
        for (k, l), current in pairs.items():
            for m in range(n):
                if m in (k, l) or pairs.get((k, m)) is None or pairs.get((m, l)) is None:
                    continue
                through = {a + b for a in pairs[k, m] for b in pairs[m, l]}
                new = through if current is None else current & through
                if new != current:
                    if not new:
                        return None
                    pairs[k, l] = current = new
                    changed = True
    return pairs


def components_of(inst: Instance) -> list[list[int]]:
    adjacency: list[set[int]] = [set() for _ in range(inst.num_vars)]
    for c in inst.constraints:
        distinct = sorted(set(c.args))
        for i, a in enumerate(distinct):
            for b in distinct[i + 1 :]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    seen = [False] * inst.num_vars
    out = []
    for start in range(inst.num_vars):
        if seen[start]:
            continue
        comp, queue = [], deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        out.append(sorted(comp))
    return out


def bfs_order(inst: Instance, start: int = 0) -> list[int]:
    """Breadth-first order from start over the co-occurrence graph,
    neighbours taken in ascending order."""
    adjacency: list[set[int]] = [set() for _ in range(inst.num_vars)]
    for c in inst.constraints:
        for a in c.args:
            adjacency[a].update(b for b in c.args if b != a)
    order, queue = [start], deque([start])
    while queue:
        for w in sorted(adjacency[queue.popleft()]):
            if w not in order:
                order.append(w)
                queue.append(w)
    return order


def oracle_co_occurrence(inst: Instance) -> list[set[int]]:
    """Neighbour sets joining every two distinct variables of a constraint."""
    adjacency: list[set[int]] = [set() for _ in range(inst.num_vars)]
    for c in inst.constraints:
        for a, b in itertools.permutations(set(c.args), 2):
            adjacency[a].add(b)
    return adjacency


def elimination_game(adjacency: list[set[int]]) -> list[set[int]]:
    """The filled graph of eliminating the highest vertex first, naively:
    each eliminated vertex joins all of its remaining neighbours pairwise."""
    filled = [set(neighbours) for neighbours in adjacency]
    for v in reversed(range(len(filled))):
        lower = [u for u in filled[v] if u < v]
        for a, b in itertools.permutations(lower, 2):
            filled[a].add(b)
    return filled


def offset_set_walk(matrix, inst: Instance, t: Template):
    """Greedy extraction as plain offset-set intersections over `cells`:
    each variable in index order takes its least candidate that satisfies
    the constraints of arity 3 or more whose highest variable it is; 0
    when only FULL cells bound it; None when it has no candidate."""
    values = [0] * inst.num_vars
    for j in range(inst.num_vars):
        candidates = OffsetSet.full()
        for (i, l), cell in matrix.cells.items():
            if l == j and i < j:
                candidates &= cell.shifted(values[i])
        due = [
            (t.relation(c.relation), c.args)
            for c in inst.constraints
            if t.relation(c.relation).has_tuples and len(c.args) > 2 and max(c.args) == j
        ]
        for value in (0,) if candidates.is_full else candidates.offsets:
            values[j] = value
            if all(oracle_in_relation(rel, [values[a] for a in args]) for rel, args in due):
                break
        else:
            return None
    return tuple(values)
