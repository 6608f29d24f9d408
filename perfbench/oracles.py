"""Correctness checks that share no code with distcsp.

Everything here works on plain Python data (edge lists, offset tuples,
integer values) and never imports the package under test, so a verdict or a
witness is judged by an independent restatement of its meaning.  Relations
are given as ``(arity, tuples)`` pairs, tuples holding the ``arity - 1``
offsets relative to the first coordinate.
"""

from __future__ import annotations

import math
from collections import deque


def bipartite(n: int, edges) -> bool:
    """Two-colourability by breadth-first search."""
    side = [None] * n
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for start in range(n):
        if side[start] is not None:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if side[w] is None:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def three_colourable(n: int, edges) -> bool:
    """Three-colourability by plain backtracking in vertex order."""
    earlier = [[] for _ in range(n)]
    for a, b in edges:
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            return False
        earlier[hi].append(lo)
    colour = [0] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for c in range(3):
            if all(colour[u] != c for u in earlier[v]):
                colour[v] = c
                if extend(v + 1):
                    return True
        return False

    return extend(0)


def edge_witness_ok(n: int, edges, values, allowed: frozenset[int]) -> bool:
    """Every edge (a, b) has values[b] - values[a] in ``allowed``."""
    if values is None or len(values) != n:
        return False
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        return False
    return all(values[b] - values[a] in allowed for a, b in edges)


def median(d: int, x: int, y: int, z: int) -> int:
    """The congruence-aware median, restated from its definition.

    All three congruent mod d: the middle value.  Exactly two congruent: the
    earlier of those two.  None congruent: the first argument.
    """
    rx, ry, rz = x % d, y % d, z % d
    if rx == ry == rz:
        return x + y + z - max(x, y, z) - min(x, y, z)
    if rx == ry or rx == rz:
        return x
    if ry == rz:
        return y
    return x


def median_violation(d: int, relations, rng, budget: int = 20_000):
    """A triple of relation tuples whose coordinatewise median escapes, or None.

    Base points of the second and third tuple range exhaustively over
    [-w, w] with w = 2 * (largest offset + d) when that fits in ``budget``
    median evaluations, and are otherwise sampled from that window.  Finding
    nothing is evidence, not proof; finding something refutes the modulus.
    """
    for arity, tuples in relations:
        if not tuples:
            continue
        rows = [(0, *v) for v in tuples]
        members = set(tuples)
        delta = max((abs(c) for v in tuples for c in v), default=0)
        w = 2 * (delta + d)
        triples = len(rows) ** 3 * (2 * w + 1) ** 2

        def escapes(r1, r2, r3, s2, s3):
            image = [median(d, r1[j], s2 + r2[j], s3 + r3[j]) for j in range(arity)]
            return tuple(c - image[0] for c in image[1:]) not in members

        if triples <= budget:
            for r1 in rows:
                for r2 in rows:
                    for r3 in rows:
                        for s2 in range(-w, w + 1):
                            for s3 in range(-w, w + 1):
                                if escapes(r1, r2, r3, s2, s3):
                                    return (r1, r2, r3, s2, s3)
        else:
            for _ in range(budget):
                r1, r2, r3 = (rows[rng.randrange(len(rows))] for _ in range(3))
                s2, s3 = rng.randint(-w, w), rng.randint(-w, w)
                if escapes(r1, r2, r3, s2, s3):
                    return (r1, r2, r3, s2, s3)
    return None


def periodic_map(period: int, values, drift: int):
    """x -> values[x mod p] + drift * p * floor(x / p)."""
    return lambda x: values[x % period] + drift * period * (x // period)


def is_endomorphism(period: int, values, drift: int, relations) -> bool:
    """The map sends every orbit into its relation; one period of bases suffices."""
    e = periodic_map(period, values, drift)
    for arity, tuples in relations:
        members = set(tuples)
        for v in tuples:
            for base in range(period):
                image = [e(base + c) for c in (0, *v)]
                if tuple(c - image[0] for c in image[1:]) not in members:
                    return False
    return True


def is_translation_or_reflection(period: int, values, drift: int) -> bool:
    """Whether the map is x -> x + c or x -> -x + c."""
    e = periodic_map(period, values, drift)
    return any(
        all(e(x) == sign * x + e(0) for x in range(-2 * period, 2 * period + 1))
        for sign in (1, -1)
    )


def realized_distances(relations) -> tuple[int, ...]:
    """Positive gaps between any two coordinates of any orbit."""
    gaps = set()
    for _, tuples in relations:
        for v in tuples:
            row = (0, *v)
            for i in range(len(row)):
                for j in range(i + 1, len(row)):
                    if row[i] != row[j]:
                        gaps.add(abs(row[j] - row[i]))
    return tuple(sorted(gaps))


def walk_lengths(distances, upto: int) -> dict[int, int]:
    """Fewest +-d steps from 0 to each q in [1, upto], by unwindowed BFS."""
    targets = set(range(1, upto + 1))
    found: dict[int, int] = {}
    frontier, seen, depth = {0}, {0}, 0
    while targets - found.keys() and frontier:
        depth += 1
        frontier = {p + s * d for p in frontier for d in distances for s in (1, -1)} - seen
        seen |= frontier
        for q in frontier & targets:
            found[q] = depth
    return found


def analysis_expected(relations):
    """(distances, max distance, connected, walk lengths below D, stretch)."""
    distances = realized_distances(relations)
    biggest = max(distances)
    if math.gcd(*distances) != 1:
        return distances, biggest, False, {}, None
    lengths = walk_lengths(distances, biggest - 1)
    stretch = max((biggest * l for l in lengths.values()), default=0)
    return distances, biggest, True, lengths, stretch


def decomposition_counterexample_ok(arity: int, tuples, candidate) -> bool:
    """``candidate`` has every pairwise gap realized yet is not in the relation."""
    if len(candidate) != arity or candidate[0] != 0:
        return False
    rows = [(0, *v) for v in tuples]
    for i in range(arity):
        for j in range(i + 1, arity):
            if all(r[j] - r[i] != candidate[j] - candidate[i] for r in rows):
                return False
    return tuple(candidate[1:]) not in set(tuples)
