"""Distance profile of a template.

The distance graph of a template puts an edge between integers x and y
whenever |x - y| occurs as a gap between two coordinates of some orbit of
one of its relations.  The graph is connected exactly when the gcd of the
realized distances is 1, and in that case the length of a shortest walk
from 0 to q (steps of size +-d for each realized distance d) grows linearly
in q.  Those walk lengths bound how much an endomorphism can contract the
graph metric, which is what `stretch_constant` quantifies.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import CapExceededError, DisconnectedTemplateError, InputError
from .model import MAX_SPAN, FrozenRecord, Template


class AnalysisReport(FrozenRecord):
    """Summary of the distance structure of one template."""

    distances: tuple[int, ...]
    max_distance: int
    connected: bool
    path_lengths: dict[int, int]
    stretch_bound: int | None

    __hash__ = None  # unhashable: path_lengths is a dict


def gaifman_distances(t: Template) -> tuple[int, ...]:
    """All positive gaps |w_j - w_i| realized between coordinates of orbits.

    Raises InputError when no relation contributes an edge (every body is a
    marker, or all offsets coincide).
    """
    found: set[int] = set()
    for rel in t.relations:
        if not rel.has_tuples:
            continue
        for v in rel.offset_tuples:
            w = (0, *v)
            for i in range(len(w)):
                for j in range(i + 1, len(w)):
                    gap = abs(w[j] - w[i])
                    if gap:
                        found.add(gap)
    if not found:
        raise InputError(f"template {t.name} realizes no distances (no graph edges)")
    return tuple(sorted(found))


def is_connected(t: Template) -> bool:
    """The distance graph on Z is connected iff the realized distances are coprime."""
    return math.gcd(*gaifman_distances(t)) == 1


_walk_tables: dict[tuple[int, ...], list[int | None]] = {}


def _walk_lengths(distances: tuple[int, ...], upto: int) -> list[int | None]:
    """Shortest-walk lengths from 0 to every q in [0, upto], by one BFS.

    Any multiset of steps can be reordered so partial sums stay within
    max-step of the interval [0, q], so a window modestly wider than the
    targets already contains some optimal walk for each of them.
    """
    cached = _walk_tables.get(distances)
    if cached is not None and len(cached) > upto:
        return cached
    biggest = max(distances)
    half = upto + 10 * biggest
    while True:
        if 2 * half + 1 > MAX_SPAN:
            raise CapExceededError(
                f"walk search window exceeded {MAX_SPAN} cells for distances {distances}"
            )
        depth: dict[int, int] = {0: 0}
        queue = deque([0])
        while queue:
            pos = queue.popleft()
            for d in distances:
                for nxt in (pos + d, pos - d):
                    if -half <= nxt <= half and nxt not in depth:
                        depth[nxt] = depth[pos] + 1
                        queue.append(nxt)
        table: list[int | None] = [depth.get(q) for q in range(upto + 1)]
        if all(v is not None for v in table[1:]) or math.gcd(*distances) != 1:
            _walk_tables[distances] = table
            return table
        half *= 2


def realizing_path_length(t: Template, q: int) -> int:
    """Length of a shortest walk from 0 to q using steps +-d per realized distance."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise InputError(f"walk target must be a positive integer, got {q!r}")
    distances = gaifman_distances(t)
    if math.gcd(*distances) != 1:
        raise DisconnectedTemplateError(
            f"template {t.name} has distance gcd {math.gcd(*distances)}; walks cannot reach every gap"
        )
    length = _walk_lengths(distances, q)[q]
    assert length is not None
    return length


def graph_distance(t: Template, x: int, y: int) -> int:
    """Distance between x and y in the template's distance graph on Z."""
    if x == y:
        return 0
    return realizing_path_length(t, abs(x - y))


def stretch_constant(t: Template) -> int:
    """max over 0 < q < D of D * (shortest walk length to q); 0 when D = 1.

    Any endomorphism e of a connected template satisfies
    d(e(x), e(y)) <= d(x, y) + stretch_constant in the graph metric.
    """
    report = analyze_template(t)
    if report.stretch_bound is None:
        raise DisconnectedTemplateError(f"template {t.name} is disconnected")
    return report.stretch_bound


def analyze_template(t: Template) -> AnalysisReport:
    """Distances, connectivity, walk lengths below D and the stretch bound."""
    distances = gaifman_distances(t)
    biggest = max(distances)
    connected = math.gcd(*distances) == 1
    if not connected:
        return AnalysisReport(distances, biggest, False, {}, None)
    table = _walk_lengths(distances, biggest - 1) if biggest > 1 else []
    path_lengths = {q: table[q] for q in range(1, biggest)}  # type: ignore[dict-item]
    stretch = max((biggest * l for l in path_lengths.values()), default=0)
    return AnalysisReport(distances, biggest, True, path_lengths, stretch)


def max_distance_or_zero(t: Template) -> int:
    """Largest realized distance, or 0 when the template has no graph edges."""
    try:
        return max(gaifman_distances(t))
    except InputError:
        return 0
