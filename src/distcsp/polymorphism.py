"""Median-with-congruence operations and closure checks.

For a modulus d, the ternary operation m_d picks the median when all three
arguments are congruent mod d, the earlier of the two congruent arguments
when exactly two are, and the first argument otherwise.  Every m_d is a
majority operation and commutes with translations.  A template all of whose
relations are closed under some m_d admits witness extraction straight from
the pairwise propagation fixpoint, so detecting such a modulus is the key
tractability test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .analysis import max_distance_or_zero
from .errors import CapExceededError, InputError
from .model import (
    DEFAULT_NODE_CAP,
    MAX_SPAN,
    RelationDef,
    Template,
    projected_offsets,
    tuple_in_relation,
)

IntTuple = tuple[int, ...]

# each orbit triple costs one numpy round, 0.17-0.43 ms, as much as about 5,000
# cells at 47 ns each (2-vCPU machine, Python 3.11): the least charge per triple
ROUND_CELLS = 5_000

# the base points of `random_preservation_trials` range over [-SHIFT_BOUND, SHIFT_BOUND]
SHIFT_BOUND = 1_000_000


def modular_median(d: int, x: int, y: int, z: int) -> int:
    """The congruence-aware median of x, y, z for modulus d."""
    if d < 1:
        raise InputError(f"modulus must be positive, got {d}")
    rx, ry, rz = x % d, y % d, z % d
    if rx == ry == rz:
        return sorted((x, y, z))[1]
    if rx == ry or rx == rz:
        return x
    if ry == rz:
        return y
    return x


@dataclass(frozen=True)
class PreservationResult:
    """Outcome of a closure check; witnesses are concrete integer tuples."""

    preserved: bool
    witness: tuple[IntTuple, IntTuple, IntTuple] | None = None
    image: IntTuple | None = None
    trivial: bool = False


def preservation_window(d: int, rel: RelationDef) -> int:
    """Base-point shift bound for the exhaustive closure check."""
    return 6 * (rel.max_offset() + d) + 1


def _modular_median_grid(d: int, x, y, z):
    # same case split as modular_median, vectorized; np.select takes the
    # first condition that holds
    import numpy as np

    rx, ry, rz = x % d, y % d, z % d
    median = x + y + z - np.maximum(np.maximum(x, y), z) - np.minimum(np.minimum(x, y), z)
    return np.select(
        [(rx == ry) & (ry == rz), rx == ry, rx == rz, ry == rz],
        [median, x, x, y],
        default=x,
    )


def preserves_relation(d: int, rel: RelationDef) -> PreservationResult:
    """Exhaustively check that m_d maps orbit triples of ``rel`` back into it.

    Since m_d commutes with translation, the first tuple's base point is
    pinned to 0 and the other two range over [-W, W], where W is
    `preservation_window`(d, rel); it grows with both the relation's offsets
    and the modulus, wide enough that any violation shows up at some
    in-window configuration.
    FULL and EMPTY bodies are closed under anything and report trivially.
    numpy, which only this check needs, is imported on first use.  Raises
    CapExceededError, before that import, when one shift grid exceeds
    `model.MAX_SPAN` cells or all orbit triples together, each charged at
    least `ROUND_CELLS`, exceed `model.DEFAULT_NODE_CAP` cells.
    """
    if d < 1:
        raise InputError(f"modulus must be positive, got {d}")
    if not rel.has_tuples:
        return PreservationResult(True, trivial=True)
    tuples = rel.offset_tuples
    bound = preservation_window(d, rel)
    grid = (2 * bound + 1) ** 2
    triples = len(tuples) ** 3
    if grid > MAX_SPAN or triples * max(grid, ROUND_CELLS) > DEFAULT_NODE_CAP:
        raise CapExceededError(
            f"closure check of {rel.name} over {triples} orbit triples of {grid} shifts "
            f"exceeds the cap of {MAX_SPAN} shifts or {DEFAULT_NODE_CAP} cells"
        )
    import numpy as np

    k = rel.arity
    delta = rel.max_offset()
    vectors = [(0, *v) for v in tuples]
    shifts = np.arange(-bound, bound + 1, dtype=np.int64)
    a2 = shifts[:, None]
    a3 = shifts[None, :]
    # encode image offset tuples as single integers for membership tests
    span = 2 * (bound + delta)
    radix = 2 * span + 1
    member = np.array(
        sorted(sum((c + span) * radix**i for i, c in enumerate(v)) for v in tuples),
        dtype=np.int64,
    )
    for v1 in vectors:
        for v2 in vectors:
            for v3 in vectors:
                comps = [
                    _modular_median_grid(d, v1[j], a2 + v2[j], a3 + v3[j])
                    for j in range(k)
                ]
                code = np.zeros_like(comps[0])
                for i, comp in enumerate(comps[1:]):
                    code = code + (comp - comps[0] + span) * radix**i
                bad = ~np.isin(code, member)
                if bad.any():
                    r, c = np.argwhere(bad)[0]
                    s2, s3 = int(shifts[r]), int(shifts[c])
                    t1 = tuple(v1)
                    t2 = tuple(s2 + c_ for c_ in v2)
                    t3 = tuple(s3 + c_ for c_ in v3)
                    image = tuple(
                        modular_median(d, t1[j], t2[j], t3[j]) for j in range(k)
                    )
                    return PreservationResult(False, (t1, t2, t3), image)
    return PreservationResult(True)


def random_preservation_trials(
    d: int,
    rel: RelationDef,
    trials: int = 100_000,
    seed: int = 0,
) -> tuple[IntTuple, IntTuple, IntTuple] | None:
    """Randomized search for a closure violation; returns the first witness found.

    Samples orbit triples with base points up to `SHIFT_BOUND`, far outside
    the exhaustive check's window.  Used to cross-examine windowed verdicts.
    """
    if not rel.has_tuples:
        return None
    rng = random.Random(seed)
    vectors = [(0, *v) for v in rel.offset_tuples]
    for _ in range(trials):
        picked = [rng.choice(vectors) for _ in range(3)]
        bases = [rng.randint(-SHIFT_BOUND, SHIFT_BOUND) for _ in range(3)]
        t1, t2, t3 = (
            tuple(b + c for c in v) for b, v in zip(bases, picked)
        )
        image = tuple(modular_median(d, t1[j], t2[j], t3[j]) for j in range(rel.arity))
        if not tuple_in_relation(rel, image):
            return (t1, t2, t3)
    return None


def default_modulus_bound(t: Template) -> int:
    """Twice the largest realized distance, or 1 when the template has no
    graph edges (where the plain median always works)."""
    biggest = max_distance_or_zero(t)
    return 2 * biggest if biggest else 1


def find_modular_median(t: Template, d_max: int | None = None) -> int | None:
    """Smallest modulus d <= d_max that every relation of ``t`` is closed under.

    ``d_max`` defaults to `default_modulus_bound`.  Each modulus is checked
    by `preserves_relation` over each relation's `preservation_window`, so
    the largest shift an accepted d was checked at is
    `verification_window`(t, d).
    """
    if d_max is None:
        d_max = default_modulus_bound(t)
    if d_max < 1:
        raise InputError(f"modulus bound must be positive, got {d_max}")
    for d in range(1, d_max + 1):
        if all(preserves_relation(d, rel).preserved for rel in t.relations):
            return d
    return None


def verification_window(t: Template, d: int) -> int:
    """Largest shift window the exhaustive check uses across ``t``'s relations."""
    return max(
        (preservation_window(d, rel) for rel in t.relations if rel.has_tuples),
        default=0,
    )


def check_two_decomposable(rel: RelationDef) -> tuple[bool, IntTuple | None]:
    """Whether ``rel`` contains every tuple all of whose pairwise projections extend.

    A candidate tuple t (first component pinned to 0, the rest ranging over
    [-(k*delta + 1), k*delta + 1] for arity k and largest offset delta)
    passes the pairwise test when for each coordinate pair
    (i, j) some orbit of the relation realizes the gap t_j - t_i.  Relations
    closed under a majority operation contain all such candidates, so a
    counterexample here refutes every modular median at once.  Arity < 3 and
    marker bodies are vacuously decomposable.  Raises CapExceededError
    instead of enumerating more than `model.DEFAULT_NODE_CAP` candidates.
    """
    if rel.arity < 3 or not rel.has_tuples:
        return True, None
    k = rel.arity
    bound = k * rel.max_offset() + 1
    count = (2 * bound + 1) ** (k - 1)
    if count > DEFAULT_NODE_CAP:
        raise CapExceededError(
            f"2-decomposability check over {count} candidates exceeds the cap {DEFAULT_NODE_CAP}"
        )
    projections = {
        (i, j): projected_offsets(rel, i, j)
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
    }
    for rest in itertools.product(range(-bound, bound + 1), repeat=k - 1):
        cand = (0, *rest)
        fits = all(
            cand[j - 1] - cand[i - 1] in projections[(i, j)]
            for (i, j) in projections
        )
        if fits and not tuple_in_relation(rel, cand):
            return False, cand
    return True, None
