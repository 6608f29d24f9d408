"""Median-with-congruence operations and closure checks.

For a modulus d, the ternary operation m_d picks the median when all three
arguments are congruent mod d, the earlier of the two congruent arguments
when exactly two are, and the first argument otherwise.  Every m_d is a
majority operation and commutes with translations.  A template all of whose
relations are closed under some m_d admits witness extraction straight from
the pairwise propagation fixpoint, so detecting such a modulus is the key
tractability test.  The closure check is exact and uses only the standard
library: `preserves_relation` proves which shifts suffice.
"""

from __future__ import annotations

import itertools
import random

from .analysis import max_distance_or_zero
from .errors import CapExceededError, InputError
from .model import (
    DEFAULT_NODE_CAP,
    MAX_SPAN,
    FrozenRecord,
    RelationDef,
    Template,
    projected_offsets,
    tuple_in_relation,
)

IntTuple = tuple[int, ...]

# the least charge per orbit triple against the closure check's cap; it fixes
# which inputs the check refuses, so it is not tied to the scan's actual cost
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


class PreservationResult(FrozenRecord):
    """Outcome of a closure check; witnesses are concrete integer tuples."""

    preserved: bool
    witness: tuple[IntTuple, IntTuple, IntTuple] | None = None
    image: IntTuple | None = None
    trivial: bool = False


def preservation_window(d: int, rel: RelationDef) -> int:
    """Base-point shift bound for the exhaustive closure check."""
    return 6 * (rel.max_offset() + d) + 1


def preserves_relation(d: int, rel: RelationDef) -> PreservationResult:
    """Exactly decide whether m_d maps every orbit triple of ``rel`` into it.

    m_d commutes with translation, so the first tuple's base point is pinned
    to 0 and the others have bases a and b.  With delta = ``rel.max_offset()``
    and G = 2*delta + d, a violation exists for some (a, b) in Z^2 iff one
    exists with |a|, |b| <= 2G.  Proof: sort the three bases; a tuple with
    base s has coordinates in [s - delta, s + delta], and the image's first
    coordinate is a base.  If two consecutive bases are more than G apart,
    move every tuple on the side away from base 0 by d towards the gap.  The
    residues mod d stay, and the gap stays above 2*delta, so no comparison
    across it changes and m_d picks the same argument in every coordinate.
    If every pick lies on one side, the image is only translated and its
    membership stays.  Otherwise some coordinate lies more than delta from
    the first one, before and after the move, so the image is outside
    ``rel`` both times.  Each move shrinks one gap by d and leaves base 0
    in place; repeat until every gap is at most G.

    Hence 2G <= `preservation_window`(d, rel) = W, and the verdict is that
    of the whole [-W, W]^2 grid.  Each row a is scanned by the residue of b
    mod d and cut where a coordinate's congruent median starts or stops
    following b + const.  On a piece where all or no coordinates follow b
    the offsets are constant and one membership test settles it; elsewhere
    the offsets are distinct for each b, so a non-member shows up within
    len(offset_tuples) + 1 steps.  m_1 is symmetric, so for d = 1 the three
    orbits give the same images in any order, and only sorted triples are
    scanned.  The witness is the first violation in this scan order.
    FULL and EMPTY bodies are closed under anything and report trivially.
    Raises CapExceededError when the [-W, W]^2 grid exceeds `model.MAX_SPAN`
    cells or all orbit triples together, each charged at least
    `ROUND_CELLS`, exceed `model.DEFAULT_NODE_CAP` cells.
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
    k = rel.arity
    reach = 2 * (2 * rel.max_offset() + d)
    members = set(tuples)
    vectors = [(0, *v) for v in tuples]
    if d == 1:
        orbit_triples = itertools.combinations_with_replacement(vectors, 3)
    else:
        orbit_triples = itertools.product(vectors, repeat=3)
    for v1, v2, v3 in orbit_triples:
        for a in range(-reach, reach + 1):
            t2 = tuple(a + c for c in v2)
            for r in range(d):
                # b ranges over r mod d; where all three are congruent, the
                # coordinate follows b + c between its two bounds
                spans = [
                    (min(x, y) - c, max(x, y) - c)
                    for x, y, c in zip(v1, t2, v3)
                    if x % d == y % d == (r + c) % d
                ]
                cuts = sorted(
                    {-reach, reach + 1}.union(p for s in spans for p in s if abs(p) <= reach)
                )
                for lo, hi in zip(cuts, cuts[1:]):
                    first = lo + (r - lo) % d
                    moving = sum(p <= first < q for p, q in spans)
                    for b in range(first, hi if 0 < moving < k else min(hi, first + 1), d):
                        image = [modular_median(d, x, y, b + c) for x, y, c in zip(v1, t2, v3)]
                        if tuple(v - image[0] for v in image[1:]) not in members:
                            t3 = tuple(b + c for c in v3)
                            return PreservationResult(False, (v1, t2, t3), tuple(image))
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
