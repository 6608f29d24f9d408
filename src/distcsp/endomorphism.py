"""Eventually periodic self-maps of the integers and what they do to templates.

The maps handled here have the shape

    e(x) = base_values[x mod p] + drift * p * floor(x / p)

with drift in {+1, -1, 0}.  Drift 0 gives a map of finite range; drift +-1
gives a map that repeats its one-period pattern shifted by +-p.  When such a
map sends every orbit of every relation back into the relation it is an
endomorphism of the template, and because images of translated tuples are
translated images, checking one period of base points settles the question.

A number q is stable for a map e when e(v + q) - e(v) is the same value,
either +q or -q, for every v.  The stable numbers of a map are exactly the
multiples of the least one, and for an endomorphism of a connected template
the least one divides the largest realized distance.  Dividing a template's
offsets by a stable q produces the reduced template the map collapses onto.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterable

from .analysis import is_connected, max_distance_or_zero
from .errors import CapExceededError, InputError, InternalInvariantError
from .model import (
    EMPTY,
    MAX_SPAN,
    FrozenRecord,
    RelationDef,
    Template,
    _set,
    tuple_in_relation,
)

FINITE_RANGE = "finite_range"
PERIODIC = "periodic"


class PeriodicMapSpec(FrozenRecord):
    """Finite description of one eventually periodic map."""

    period: int
    base_values: tuple[int, ...]
    drift: int

    def __init__(self, period: int, base_values: Iterable[int], drift: int) -> None:
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise InputError(f"period must be a positive integer, got {period!r}")
        values = tuple(base_values)
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"base value {v!r} is not an integer")
        if len(values) != period:
            raise InputError(f"expected {period} base values, got {len(values)}")
        if drift not in (1, -1, 0):
            raise InputError(f"drift must be +1, -1 or 0, got {drift!r}")
        _set(self, "period", period)
        _set(self, "base_values", values)
        _set(self, "drift", drift)

    def __call__(self, x: int) -> int:
        return self.base_values[x % self.period] + self.drift * self.period * (x // self.period)


def format_map_spec(spec: PeriodicMapSpec) -> str:
    """Canonical one-line form: ``p=3; values=0,1,0; drift=+1``."""
    drift = {1: "+1", -1: "-1", 0: "0"}[spec.drift]
    values = ",".join(str(v) for v in spec.base_values)
    return f"p={spec.period}; values={values}; drift={drift}"


_SPEC_RE = re.compile(
    r"^\s*p\s*=\s*(\d+)\s*;\s*values\s*=\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*;"
    r"\s*drift\s*=\s*(\+1|-1|0)\s*$"
)


def parse_map_spec(text: str) -> PeriodicMapSpec:
    """Parse the one-line textual form produced by :func:`format_map_spec`."""
    m = _SPEC_RE.match(text)
    if not m:
        raise InputError(
            f"cannot parse map spec {text!r}; expected 'p=<int>; values=<v0,...>; drift=<+1|-1|0>'"
        )
    period = int(m.group(1))
    values = tuple(int(v) for v in m.group(2).split(","))
    drift = int(m.group(3))
    return PeriodicMapSpec(period, values, drift)


class EndoCheck(FrozenRecord):
    """Verdict of an endomorphism check, with a replayable counterexample."""

    ok: bool
    relation: str | None = None
    source: tuple[int, ...] | None = None
    image: tuple[int, ...] | None = None


def is_endomorphism(spec: PeriodicMapSpec, t: Template) -> EndoCheck:
    """Check that the map sends every orbit of every relation into the relation.

    Base points range over one period only: translating a source tuple by p
    translates its image by drift * p (or repeats it), and membership is
    translation invariant.
    """
    for rel in t.relations:
        if not rel.has_tuples:
            continue
        for v in rel.offset_tuples:
            w = (0, *v)
            for a in range(spec.period):
                source = tuple(a + c for c in w)
                image = tuple(spec(x) for x in source)
                if not tuple_in_relation(rel, image):
                    return EndoCheck(False, rel.name, source, image)
    return EndoCheck(True)


def _stable_step(spec: PeriodicMapSpec, q: int) -> int | None:
    """+q or -q when q is stable for the map, else None."""
    steps = {spec(v + q) - spec(v) for v in range(spec.period)}
    if len(steps) == 1:
        step = steps.pop()
        if step in (q, -q):
            return step
    return None


def stable_numbers(spec: PeriodicMapSpec, upto: int) -> tuple[int, ...]:
    """All stable q in [1, upto]."""
    return tuple(q for q in range(1, upto + 1) if _stable_step(spec, q) is not None)


class EndoClassification(FrozenRecord):
    """Kind and stability data of a verified endomorphism."""

    kind: str
    direction: int | None
    minimal_stable: int | None
    stable_numbers_upto: tuple[int, ...]
    checked_upto: int


def classify_endomorphism(spec: PeriodicMapSpec, t: Template) -> EndoClassification:
    """Classify a verified endomorphism as finite-range or periodic.

    For periodic maps, stable numbers are listed up to period * D.  Two
    checks are enforced on the result: the listed stable numbers must be
    exactly the multiples of the least one, and, for connected templates,
    the least one must divide the largest realized distance.  Raises
    CapExceededError instead of scanning past `model.MAX_SPAN`.
    """
    check = is_endomorphism(spec, t)
    if not check.ok:
        raise InputError(
            f"map is not an endomorphism of {t.name}: sends "
            f"{check.source} to {check.image} outside {check.relation}"
        )
    if spec.drift == 0:
        return EndoClassification(FINITE_RANGE, None, None, (), 0)
    biggest = max_distance_or_zero(t)
    cap = spec.period * max(biggest, 1)
    if cap > MAX_SPAN:
        raise CapExceededError(f"stable numbers up to {cap} exceed the cap {MAX_SPAN}")
    stables = stable_numbers(spec, cap)
    if not stables:
        # e(v + p) - e(v) = drift * p always holds, so p itself is stable
        raise InternalInvariantError(
            f"drift {spec.drift} map reported no stable numbers up to {cap}"
        )
    minimal = stables[0]
    expected = tuple(range(minimal, cap + 1, minimal))
    if stables != expected:
        raise InternalInvariantError(
            f"stable numbers {stables} are not the multiples of {minimal} up to {cap}"
        )
    if biggest % minimal != 0 and is_connected(t):
        raise InternalInvariantError(
            f"minimal stable number {minimal} does not divide the largest distance {biggest}"
        )
    return EndoClassification(PERIODIC, spec.drift, minimal, stables, cap)


def compose_maps(outer: PeriodicMapSpec, inner: PeriodicMapSpec) -> PeriodicMapSpec:
    """The spec of x -> outer(inner(x)).

    One period of the composition is lcm of the periods; its drift is the
    product of the drifts.
    """
    period = math.lcm(outer.period, inner.period)
    values = tuple(outer(inner(x)) for x in range(period))
    return PeriodicMapSpec(period, values, outer.drift * inner.drift)


def reduce_template(t: Template, q: int) -> Template:
    """Divide the template by q: keep orbits with all offsets divisible by q, scaled down.

    Relations whose tuple set empties out become EMPTY; markers are kept.
    With q = 1 the template comes back unchanged.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise InputError(f"reduction divisor must be a positive integer, got {q!r}")
    if q == 1:
        return t
    reduced = []
    for rel in t.relations:
        if not rel.has_tuples:
            reduced.append(rel)
            continue
        kept = [
            tuple(c // q for c in v)
            for v in rel.offset_tuples
            if all(c % q == 0 for c in v)
        ]
        body: str | tuple[tuple[int, ...], ...] = tuple(kept) if kept else EMPTY
        reduced.append(RelationDef(rel.name, rel.arity, body))
    return Template(t.name, tuple(reduced))


def _translation_like(period: int, values: tuple[int, ...], drift: int) -> bool:
    # x -> x + c and x -> -x + c re-encode at every period; they exist for
    # every (symmetric) template and are not worth reporting
    if drift == 1:
        return all(values[i] == values[0] + i for i in range(period))
    if drift == -1:
        return all(values[i] == values[0] - i for i in range(period))
    return False


def search_periodic_endomorphism(
    t: Template,
    max_period: int | None = None,
    value_window: int | None = None,
    drift_filter: tuple[int, ...] | None = None,
) -> PeriodicMapSpec | None:
    """First nontrivial endomorphism spec in a bounded lexicographic enumeration.

    Specs are tried in order of (period, drift, base values); plain
    translations and reflections of Z are skipped since they tell nothing
    about the template.  Defaults: periods up to the largest realized
    distance D, values in [-2D, 2D], all three drifts.
    """
    biggest = max_distance_or_zero(t)
    if max_period is None:
        if not biggest:
            raise InputError("template has no realized distances; pass max_period explicitly")
        max_period = biggest
    if value_window is None:
        if not biggest:
            raise InputError("template has no realized distances; pass value_window explicitly")
        value_window = 2 * biggest
    if max_period < 1 or value_window < 0:
        raise InputError("max_period must be >= 1 and value_window >= 0")
    drifts = sorted(set(drift_filter)) if drift_filter is not None else [-1, 0, 1]
    for d in drifts:
        if d not in (-1, 0, 1):
            raise InputError(f"drift filter may only contain +1, -1, 0; got {d}")
    values_range = range(-value_window, value_window + 1)
    for period in range(1, max_period + 1):
        for drift in drifts:
            for values in itertools.product(values_range, repeat=period):
                if _translation_like(period, values, drift):
                    continue
                spec = PeriodicMapSpec(period, values, drift)
                if is_endomorphism(spec, t).ok:
                    return spec
    return None
