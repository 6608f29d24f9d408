"""Core domain model: offset sets, relations, templates, instances.

Every relation handled here is invariant under translation of the integers.
A binary relation is therefore determined by its set of admissible
differences y - x, called offsets.  A k-ary relation of finite degree is
stored as a finite set of offset tuples (v_1, ..., v_{k-1}) taken relative
to the first coordinate: each tuple encodes the orbit
{(a, a + v_1, ..., a + v_{k-1}) : a integer}.  Two markers cover the
degenerate cases: FULL (all k-tuples) and EMPTY (no tuples).

The binary offset sets the solver composes and intersects are bitmasks: a
finite set is a pair of Python ints ``(lo, mask)`` whose bit i stands for
the offset lo + i, so sumsets, intersections and inversions run as shifts,
ANDs and ORs on whole masks.  Integers are validated where they enter (the
constructors of this module), not on every derived set.  One set may span
at most ``MAX_SPAN`` consecutive integers; past that, building it raises
`CapExceededError` instead of allocating an ever larger mask.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, TypeVar

from .errors import CapExceededError, InputError

FULL = "full"
EMPTY = "empty"

# Widest range of consecutive integers one finite offset set may span: a
# mask of this many bits takes 128 KiB, and a sumset of two such masks is
# refused rather than built.
MAX_SPAN = 1 << 20

# Most cells, nodes or candidates any exhaustive search may visit; a search
# estimated above it raises CapExceededError before it starts.
DEFAULT_NODE_CAP = 100_000_000

# The ways `solver.solve` decides an instance; the CLI offers them without
# importing the solver.
MODES = ("auto", "consistency", "brute")


def _check_int(value: object, what: str) -> int:
    # bool is an int subclass but never a valid offset
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


class OffsetSet:
    """A finite set of integer offsets, or the marker for all of Z.

    Encodes the binary relation {(x, x + k) : k in S}; ``offsets=None``
    encodes the full relation Z x Z, an empty tuple the unsatisfiable one.
    Supports ``+`` (elementwise sumset, i.e. relation composition),
    ``&`` (intersection) and unary ``-`` (relation inversion).

    A finite set is stored as the integer pair ``(lo, mask)``: bit i of
    ``mask`` is set exactly when ``lo + i`` belongs to the set.  The pair is
    normalised, so bit 0 of a nonempty mask is set and the empty set is
    ``(0, 0)``; FULL has ``mask=None``.  ``offsets``, the sorted tuple of
    members, is decoded on first use and cached.  Instances are values:
    ``lo`` and ``mask`` are never reassigned after construction.

    Only the public constructor (and `of`) validates its input; results of
    the operators are built from already valid masks without checks.  A set
    may span at most `MAX_SPAN` consecutive integers: the constructor and
    ``+`` raise `CapExceededError` rather than build a wider mask.
    """

    __slots__ = ("lo", "mask", "_offsets")

    def __init__(self, offsets: Iterable[int] | None) -> None:
        self._offsets: tuple[int, ...] | None = None
        if offsets is None:
            self.lo, self.mask = 0, None
            return
        values = sorted({_check_int(v, "offset") for v in offsets})
        self._offsets = tuple(values)
        if not values:
            self.lo, self.mask = 0, 0
            return
        lo, width = values[0], values[-1] - values[0] + 1
        _check_span(width)
        # binary digits, most significant first: linear in the span, where
        # OR-ing in one bit at a time would be quadratic
        digits = bytearray(b"0") * width
        for v in values:
            digits[width - 1 - (v - lo)] = ord("1")
        self.lo, self.mask = lo, int(digits, 2)

    @classmethod
    def full(cls) -> "OffsetSet":
        return cls(None)

    @classmethod
    def of(cls, values: Iterable[int]) -> "OffsetSet":
        return cls(tuple(values))

    @property
    def offsets(self) -> tuple[int, ...] | None:
        """The members in ascending order, or None for FULL."""
        if self._offsets is None and self.mask is not None:
            bits = bin(self.mask)[:1:-1]  # bit i at index i
            members = []
            i = bits.find("1")
            while i >= 0:
                members.append(self.lo + i)
                i = bits.find("1", i + 1)
            self._offsets = tuple(members)
        return self._offsets

    @property
    def is_full(self) -> bool:
        return self.mask is None

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __add__(self, other: "OffsetSet") -> "OffsetSet":
        # empty annihilates, even against FULL; FULL absorbs anything nonempty
        a, b = self.mask, other.mask
        if a == 0 or b == 0:
            return _EMPTY
        if a is None or b is None:
            return _FULL
        _check_span(a.bit_length() + b.bit_length() - 1)
        # A mask of c >= 2 members, top bit t, is the progression of step
        # g = t / (c - 1) exactly when shifting it down by g drops only its
        # top member.  Two progressions of one step g, of ca and cb members,
        # sum to the repunit ((1 << g*(ca+cb-1)) - 1) // ((1 << g) - 1):
        # one mask stacked on the other's top member, in linear time.
        ca, cb = a.bit_count(), b.bit_count()
        if ca > 1 and cb > 1:
            ta, tb = a.bit_length() - 1, b.bit_length() - 1
            g = ta // (ca - 1)
            if a >> g == a ^ (1 << ta) and b >> g == b ^ (1 << tb):
                return _make(self.lo + other.lo, b | a << tb)
        # otherwise shift the denser mask once per member of the sparser set
        if ca < cb:
            sparse, wide = self, b
        else:
            sparse, wide = other, a
        base = sparse.lo
        acc = 0
        for v in sparse.offsets:
            acc |= wide << (v - base)
        return _make(self.lo + other.lo, acc)

    def __and__(self, other: "OffsetSet") -> "OffsetSet":
        if self.mask is None:
            return other
        if other.mask is None:
            return self
        # align at the larger lo; the set starting there is kept whole when
        # the other one covers it
        if self.lo <= other.lo:
            low, high = self, other
        else:
            low, high = other, self
        mask = (low.mask >> (high.lo - low.lo)) & high.mask
        if mask == high.mask:
            return high
        if not mask:
            return _EMPTY
        if mask & 1:
            return _make(high.lo, mask)
        zeros = (mask & -mask).bit_length() - 1
        return _make(high.lo + zeros, mask >> zeros)

    def __neg__(self) -> "OffsetSet":
        mask = self.mask
        if not mask:
            return self
        reversed_mask = int(bin(mask)[:1:-1], 2)
        return _make(-(self.lo + mask.bit_length() - 1), reversed_mask)

    def __contains__(self, value: int) -> bool:
        if self.mask is None:
            return True
        i = value - self.lo
        return i >= 0 and (self.mask >> i) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OffsetSet):
            return NotImplemented
        return self.lo == other.lo and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.lo, self.mask))

    def __repr__(self) -> str:
        return f"OffsetSet(offsets={self.offsets!r})"

    def __str__(self) -> str:
        if self.is_full:
            return "FULL"
        assert self.offsets is not None
        return "{%s}" % ",".join(str(v) for v in self.offsets)


def _check_span(width: int) -> None:
    if width > MAX_SPAN:
        raise CapExceededError(
            f"offset set would span {width} consecutive integers, over the cap {MAX_SPAN}"
        )


def _make(lo: int, mask: int) -> OffsetSet:
    """An OffsetSet from a normalised (lo, mask) pair, without validation."""
    s = object.__new__(OffsetSet)
    s.lo = lo
    s.mask = mask
    s._offsets = None
    return s


_EMPTY = OffsetSet(())
_FULL = OffsetSet(None)

# sets a field of a frozen record, from its __init__ or `_trusted`
_set = object.__setattr__


class Record:
    """A record of the fields its class annotates, in order (``_fields``).

    A subclass declares each field once, as an annotation, with its default,
    if any, as the class attribute of that name.  When the class is made,
    the methods that name every field are compiled from source, as
    `dataclasses` builds them, so that they run as fast as written-out ones:
    ``_values``, the tuple of the fields, and, unless the class writes its
    own, an ``__init__`` that takes them by position or keyword and sets
    them in order.  Two records are equal when they are of one class and
    their fields are equal; the repr is ``Name(field=value, ...)``.  A
    plain record is mutable and unhashable.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        names = tuple(cls.__annotations__)
        if not names:
            return
        cls._fields = names
        fields = "".join(f"self.{n}, " for n in names)
        _compile(cls, "_values", f"(self):\n    return ({fields})")
        frozen = issubclass(cls, FrozenRecord)
        if "__init__" not in cls.__dict__:
            defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
            params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
            assign = "\n    _set(self, {0!r}, {0})" if frozen else "\n    self.{0} = {0}"
            body = "".join(assign.format(n) for n in names)
            _compile(cls, "__init__", f"(self, {params}):{body}", _defaults=defaults)
        if frozen and "__hash__" not in cls.__dict__:
            _compile(cls, "__hash__", f"(self):\n    return hash(({fields}))")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def as_dict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, self._values()))


def _compile(cls: type, name: str, source: str, **names: object) -> None:
    """Make ``def name`` + source, which may read `_set` and names, a method
    of cls, named ``Class.name`` in the errors it raises."""
    namespace = {"_set": _set, **names}
    exec(f"def {name}{source}", namespace)
    method = namespace[name]
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    setattr(cls, name, method)


class FrozenRecord(Record):
    """A `Record` whose fields are set once, by ``__init__`` through `_set`:
    assigning or deleting an attribute raises AttributeError.  Unless the
    class sets its own ``__hash__`` (None makes it unhashable), it gets one
    of the tuple of its fields, compiled with the other methods, which
    costs less than a call of ``_values``."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RelationDef(FrozenRecord):
    """A named k-ary relation given by offset tuples or a FULL/EMPTY marker.

    Offset tuples have k-1 components and are relative to the first
    coordinate.  They are stored sorted and deduplicated; an empty tuple
    collection normalizes to the EMPTY marker.  Unary relations invariant
    under translation are all of Z or nothing, so arity-1 bodies must be a
    marker.
    """

    name: str
    arity: int
    body: str | tuple[tuple[int, ...], ...]

    def __init__(self, name: str, arity: int, body: str | Iterable[Iterable[int]]) -> None:
        if not isinstance(name, str) or not name:
            raise InputError("relation name must be a non-empty string")
        _check_int(arity, "arity")
        if arity < 1:
            raise InputError(f"relation {name}: arity must be >= 1")
        if isinstance(body, str):
            if body not in (FULL, EMPTY):
                raise InputError(f"relation {name}: body marker must be '{FULL}' or '{EMPTY}'")
        else:
            tuples = set()
            for v in body:
                v = tuple(_check_int(c, f"relation {name}: offset") for c in v)
                if len(v) != arity - 1:
                    raise InputError(
                        f"relation {name}: offset tuple {v} must have {arity - 1} components"
                    )
                tuples.add(v)
            if not tuples:
                body = EMPTY
            elif arity == 1:
                raise InputError(f"relation {name}: arity-1 bodies must be '{FULL}' or '{EMPTY}'")
            else:
                body = tuple(sorted(tuples))
        _set(self, "name", name)
        _set(self, "arity", arity)
        _set(self, "body", body)

    @property
    def is_full(self) -> bool:
        return self.body == FULL

    @property
    def is_empty(self) -> bool:
        return self.body == EMPTY

    @property
    def has_tuples(self) -> bool:
        return isinstance(self.body, tuple)

    @property
    def offset_tuples(self) -> tuple[tuple[int, ...], ...]:
        if not self.has_tuples:
            raise InputError(f"relation {self.name} has no offset tuples ({self.body})")
        assert isinstance(self.body, tuple)
        return self.body

    @cached_property
    def _tuple_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.offset_tuples)

    @cached_property
    def negation_closed(self) -> bool:
        """Whether x -> -x maps the relation onto itself, -T = T for its
        offset tuples T; FULL and EMPTY are."""
        tuples = self._tuple_set if self.has_tuples else ()
        return all(tuple(-c for c in v) in tuples for v in tuples)

    @cached_property
    def _projections(self) -> dict[tuple[int, int], frozenset[int]]:
        # `projected_offsets` by coordinate pair, filled as pairs are asked for
        return {}

    @cached_property
    def _projection_sets(self) -> dict[tuple[int, int], OffsetSet]:
        # `project_constraint` by coordinate pair, filled as pairs are asked for
        return {}

    def max_offset(self) -> int:
        """Largest absolute offset component appearing in the body (0 for markers)."""
        if not self.has_tuples:
            return 0
        return max((abs(c) for v in self.offset_tuples for c in v), default=0)


def projected_offsets(rel: RelationDef, i: int, j: int) -> frozenset[int]:
    """Offsets of coordinate j minus coordinate i over all orbits of ``rel``.

    Coordinates are 1-based; the implicit first component of every orbit
    representative is 0.  The result is a frozenset, with no span cap,
    computed once per relation and coordinate pair and shared by every
    caller.
    """
    cached = rel._projections.get((i, j))
    if cached is not None:
        return cached
    if not rel.has_tuples:
        raise InputError(f"cannot project relation {rel.name} with body {rel.body}")
    if not (1 <= i <= rel.arity and 1 <= j <= rel.arity):
        raise InputError(f"projection coordinates ({i},{j}) out of range for arity {rel.arity}")
    if i == j:
        raise InputError("projection coordinates must be distinct")
    out = set()
    for v in rel.offset_tuples:
        w = (0, *v)
        out.add(w[j - 1] - w[i - 1])
    frozen = rel._projections[(i, j)] = frozenset(out)
    return frozen


def project_constraint(rel: RelationDef, i: int, j: int) -> OffsetSet:
    """`projected_offsets` as an OffsetSet, for the solver's pair matrix;
    built once per relation and coordinate pair."""
    cached = rel._projection_sets.get((i, j))
    if cached is None:
        cached = rel._projection_sets[(i, j)] = OffsetSet(projected_offsets(rel, i, j))
    return cached


def tuple_in_relation(rel: RelationDef, values: tuple[int, ...]) -> bool:
    """Whether a concrete integer tuple belongs to the relation."""
    if len(values) != rel.arity:
        raise InputError(
            f"relation {rel.name} has arity {rel.arity}, got tuple of length {len(values)}"
        )
    if rel.is_full:
        return True
    if rel.is_empty:
        return False
    base = values[0]
    return tuple(c - base for c in values[1:]) in rel._tuple_set


class Template(FrozenRecord):
    """A named, finite collection of relations sharing one integer domain."""

    name: str
    relations: tuple[RelationDef, ...]

    def __init__(self, name: str, relations: Iterable[RelationDef]) -> None:
        if not isinstance(name, str) or not name:
            raise InputError("template name must be a non-empty string")
        relations = tuple(relations)
        names = [r.name for r in relations]
        if len(names) != len(set(names)):
            raise InputError(f"template {name}: duplicate relation names")
        _set(self, "name", name)
        _set(self, "relations", relations)

    @cached_property
    def _by_name(self) -> dict[str, RelationDef]:
        return {r.name: r for r in self.relations}

    def relation(self, name: str) -> RelationDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"template {self.name} has no relation named {name!r}") from None


_R = TypeVar("_R", bound=FrozenRecord)


def _trusted(cls: type[_R], **fields: object) -> _R:
    """A frozen record built from fields that come from an already
    validated instance, without the checks of its ``__init__``."""
    record = object.__new__(cls)
    for name, value in fields.items():
        _set(record, name, value)
    return record


class Constraint(FrozenRecord):
    """One atomic constraint: a relation name applied to variable indices."""

    relation: str
    args: tuple[int, ...]

    def __init__(self, relation: str, args: Iterable[int]) -> None:
        if not isinstance(relation, str) or not relation:
            raise InputError("constraint relation name must be a non-empty string")
        args = tuple(_check_int(a, "constraint argument") for a in args)
        if not args:
            raise InputError("constraint needs at least one argument")
        _set(self, "relation", relation)
        _set(self, "args", args)


class Instance(FrozenRecord):
    """A conjunction of constraints over variables 0 .. num_vars - 1."""

    num_vars: int
    constraints: tuple[Constraint, ...]

    def __init__(self, num_vars: int, constraints: Iterable[Constraint]) -> None:
        _check_int(num_vars, "num_vars")
        if num_vars < 1:
            raise InputError("an instance needs at least one variable")
        constraints = tuple(constraints)
        for c in constraints:
            for a in c.args:
                if not 0 <= a < num_vars:
                    raise InputError(
                        f"constraint {c.relation}{c.args} uses variable {a}, "
                        f"but only {num_vars} variables are declared"
                    )
        _set(self, "num_vars", num_vars)
        _set(self, "constraints", constraints)

    def validate_against(self, template: Template) -> None:
        """Check that every constraint names a template relation of matching arity."""
        for c in self.constraints:
            rel = template.relation(c.relation)
            if len(c.args) != rel.arity:
                raise InputError(
                    f"constraint {c.relation}{c.args}: relation has arity {rel.arity}, "
                    f"got {len(c.args)} arguments"
                )
