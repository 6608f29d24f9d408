import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distcsp.errors import CapExceededError, InputError
from distcsp.model import (
    EMPTY,
    FULL,
    MAX_SPAN,
    Constraint,
    Instance,
    OffsetSet,
    RelationDef,
    Template,
    project_constraint,
    projected_offsets,
    tuple_in_relation,
)
from distcsp.solver import solve
from helpers import (
    DIST12,
    DIST13,
    TERNARY_CHAIN,
    TWODEC_TRUE,
    graph_instance,
    random_connected_instance,
)

finite_sets = st.builds(OffsetSet.of, st.lists(st.integers(-40, 40), max_size=8))
offset_sets = st.one_of(finite_sets, st.just(OffsetSet.full()))


def offsets(s: OffsetSet) -> tuple[int, ...]:
    assert s.offsets is not None
    return s.offsets


class TestOffsetSetSum:
    def test_zero_is_identity(self):
        assert OffsetSet.of([1, 3]) + OffsetSet.of([0]) == OffsetSet.of([1, 3])

    def test_sumset_of_self(self):
        assert offsets(OffsetSet.of([1, 3]) + OffsetSet.of([1, 3])) == (2, 4, 6)

    def test_full_absorbs_nonempty(self):
        assert (OffsetSet.full() + OffsetSet.of([5])).is_full

    def test_empty_annihilates_even_full(self):
        assert (OffsetSet.of([]) + OffsetSet.full()).is_empty
        assert (OffsetSet.full() + OffsetSet.of([])).is_empty

    @given(offset_sets, offset_sets)
    def test_commutative(self, a, b):
        assert a + b == b + a

    @given(offset_sets, offset_sets, offset_sets)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(finite_sets, finite_sets)
    def test_finite_sum_is_elementwise(self, a, b):
        expected = {x + y for x in offsets(a) for y in offsets(b)}
        assert set(offsets(a + b)) == expected


class TestOffsetSetIntersection:
    def test_disjoint(self):
        assert (OffsetSet.of([1, 3]) & OffsetSet.of([2, 4, 6])).is_empty

    def test_full_is_identity(self):
        assert OffsetSet.full() & OffsetSet.of([-1, 2]) == OffsetSet.of([-1, 2])

    def test_overlap(self):
        assert offsets(OffsetSet.of([1, 2, 3]) & OffsetSet.of([2, 3, 4])) == (2, 3)

    @given(offset_sets, offset_sets)
    def test_commutative(self, a, b):
        assert (a & b) == (b & a)

    @given(offset_sets)
    def test_idempotent(self, a):
        assert (a & a) == a


class TestOffsetSetNegation:
    def test_finite(self):
        assert offsets(-OffsetSet.of([1, 3])) == (-3, -1)

    def test_empty(self):
        assert (-OffsetSet.of([])).is_empty

    def test_full(self):
        assert (-OffsetSet.full()).is_full

    @given(offset_sets)
    def test_involution(self, a):
        assert -(-a) == a

    @given(offset_sets, offset_sets)
    def test_distributes_over_sum(self, a, b):
        assert -(a + b) == (-a) + (-b)


class TestOffsetSetRepresentation:
    def test_stored_sorted_without_duplicates(self):
        assert offsets(OffsetSet.of([3, 1, 3, -2])) == (-2, 1, 3)

    def test_full_is_not_an_enumeration(self):
        s = OffsetSet.full()
        assert s.offsets is None and s.is_full and not s.is_empty

    def test_membership(self):
        s = OffsetSet.of([1, 3])
        assert 3 in s and 2 not in s
        assert 12345 in OffsetSet.full()

    def test_str_forms(self):
        assert str(OffsetSet.of([3, 1])) == "{1,3}"
        assert str(OffsetSet.full()) == "FULL"
        assert str(OffsetSet.of([])) == "{}"

    def test_bool_offsets_rejected(self):
        with pytest.raises(InputError):
            OffsetSet.of([True])


class TestOffsetSetShift:
    def test_equals_the_sum_with_a_singleton(self):
        rng = random.Random(7)
        for _ in range(300):
            members = [rng.randint(-60, 60) for _ in range(rng.randint(1, 10))]
            k = rng.randint(-200, 200)
            s = OffsetSet.of(members)
            assert s.shifted(k) == s + OffsetSet.of((k,))
            assert offsets(s.shifted(k)) == tuple(sorted({m + k for m in members}))
            assert_normalised(s.shifted(k))

    def test_full_and_empty_unchanged(self):
        for k in (-9, 0, 9):
            for s in (OffsetSet.full(), OffsetSet.of([])):
                assert s.shifted(k) is s
                assert s.shifted(k) == s + OffsetSet.of((k,))


# members in roughly -10^4..10^4: a few scattered values, or a run up to a
# few hundred wide with holes, so that masks cross zero and machine words
sparse_values = st.lists(st.integers(-10_000, 10_000), max_size=12)
dense_values = st.builds(
    lambda base, bits: [base + i for i, bit in enumerate(bits) if bit],
    st.integers(-10_000, 10_000),
    st.lists(st.booleans(), max_size=200),
)
member_lists = st.one_of(sparse_values, dense_values)


@st.composite
def member_list_pairs(draw):
    """Two member lists; the second often shares members with the first, so
    that intersections are not almost always empty."""
    xs = draw(member_lists)
    keep = draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
    shared = [x for x, kept in zip(xs, keep) if kept]
    return xs, draw(st.sampled_from([shared, shared + draw(member_lists)]))


def assert_normalised(s: OffsetSet) -> None:
    members = offsets(s)
    if not members:
        assert (s.lo, s.mask) == (0, 0)
    else:
        assert s.mask & 1 == 1
        assert s.lo == members[0]
        assert s.mask.bit_length() - 1 == members[-1] - members[0]


class TestOffsetSetAgainstPlainSets:
    @given(member_list_pairs())
    def test_operations_match_set_arithmetic(self, pair):
        xs, ys = pair
        a, b = OffsetSet.of(xs), OffsetSet.of(ys)
        expected = {
            "+": {x + y for x in xs for y in ys},
            "&": set(xs) & set(ys),
            "-": {-x for x in xs},
        }
        for op, result in (("+", a + b), ("&", a & b), ("-", -a)):
            assert offsets(result) == tuple(sorted(expected[op]))
            assert result == OffsetSet.of(expected[op])
            assert hash(result) == hash(OffsetSet.of(expected[op]))
            assert_normalised(result)
        assert offsets(a) == tuple(sorted(set(xs)))
        assert_normalised(a)

    @given(member_lists, st.lists(st.integers(-10_100, 10_100), max_size=20))
    def test_membership_is_a_bit_test(self, xs, probes):
        a = OffsetSet.of(xs)
        for v in [*probes, *xs, *(x + 1 for x in xs), *(x - 1 for x in xs)]:
            assert (v in a) == (v in set(xs))

    @given(member_list_pairs())
    def test_equal_exactly_when_offsets_are(self, pair):
        xs, ys = pair
        a, b = OffsetSet.of(xs), OffsetSet.of(ys)
        assert (a == b) == (offsets(a) == offsets(b))
        if a == b:
            assert hash(a) == hash(b)
        assert OffsetSet.of(reversed(xs)) == a
        assert (a == OffsetSet.full()) is False


def progression(lo: int, step: int, count: int) -> list[int]:
    return [lo + step * i for i in range(count)]


# progressions from -10^4..10^4 of up to 40 members, singletons included
progressions = st.builds(
    progression, st.integers(-10_000, 10_000), st.integers(1, 60), st.integers(1, 40)
)


def assert_plain_sumset(xs, ys) -> None:
    total = OffsetSet.of(xs) + OffsetSet.of(ys)
    expected = {x + y for x in xs for y in ys}
    assert offsets(total) == tuple(sorted(expected))
    assert total == OffsetSet.of(expected)
    assert_normalised(total)


class TestProgressionSum:
    """`+` sums two progressions of one step in closed form and every other
    pair of sets by shifts; both must give the plain-set sumset."""

    @given(
        st.integers(-10_000, 10_000),
        st.integers(-10_000, 10_000),
        st.integers(1, 60),
        st.integers(1, 40),
        st.integers(1, 40),
    )
    def test_equal_steps(self, lo_a, lo_b, step, ca, cb):
        assert_plain_sumset(progression(lo_a, step, ca), progression(lo_b, step, cb))

    @given(progressions, progressions)
    def test_any_steps(self, xs, ys):
        assert_plain_sumset(xs, ys)

    @given(progressions, member_lists)
    def test_progression_and_any_set(self, xs, ys):
        assert_plain_sumset(xs, ys)
        assert_plain_sumset(ys, xs)

    def test_seeded_operands(self):
        rng = random.Random(11)
        for _ in range(500):
            step = rng.randint(1, 9)
            xs = progression(rng.randint(-300, 300), step, rng.randint(1, 12))
            ys = rng.choice(
                [
                    progression(rng.randint(-300, 300), step, rng.randint(1, 12)),
                    progression(rng.randint(-300, 300), rng.randint(1, 9), rng.randint(1, 12)),
                    [rng.randint(-300, 300)],
                    xs[:-1] + [xs[-1] + 1],  # not a progression: the last gap widened
                    [rng.randint(-30, 30) for _ in range(rng.randint(2, 6))],
                ]
            )
            assert_plain_sumset(xs, ys)

    def test_negative_bases(self):
        assert_plain_sumset([-9, -6, -3], [-40, -37])
        assert_plain_sumset([-1], [-5, -3, -1, 1])
        assert offsets(OffsetSet.of([-3, -1, 1, 3]) + OffsetSet.of([-3, -1, 1, 3])) == tuple(
            range(-6, 7, 2)
        )


class TestSpanCap:
    def test_progression_sum_refuses_a_wider_set(self):
        # 2**20 - 1 = 5 * 209715: steps of 209715 reach MAX_SPAN exactly
        step = (MAX_SPAN - 1) // 5
        three, four = OffsetSet.of(progression(-7, step, 3)), OffsetSet.of(progression(5, step, 4))
        total = three + four
        assert offsets(total) == tuple(progression(-2, step, 6))
        assert total.mask.bit_length() == MAX_SPAN
        with pytest.raises(CapExceededError):
            four + four
        wide = OffsetSet.of(progression(0, MAX_SPAN // 4, 3))
        with pytest.raises(CapExceededError):
            wide + wide

    def test_constructor_refuses_a_wider_set(self):
        assert offsets(OffsetSet.of([0, MAX_SPAN - 1])) == (0, MAX_SPAN - 1)
        with pytest.raises(CapExceededError):
            OffsetSet.of([0, MAX_SPAN])

    def test_sum_refuses_a_wider_set(self):
        half = OffsetSet.of([0, MAX_SPAN // 2])
        assert offsets(half + OffsetSet.of([0, MAX_SPAN // 2 - 1]))[-1] == MAX_SPAN - 1
        with pytest.raises(CapExceededError):
            half + half

    def test_full_and_empty_have_no_span(self):
        assert (OffsetSet.full() + OffsetSet.of([0, MAX_SPAN - 1])).is_full
        assert (OffsetSet.of([]) + OffsetSet.of([0, MAX_SPAN - 1])).is_empty


class TestRelationDef:
    def test_tuples_sorted_and_deduplicated(self):
        rel = RelationDef("r", 2, ((3,), (1,), (3,)))
        assert rel.offset_tuples == ((1,), (3,))

    def test_empty_tuple_collection_normalizes_to_marker(self):
        rel = RelationDef("r", 3, ())
        assert rel.is_empty and rel.body == EMPTY

    def test_markers(self):
        assert RelationDef("r", 2, FULL).is_full
        assert RelationDef("r", 1, EMPTY).is_empty
        with pytest.raises(InputError):
            RelationDef("r", 2, "everything")

    def test_unary_tuples_rejected(self):
        with pytest.raises(InputError):
            RelationDef("r", 1, ((),))

    def test_component_count_enforced(self):
        with pytest.raises(InputError):
            RelationDef("r", 3, ((1,),))

    def test_arity_must_be_positive(self):
        with pytest.raises(InputError):
            RelationDef("r", 0, FULL)

    def test_max_offset(self):
        assert RelationDef("r", 3, ((1, -5), (2, 0))).max_offset() == 5
        assert RelationDef("r", 2, FULL).max_offset() == 0

    def test_offset_tuples_unavailable_on_markers(self):
        with pytest.raises(InputError):
            RelationDef("r", 2, FULL).offset_tuples


class TestProjectConstraint:
    def test_single_tuple(self):
        rel = RelationDef("r", 3, ((1, 2),))
        assert offsets(project_constraint(rel, 1, 3)) == (2,)

    def test_reversed_coordinates_invert(self):
        rel = RelationDef("r", 3, ((1, 2),))
        assert offsets(project_constraint(rel, 3, 1)) == (-2,)

    def test_multiple_tuples(self):
        rel = RelationDef("r", 3, ((1, 2), (2, 1)))
        assert offsets(project_constraint(rel, 2, 3)) == (-1, 1)

    def test_coordinates_validated(self):
        rel = RelationDef("r", 3, ((1, 2),))
        with pytest.raises(InputError):
            project_constraint(rel, 1, 4)
        with pytest.raises(InputError):
            project_constraint(rel, 2, 2)

    def test_marker_bodies_rejected(self):
        with pytest.raises(InputError):
            project_constraint(RelationDef("r", 2, FULL), 1, 2)

    def test_cached_projection_cannot_be_mutated(self):
        rel = RelationDef("r", 3, ((1, 2), (2, 1)))
        gaps = projected_offsets(rel, 2, 3)
        assert projected_offsets(rel, 2, 3) is gaps
        with pytest.raises(AttributeError):
            gaps.add(99)
        gaps |= {99}
        assert projected_offsets(rel, 2, 3) == {-1, 1}
        assert offsets(project_constraint(rel, 2, 3)) == (-1, 1)
        assert project_constraint(rel, 2, 3) is project_constraint(rel, 2, 3)
        assert rel == RelationDef("r", 3, ((2, 1), (1, 2)))
        assert hash(rel) == hash(RelationDef("r", 3, ((2, 1), (1, 2))))

    def test_same_template_solves_alike_twice(self):
        # the second solve reads the projections the first one cached
        rng = random.Random(8)
        cases = [
            (graph_instance("dist13", 9, [(i, i + 1) for i in range(8)] + [(0, 8)]), DIST13),
            (graph_instance("dist12", 4, [(a, b) for a in range(4) for b in range(a + 1, 4)]), DIST12),
        ]
        for t in (DIST12, TERNARY_CHAIN, TWODEC_TRUE):
            cases += [(random_connected_instance(t, rng.randint(3, 7), rng), t) for _ in range(10)]
        for inst, t in cases:
            fresh = Template(t.name, tuple(RelationDef(r.name, r.arity, r.body) for r in t.relations))
            expected = solve(inst, fresh)
            for _ in range(2):
                verdict = solve(inst, t)
                assert (verdict.status, verdict.witness, verdict.reason) == (
                    expected.status,
                    expected.witness,
                    expected.reason,
                )


class TestTupleInRelation:
    def test_translated_tuple_is_member(self):
        rel = RelationDef("r", 3, ((1, 2),))
        assert tuple_in_relation(rel, (10, 11, 12))

    def test_permuted_tuple_is_not(self):
        rel = RelationDef("r", 3, ((1, 2),))
        assert not tuple_in_relation(rel, (10, 12, 11))

    def test_markers(self):
        assert tuple_in_relation(RelationDef("r", 2, FULL), (7, -9))
        assert not tuple_in_relation(RelationDef("r", 2, EMPTY), (7, -9))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InputError):
            tuple_in_relation(RelationDef("r", 2, ((1,),)), (0, 1, 2))


class TestTemplate:
    def test_lookup(self):
        rel = RelationDef("edge", 2, ((1,), (-1,)))
        t = Template("t", (rel,))
        assert t.relation("edge") is rel

    def test_unknown_name(self):
        t = Template("t", (RelationDef("edge", 2, ((1,),)),))
        with pytest.raises(InputError, match="no relation named"):
            t.relation("missing")

    def test_duplicate_names_rejected(self):
        rel = RelationDef("edge", 2, ((1,),))
        with pytest.raises(InputError, match="duplicate"):
            Template("t", (rel, rel))


class TestInstance:
    def test_argument_range_checked(self):
        with pytest.raises(InputError, match="variable 3"):
            Instance(3, (Constraint("r", (0, 3)),))

    def test_needs_a_variable(self):
        with pytest.raises(InputError):
            Instance(0, ())

    def test_constraint_needs_arguments(self):
        with pytest.raises(InputError):
            Constraint("r", ())

    def test_validate_against_checks_arity(self):
        t = Template("t", (RelationDef("r", 2, ((1,),)),))
        inst = Instance(3, (Constraint("r", (0, 1, 2)),))
        with pytest.raises(InputError, match="arity 2"):
            inst.validate_against(t)

    def test_validate_against_checks_names(self):
        t = Template("t", (RelationDef("r", 2, ((1,),)),))
        inst = Instance(2, (Constraint("s", (0, 1)),))
        with pytest.raises(InputError, match="no relation named"):
            inst.validate_against(t)
