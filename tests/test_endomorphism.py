import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distcsp.endomorphism import (
    FINITE_RANGE,
    PERIODIC,
    PeriodicMapSpec,
    classify_endomorphism,
    compose_maps,
    format_map_spec,
    is_endomorphism,
    parse_map_spec,
    reduce_template,
    search_periodic_endomorphism,
    stable_numbers,
)
from distcsp.errors import CapExceededError, InputError, InternalInvariantError
from distcsp.model import Template
from helpers import (
    DIST12,
    DIST13,
    DIST136_3,
    EQUALITY,
    SHIFT1,
    binary_relation,
    symmetric,
)

ENDO1 = PeriodicMapSpec(3, (0, 1, 0), 1)
IDENTITY = PeriodicMapSpec(1, (0,), 1)
CONSTANT0 = PeriodicMapSpec(1, (0,), 0)
MOD2 = PeriodicMapSpec(2, (0, 1), 0)
MOD4 = PeriodicMapSpec(4, (0, 1, 2, 3), 0)

@st.composite
def map_specs(draw):
    period = draw(st.integers(1, 5))
    values = tuple(draw(st.integers(-20, 20)) for _ in range(period))
    drift = draw(st.sampled_from((1, -1, 0)))
    return PeriodicMapSpec(period, values, drift)


class TestPeriodicMapSpec:
    def test_drift_repeats_pattern_shifted(self):
        assert [ENDO1(x) for x in range(7)] == [0, 1, 0, 3, 4, 3, 6]
        assert ENDO1(5) == 3
        assert ENDO1(-1) == -3

    def test_identity(self):
        assert IDENTITY(-7) == -7

    def test_constant(self):
        assert CONSTANT0(42) == 0

    def test_drift_zero_range_is_base_values(self):
        spec = PeriodicMapSpec(3, (5, -2, 5), 0)
        assert {spec(x) for x in range(-30, 30)} == {5, -2}

    def test_validation(self):
        with pytest.raises(InputError):
            PeriodicMapSpec(0, (), 1)
        with pytest.raises(InputError):
            PeriodicMapSpec(2, (0,), 1)
        with pytest.raises(InputError):
            PeriodicMapSpec(1, (0,), 2)
        with pytest.raises(InputError):
            PeriodicMapSpec(1, (True,), 1)

    @given(map_specs(), st.integers(-100, 100))
    def test_drifted_periodicity(self, spec, x):
        assert spec(x + spec.period) == spec(x) + spec.drift * spec.period


class TestSpecText:
    def test_format(self):
        assert format_map_spec(ENDO1) == "p=3; values=0,1,0; drift=+1"
        assert format_map_spec(MOD2) == "p=2; values=0,1; drift=0"
        assert format_map_spec(PeriodicMapSpec(1, (-4,), -1)) == "p=1; values=-4; drift=-1"

    def test_parse(self):
        assert parse_map_spec("p=3; values=0,1,0; drift=+1") == ENDO1
        assert parse_map_spec(" p = 2 ;  values = 0 , 1 ; drift = 0 ") == MOD2

    def test_parse_rejects_malformed(self):
        for text in ("", "p=2; values=0,1", "p=x; values=0; drift=0",
                     "p=2; values=0,1; drift=2", "p=2; values=0; drift=+1"):
            with pytest.raises(InputError):
                parse_map_spec(text)

    @given(map_specs())
    def test_round_trip(self, spec):
        assert parse_map_spec(format_map_spec(spec)) == spec


class TestIsEndomorphism:
    def test_period_collapse_preserves_odd_distances(self):
        assert is_endomorphism(ENDO1, DIST13).ok

    def test_identity_preserves_everything(self):
        for t in (DIST13, DIST12, DIST136_3, EQUALITY, SHIFT1):
            assert is_endomorphism(IDENTITY, t).ok

    def test_constant_collapses_edges(self):
        check = is_endomorphism(CONSTANT0, DIST13)
        assert not check.ok
        assert check.relation == "dist13"
        assert check.source is not None and check.image is not None
        assert check.image[0] == check.image[1]

    def test_residue_maps_on_odd_offsets(self):
        assert is_endomorphism(MOD2, DIST13).ok
        assert is_endomorphism(MOD4, DIST13).ok
        assert not is_endomorphism(PeriodicMapSpec(3, (0, 1, 2), 0), DIST13).ok

    def test_shared_endomorphism_of_two_relation_template(self):
        assert is_endomorphism(ENDO1, DIST136_3).ok


class TestStableNumbers:
    def test_collapse_map_stabilizes_multiples_of_period(self):
        assert stable_numbers(ENDO1, 10) == (3, 6, 9)

    def test_identity_stabilizes_everything(self):
        assert stable_numbers(IDENTITY, 4) == (1, 2, 3, 4)

    def test_drift_zero_stabilizes_nothing(self):
        assert stable_numbers(MOD2, 8) == ()


class TestClassifyEndomorphism:
    def test_periodic_classification(self):
        got = classify_endomorphism(ENDO1, DIST13)
        assert got.kind == PERIODIC
        assert got.direction == 1
        assert got.minimal_stable == 3
        assert got.stable_numbers_upto == (3, 6, 9)
        assert got.checked_upto == 9

    def test_minimal_stable_divides_largest_distance(self):
        got = classify_endomorphism(ENDO1, DIST13)
        assert 3 % got.minimal_stable == 0

    def test_identity_minimal_stable_is_one(self):
        got = classify_endomorphism(IDENTITY, DIST13)
        assert got.kind == PERIODIC and got.minimal_stable == 1
        assert got.stable_numbers_upto == (1, 2, 3)

    def test_reflection_direction(self):
        reflection = PeriodicMapSpec(1, (0,), -1)
        got = classify_endomorphism(reflection, DIST13)
        assert got.kind == PERIODIC and got.direction == -1

    def test_finite_range_classification(self):
        got = classify_endomorphism(MOD2, DIST13)
        assert got.kind == FINITE_RANGE
        assert got.direction is None
        assert got.minimal_stable is None
        assert got.stable_numbers_upto == ()

    def test_non_endomorphism_rejected(self):
        with pytest.raises(InputError, match="not an endomorphism"):
            classify_endomorphism(CONSTANT0, DIST13)

    def test_stable_numbers_are_multiples_of_minimal(self):
        for spec in (ENDO1, IDENTITY, PeriodicMapSpec(1, (5,), 1)):
            got = classify_endomorphism(spec, DIST13)
            assert all(q % got.minimal_stable == 0 for q in got.stable_numbers_upto)

    def test_template_without_distances_lists_up_to_one_period(self):
        # {0} realizes no distance, so D counts as 1 and nothing is divided by it
        got = classify_endomorphism(PeriodicMapSpec(2, (0, 5), 1), EQUALITY)
        assert got.kind == PERIODIC and got.minimal_stable == 2
        assert got.stable_numbers_upto == (2,) and got.checked_upto == 2

    def test_huge_distance_refused_at_once(self):
        # listing the stable numbers up to period * D = 10^9 would not finish
        t = Template("wide", (binary_relation("w", symmetric(1, 10**9)),))
        reflection = PeriodicMapSpec(1, (0,), -1)
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="cap"):
            classify_endomorphism(reflection, t)
        assert time.perf_counter() - start < 1.0


class TestComposeMaps:
    def test_period_and_drift(self):
        spec = compose_maps(ENDO1, MOD2)
        assert spec.period == math.lcm(3, 2) == 6
        assert spec.drift == 0

    @given(map_specs(), map_specs(), st.integers(-60, 60))
    def test_pointwise_agreement(self, outer, inner, x):
        assert compose_maps(outer, inner)(x) == outer(inner(x))


class TestReduceTemplate:
    def test_divide_by_stable_number(self):
        reduced = reduce_template(DIST136_3, 3)
        assert reduced.relation("dist136").offset_tuples == ((-2,), (-1,), (1,), (2,))
        assert reduced.relation("dist3").offset_tuples == ((-1,), (1,))

    def test_one_is_identity(self):
        assert reduce_template(DIST13, 1) is DIST13

    def test_no_divisible_orbit_empties(self):
        assert reduce_template(DIST13, 2).relation("dist13").is_empty

    def test_markers_kept(self):
        from distcsp.model import RelationDef, Template

        t = Template("t", (RelationDef("r", 2, "full"), binary_relation("s", symmetric(2))))
        reduced = reduce_template(t, 2)
        assert reduced.relation("r").is_full
        assert reduced.relation("s").offset_tuples == ((-1,), (1,))

    def test_divisor_validated(self):
        with pytest.raises(InputError):
            reduce_template(DIST13, 0)


class TestSearch:
    def test_default_bounds_find_a_parity_collapse(self):
        assert search_periodic_endomorphism(DIST13) == PeriodicMapSpec(2, (-6, -5), 0)

    def test_narrow_window(self):
        assert search_periodic_endomorphism(DIST13, 3, 4) == PeriodicMapSpec(2, (-4, -3), 0)

    def test_drift_filter_recovers_period_collapse(self):
        spec = search_periodic_endomorphism(DIST13, 3, 4, drift_filter=(1,))
        assert spec == PeriodicMapSpec(3, (-4, -3, -4), 1)
        # the found map is the canonical period-3 collapse shifted down by 4
        assert all(spec(x) == ENDO1(x) - 4 for x in range(-12, 12))

    def test_found_specs_are_verified_endomorphisms(self):
        for t in (DIST13, DIST136_3):
            spec = search_periodic_endomorphism(t)
            assert spec is not None
            assert is_endomorphism(spec, t).ok

    def test_bounded_refutation_of_finite_range(self):
        assert search_periodic_endomorphism(DIST136_3, 4, 8, drift_filter=(0,)) is None

    def test_equality_admits_a_constant(self):
        assert search_periodic_endomorphism(EQUALITY, 1, 1) == PeriodicMapSpec(1, (-1,), 0)

    def test_pure_translations_are_skipped(self):
        # every endomorphism of the successor template is a translation
        assert search_periodic_endomorphism(SHIFT1) is None

    def test_bounds_required_without_distances(self):
        with pytest.raises(InputError):
            search_periodic_endomorphism(EQUALITY)

    def test_search_bounds_validated(self):
        with pytest.raises(InputError, match="max_period must be >= 1 and value_window >= 0"):
            search_periodic_endomorphism(DIST13, max_period=0)
        with pytest.raises(InputError, match="value_window >= 0"):
            search_periodic_endomorphism(DIST13, value_window=-1)
        assert search_periodic_endomorphism(DIST13, max_period=1, value_window=0) is None

    def test_drift_filter_validated(self):
        with pytest.raises(InputError):
            search_periodic_endomorphism(DIST13, drift_filter=(2,))
