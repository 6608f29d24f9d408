import ast
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distcsp import analysis, polymorphism
from distcsp.errors import CapExceededError, InputError
from distcsp.model import RelationDef, tuple_in_relation
from distcsp.polymorphism import (
    check_two_decomposable,
    find_modular_median,
    modular_median,
    preservation_window,
    preserves_relation,
    random_preservation_trials,
    verification_window,
)
from helpers import (
    DIFF13,
    DIST12,
    DIST13,
    DIST136_3,
    EQUALITY,
    SHIFT1,
    TERNARY_CHAIN,
    TWODEC_FALSE,
    TWODEC_TRUE,
    binary_relation,
    oracle_closure_violation,
    oracle_in_relation,
    oracle_median,
    oracle_two_decomposable,
)

ints = st.integers(-1000, 1000)
moduli = st.integers(1, 12)


class TestModularMedian:
    def test_all_congruent_takes_median(self):
        assert modular_median(3, 0, 3, 6) == 3

    def test_two_congruent_takes_first_of_them(self):
        # 0 and 3 agree mod 3; 0 comes first in the argument order
        assert modular_median(3, 0, 1, 3) == 0

    def test_no_two_congruent_takes_first(self):
        assert modular_median(5, 0, 1, 2) == 0

    def test_majority_pair(self):
        assert modular_median(7, 4, 4, 9) == 4

    def test_modulus_validated(self):
        with pytest.raises(InputError):
            modular_median(0, 1, 2, 3)

    @given(moduli, ints, ints, ints)
    def test_matches_independent_restatement(self, d, x, y, z):
        assert modular_median(d, x, y, z) == oracle_median(d, x, y, z)

    @given(moduli, ints, ints)
    def test_majority_law(self, d, x, y):
        assert modular_median(d, x, x, y) == x
        assert modular_median(d, x, y, x) == x
        assert modular_median(d, y, x, x) == x

    @given(moduli, ints)
    def test_idempotent(self, d, x):
        assert modular_median(d, x, x, x) == x

    @given(moduli, ints, ints, ints, ints)
    def test_commutes_with_shifts(self, d, x, y, z, s):
        assert modular_median(d, x + s, y + s, z + s) == modular_median(d, x, y, z) + s


class TestPreservesRelation:
    def test_even_modulus_preserves_odd_offsets(self):
        result = preserves_relation(2, DIST13.relations[0])
        assert result.preserved and result.witness is None

    def test_plain_median_escapes_directed_offsets(self):
        result = preserves_relation(1, DIFF13.relations[0])
        assert not result.preserved

    def test_returned_witness_is_a_genuine_violation(self):
        rel = DIFF13.relations[0]
        result = preserves_relation(1, rel)
        rows = result.witness
        assert rows is not None and result.image is not None
        for row in rows:
            assert oracle_in_relation(rel, row)
        image = tuple(
            oracle_median(1, rows[0][j], rows[1][j], rows[2][j]) for j in range(2)
        )
        assert image == result.image
        assert not oracle_in_relation(rel, image)

    def test_known_violating_triple(self):
        # medians of (0,1),(1,4),(2,3) are (1,3); the gap 2 is not an offset
        rel = DIFF13.relations[0]
        image = tuple(oracle_median(1, *cols) for cols in zip((0, 1), (1, 4), (2, 3)))
        assert image == (1, 3)
        assert not oracle_in_relation(rel, image)

    def test_equality_always_preserved(self):
        for d in (1, 2, 3, 7):
            assert preserves_relation(d, EQUALITY.relations[0]).preserved

    def test_single_offset_always_preserved(self):
        assert preserves_relation(1, SHIFT1.relations[0]).preserved

    def test_marker_bodies_trivially_preserved(self):
        result = preserves_relation(3, RelationDef("r", 2, "full"))
        assert result.preserved and result.trivial

    def test_window_formula(self):
        rel = DIST13.relations[0]
        assert preservation_window(2, rel) == 6 * (3 + 2) + 1
        assert verification_window(DIST13, 2) == 31

    def test_modulus_validated(self):
        with pytest.raises(InputError):
            preserves_relation(0, DIST13.relations[0])

    def test_huge_shift_grid_refused_at_once(self):
        # offsets +-10^9 would make a shift grid of about 1.4 * 10^20 cells
        rel = binary_relation("w", (-(10**9), 1, 10**9))
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="cap"):
            preserves_relation(1, rel)
        assert time.perf_counter() - start < 1.0

    def test_many_orbit_triples_refused_at_once(self):
        # W = 187 gives a 140,625-cell grid, under the span cap, but 27,000
        # orbit triples of it make 3.8 * 10^9 cells
        rel = binary_relation("many", tuple(range(1, 31)))
        assert preservation_window(1, rel) == 187
        with pytest.raises(CapExceededError, match="orbit triples"):
            preserves_relation(1, rel)

    def test_many_rounds_over_a_tiny_grid_refused_at_once(self):
        # 21,952 orbit triples of a 3,969-cell grid make 8.7 * 10^7 cells,
        # under the cap, but each triple is charged at least ROUND_CELLS:
        # so charged they make 1.1 * 10^8
        rel = RelationDef("many", 3, tuple(itertools.product(range(-4, 5), repeat=2))[:28])
        assert (2 * preservation_window(1, rel) + 1) ** 2 == 3_969
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="orbit triples"):
            preserves_relation(1, rel)
        assert time.perf_counter() - start < 1.0


class TestExactWindow:
    def test_agrees_with_full_window_oracle(self):
        rng = random.Random(18)
        for _ in range(300):
            k, bound = rng.randint(2, 4), rng.randint(1, 3)
            tuples = {
                tuple(rng.randint(-bound, bound) for _ in range(k - 1))
                for _ in range(rng.randint(1, 4))
            }
            rel = RelationDef("r", k, tuple(sorted(tuples)))
            d = rng.randint(1, 4)
            box = 4 * rel.max_offset() + 2 * d
            inner = oracle_closure_violation(d, rel, box)
            found = inner or oracle_closure_violation(d, rel, preservation_window(d, rel), box)
            # the lemma: a violation in the window has one with |a|, |b| <= 4 delta + 2d
            assert (inner is None) == (found is None), (d, rel, found)
            result = preserves_relation(d, rel)
            assert result.preserved == (found is None), (d, rel)
            if not result.preserved:
                rows = result.witness
                assert all(oracle_in_relation(rel, row) for row in rows)
                image = tuple(oracle_median(d, *column) for column in zip(*rows))
                assert image == result.image and not oracle_in_relation(rel, image)


class TestRandomTrials:
    def test_no_violation_on_preserved_fixture(self):
        assert random_preservation_trials(2, DIST13.relations[0], trials=2000) is None

    def test_finds_violations_for_even_modulus_on_mixed_offsets(self):
        witness = random_preservation_trials(2, DIST12.relations[0], trials=2000)
        assert witness is not None
        rel = DIST12.relations[0]
        image = tuple(
            modular_median(2, witness[0][j], witness[1][j], witness[2][j])
            for j in range(2)
        )
        for row in witness:
            assert tuple_in_relation(rel, row)
        assert not tuple_in_relation(rel, image)

    def test_marker_bodies_never_falsified(self):
        assert random_preservation_trials(1, RelationDef("r", 2, "full")) is None


class TestFindModularMedian:
    def test_mixed_parity_template_has_none(self):
        assert find_modular_median(DIST12, 6) is None
        assert find_modular_median(DIST12) is None

    def test_shift_template_takes_plain_median(self):
        assert find_modular_median(SHIFT1) == 1

    def test_equality_template_takes_plain_median(self):
        assert find_modular_median(EQUALITY) == 1

    def test_smallest_modulus_returned(self):
        assert find_modular_median(DIST13) == 2
        assert find_modular_median(DIFF13) == 2

    def test_fixture_values(self):
        assert find_modular_median(TERNARY_CHAIN) == 1
        assert find_modular_median(TWODEC_TRUE) == 1
        assert find_modular_median(TWODEC_FALSE) is None
        assert find_modular_median(DIST136_3) is None

    def test_bound_validated(self):
        with pytest.raises(InputError):
            find_modular_median(DIST13, 0)


class TestTwoDecomposable:
    def test_single_orbit_ternary(self):
        assert check_two_decomposable(TERNARY_CHAIN.relations[0]) == (True, None)

    def test_pairwise_gaps_can_pin_membership(self):
        assert check_two_decomposable(TWODEC_TRUE.relations[0]) == (True, None)

    def test_counterexample_found(self):
        ok, witness = check_two_decomposable(TWODEC_FALSE.relations[0])
        assert not ok and witness == (0, 0, 0)
        # all pairwise gaps of the witness occur in the relation, yet the
        # witness is not a member
        rel = TWODEC_FALSE.relations[0]
        vectors = [(0, *v) for v in rel.offset_tuples]
        for i in range(3):
            for j in range(3):
                if i != j:
                    gap = witness[j] - witness[i]
                    assert any(w[j] - w[i] == gap for w in vectors)
        assert not oracle_in_relation(rel, witness)

    def test_binary_and_markers_vacuous(self):
        assert check_two_decomposable(DIST13.relations[0]) == (True, None)
        assert check_two_decomposable(RelationDef("r", 3, "full")) == (True, None)

    def test_huge_candidate_space_refused_at_once(self):
        # (2 * (6 * 1000 + 1) + 1)^5 candidates would never finish
        rel = RelationDef("wide", 6, ((1000, 0, 0, 0, 0),))
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="cap"):
            check_two_decomposable(rel)
        assert time.perf_counter() - start < 1.0

    def test_agrees_with_enumeration_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            count = rng.randint(1, 4)
            tuples = {
                (rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(count)
            }
            rel = RelationDef("r", 3, tuple(tuples))
            window = 3 * rel.max_offset() + 1
            assert check_two_decomposable(rel) == oracle_two_decomposable(rel, window)


class TestImports:
    @pytest.mark.parametrize("module", [polymorphism, analysis])
    def test_no_search_or_solver_imports(self, module):
        # the closure checks and the distance profile take their caps from
        # model and stay independent of the searches they certify
        tree = ast.parse(Path(module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                if node.module is None:
                    imported |= {alias.name for alias in node.names}
                else:
                    imported.add(node.module.rsplit(".", 1)[-1])
        assert not imported & {"brute", "solver"}

    def test_no_module_imports_numpy(self):
        # the package needs only the standard library
        for path in sorted(Path(polymorphism.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                assert "numpy" not in {name.split(".")[0] for name in names}, path.name
