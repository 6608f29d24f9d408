import ast
import random
from itertools import combinations
from pathlib import Path

import pytest

from distcsp import brute
from distcsp.brute import (
    DEFAULT_NODE_CAP,
    brute_solve,
    search_space_estimate,
    verify_assignment,
)
from distcsp.errors import CapExceededError, InputError
from distcsp.model import MAX_SPAN, Constraint, Instance, RelationDef, Template
from distcsp.solver import solve
from helpers import (
    DIST12,
    DIST13,
    binary_relation,
    complete_edges,
    disjoint_union,
    graph_instance,
    oracle_satisfiable,
    petersen_edges,
    random_any_template,
    random_connected_instance,
    symmetric,
)

FULL = RelationDef("all", 2, "full")


def two_component_cases(count: int = 300, seed: int = 21):
    """Seeded pairs of connected (instance, template) parts: binary and
    ternary relations, FULL links in half the templates, repeated variables."""
    rng = random.Random(seed)
    for i in range(count):
        parts = []
        for _ in range(2):
            t = random_any_template(rng, f"t{i}")
            if rng.random() < 0.5:
                t = Template(t.name, (*t.relations, FULL))
            n = rng.choice((2, 3, 3, 4))
            parts.append((random_connected_instance(t, n, rng, extra=1), t))
        yield parts


# least witnesses of two_component_cases() under the search order, recorded
# from the search over plain offset sets that re-checked every constraint
PINNED_WITNESSES = {
    3: (0, -3, -5, 0, -3, 0),
    15: (0, 0, -9, -9, 0, -3, 0),
    21: (0, -5, -8, 0, -2),
    24: (0, 3, 0, -9, 0, -2, -3),
    30: (0, -3, 0, -3, -1),
    36: (0, -4, -4, 0, 1, 1),
    48: (0, -5, 0, -10, -10),
    57: (0, 0, 0, -3, -9, -9),
    75: (0, 0, 0, 0, -10, -10),
    84: (0, -8, -4, 0, -2, 0),
}


class TestVerifyAssignment:
    def test_accepts_a_witness(self):
        inst = Instance(2, (Constraint("dist13", (0, 1)),))
        assert verify_assignment(inst, DIST13, (0, 3)) == (True, None)

    def test_reports_first_failing_constraint(self):
        inst = Instance(2, (Constraint("dist13", (0, 1)),))
        assert verify_assignment(inst, DIST13, (0, 2)) == (False, 0)

    def test_no_constraints(self):
        assert verify_assignment(Instance(1, ()), DIST13, (17,)) == (True, None)

    def test_length_checked(self):
        with pytest.raises(InputError):
            verify_assignment(Instance(2, ()), DIST13, (0,))


class TestSearchSpaceEstimate:
    def test_finite_edges_branch_over_offsets(self):
        # 9 non-root variables, each reached through a {+-1,+-2} constraint
        inst = graph_instance("dist12", 10, petersen_edges())
        assert search_space_estimate(inst, DIST12) == 5**9

    def test_full_relations_fall_back_to_the_window(self):
        t = Template("t", (binary_relation("fin", (1,)), RelationDef("all", 2, "full")))
        inst = Instance(2, (Constraint("all", (0, 1)),))
        # window is 2*(n-1)*D + 1 with D = 1 from the finite relation
        assert search_space_estimate(inst, t) == 3

    def test_components_add(self):
        # brute_solve searches each component on its own
        inst = Instance(4, (Constraint("dist13", (0, 1)), Constraint("dist13", (2, 3))))
        assert search_space_estimate(inst, DIST13) == 7 + 7


class TestBruteSolve:
    def test_triangle_least_witness(self):
        inst = graph_instance("dist12", 3, complete_edges(3))
        assert brute_solve(inst, DIST12) == (0, -2, -1)

    def test_four_clique_is_unsatisfiable(self):
        inst = graph_instance("dist12", 4, complete_edges(4))
        assert brute_solve(inst, DIST12) is None

    def test_single_variable(self):
        assert brute_solve(Instance(1, ()), DIST13) == (0,)

    def test_components_pinned_independently(self):
        t = Template("t", (binary_relation("r1", (1,)),))
        inst = Instance(4, (Constraint("r1", (0, 1)), Constraint("r1", (2, 3))))
        assert brute_solve(inst, t) == (0, 1, 0, 1)

    def test_empty_relation_unsatisfiable(self):
        t = Template("t", (RelationDef("r", 2, "empty"),))
        assert brute_solve(Instance(2, (Constraint("r", (0, 1)),)), t) is None

    def test_node_cap_refusal(self):
        inst = graph_instance("dist12", 4, complete_edges(4))
        with pytest.raises(CapExceededError, match="cap"):
            brute_solve(inst, DIST12, node_cap=3)

    def test_a_core_search_checks_its_constraints_as_the_window_search_does(self):
        # auto mode searches dist12 over its core {-2, -1, 0}: an EMPTY
        # constraint makes it unsat, and a wrong arity raises, after an
        # EMPTY constraint too, as in the window search
        t = Template("t", (*DIST12.relations, RelationDef("e", 2, "empty")))
        assert solve(graph_instance("dist12", 2, [(0, 1)]), t).stats.core_searches == 1
        both = Instance(2, (Constraint("dist12", (0, 1)), Constraint("e", (0, 1))))
        assert brute_solve(both, t) is None and solve(both, t).status == "unsat"
        for args in ((0, 1, 2), (0,)):
            for first in ((), (Constraint("e", (0, 1)),)):
                bad = Instance(3, (*first, Constraint("dist12", args)))
                for search in (brute_solve, solve):
                    with pytest.raises(InputError, match="relation has arity 2, got"):
                        search(bad, t)

    def test_default_cap_is_generous(self):
        inst = graph_instance("dist12", 10, petersen_edges())
        assert search_space_estimate(inst, DIST12) < DEFAULT_NODE_CAP

    def test_witness_always_verifies(self):
        rng = random.Random(13)
        for i in range(40):
            t = random_any_template(rng, f"t{i}")
            inst = random_connected_instance(t, rng.randint(2, 5), rng)
            witness = brute_solve(inst, t)
            if witness is not None:
                assert verify_assignment(inst, t, witness) == (True, None)

    def test_decisions_match_plain_enumeration(self):
        rng = random.Random(14)
        for i in range(30):
            t = random_any_template(rng, f"t{i}")
            inst = random_connected_instance(t, rng.randint(2, 4), rng)
            assert (brute_solve(inst, t) is not None) == (
                oracle_satisfiable(inst, t) is not None
            )

    def test_repeated_variables_supported_directly(self):
        t = Template("t", (RelationDef("r", 3, ((0, 2), (1, 2))),))
        inst = Instance(2, (Constraint("r", (0, 0, 1)),))
        assert brute_solve(inst, t) == (0, 2)

    def test_decisions_match_the_oracle_on_each_component(self):
        sat = 0
        for parts in two_component_cases():
            expected = [oracle_satisfiable(inst, t) is not None for inst, t in parts]
            for (inst, t), decided in zip(parts, expected):
                assert (brute_solve(inst, t) is not None) == decided
            inst, t = disjoint_union(*parts)
            witness = brute_solve(inst, t)
            assert (witness is not None) == all(expected)
            if witness is not None:
                sat += 1
                assert verify_assignment(inst, t, witness) == (True, None)
        assert sat >= 50

    def test_least_witnesses_are_pinned(self):
        cases = list(two_component_cases(max(PINNED_WITNESSES) + 1))
        for idx, witness in PINNED_WITNESSES.items():
            assert brute_solve(*disjoint_union(*cases[idx])) == witness

    def test_offsets_wider_than_the_span_cap_are_decided(self):
        far = 3_000_000
        assert far > MAX_SPAN
        t = Template("wide", (binary_relation("wide", (0, far)),))
        # v0 - v1 in {0, far}: the least value of v1 is -far
        inst = Instance(2, (Constraint("wide", (1, 0)),))
        assert search_space_estimate(inst, t) < DEFAULT_NODE_CAP
        assert brute_solve(inst, t) == (0, -far)
        verdict = solve(inst, t, mode="brute")
        assert verdict.status == "sat"
        assert verify_assignment(inst, t, verdict.witness) == (True, None)


# the triangles of dist12: both differences and their difference in {+-1, +-2}
TRIANGLE12 = RelationDef(
    "tri12", 3, ((1, 2), (2, 1), (1, -1), (-1, 1), (-1, -2), (-2, -1))
)


class TestMirror:
    def test_negation_closed_flag(self):
        assert DIST12.relations[0].negation_closed
        assert TRIANGLE12.negation_closed
        assert FULL.negation_closed
        assert not binary_relation("r", (1, 3)).negation_closed
        assert not RelationDef("chain", 3, ((1, 2),)).negation_closed

    def test_an_asymmetric_relation_keeps_its_positive_witness(self):
        # a mirror applied without the closure check would call this unsat
        t = Template("t", (binary_relation("r", (1, 3)),))
        assert brute_solve(Instance(2, (Constraint("r", (0, 1)),)), t) == (0, 1)

    def test_a_value_after_a_nonzero_one_may_be_positive(self):
        # 1 and 2 lie at distance 1 from 0 and 2 from each other, so one of
        # them is positive; only the first may not be
        t = Template("t", (binary_relation("one", (1, -1)), binary_relation("two", (2, -2))))
        inst = Instance(
            3, (Constraint("one", (0, 1)), Constraint("one", (0, 2)), Constraint("two", (1, 2)))
        )
        assert brute_solve(inst, t) == (0, -1, 1)

    def test_no_positive_value_below_an_all_zero_prefix(self, monkeypatch):
        # K4 as four triangles is unsat, so the whole tree is searched; each
        # check is recorded with the values it sees
        t = Template("tri", (TRIANGLE12,))
        inst = Instance(4, tuple(Constraint("tri12", args) for args in combinations(range(4), 3)))
        checked = []
        real = brute.tuple_in_relation
        monkeypatch.setattr(
            brute, "tuple_in_relation", lambda rel, vs: checked.append(vs) or real(rel, vs)
        )
        assert brute_solve(inst, t) is None
        mirrored = set(checked)
        checked.clear()
        monkeypatch.setattr(RelationDef, "negation_closed", property(lambda rel: False))
        assert brute_solve(inst, t) is None
        assert mirrored < set(checked)
        for values in mirrored:
            # the first nonzero value, if any, is negative
            assert next((v for v in values if v), -1) < 0

    def test_the_mirror_keeps_the_least_witness(self, monkeypatch):
        # random relations made closed under negation, with and without FULL
        # links, and dense graphs over distance templates, searched with the
        # mirror and without it
        cases = []
        rng = random.Random(31)
        for i in range(60):
            relations = [
                RelationDef(rel.name, rel.arity, rel.offset_tuples + tuple(
                    tuple(-c for c in v) for v in rel.offset_tuples
                ))
                for rel in random_any_template(rng, f"t{i}").relations
            ]
            t = Template(f"t{i}", (*relations, FULL) if i % 2 else tuple(relations))
            cases.append((random_connected_instance(t, rng.randint(2, 5), rng), t))
            n = rng.randint(3, 7)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [tuple(rng.sample(range(n), 2)) for _ in range(n)]
            t = Template("d", (binary_relation("d", symmetric(*rng.sample(range(1, 5), 2))),))
            cases.append((graph_instance("d", n, edges), t))
        assert all(rel.negation_closed for _, t in cases for rel in t.relations)
        mirrored = [brute_solve(inst, t) for inst, t in cases]
        monkeypatch.setattr(RelationDef, "negation_closed", property(lambda rel: False))
        assert mirrored == [brute_solve(inst, t) for inst, t in cases]
        # plain enumeration is quick enough up to four variables
        small = [k for k, (inst, _) in enumerate(cases) if inst.num_vars <= 4]
        decided = [oracle_satisfiable(*cases[k]) is not None for k in small]
        assert [mirrored[k] is not None for k in small] == decided
        assert len(small) >= 50 and 10 <= sum(decided) <= len(small) - 10


class TestOracleIndependence:
    def test_shares_only_the_component_split_with_the_solver(self):
        # the oracle must not lean on the solver's propagation or its
        # offset-set kernel, whose span cap it does not share, nor on the
        # kernel's cached projections
        tree = ast.parse(Path(brute.__file__).read_text())
        from_solver = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("solver", "distcsp.solver")
            for alias in node.names
        ]
        assert from_solver == ["split_components"]
        used = {
            name
            for node in ast.walk(tree)
            for name in (
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
            )
        }
        assert "OffsetSet" not in used and "project_constraint" not in used

    def test_the_test_oracles_import_only_the_model(self):
        # `tests/helpers.py`, `oracle_least_in_core` among its oracles,
        # shares no search with the solver or this module
        tree = ast.parse((Path(__file__).parent / "helpers.py").read_text())
        modules = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        } | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        assert {m for m in modules if "distcsp" in m} == {"distcsp.model"}
