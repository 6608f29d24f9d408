import itertools
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from distcsp import analysis, brute, model, polymorphism, solver
from distcsp.brute import brute_solve, search_space_estimate, verify_assignment
from distcsp.errors import CapExceededError, InputError, InternalInvariantError
from distcsp.model import Constraint, Instance, OffsetSet, RelationDef, Template
from distcsp.solver import (
    MODES,
    SolveStats,
    bfs_depths,
    chordal_completion,
    co_occurrence_adjacency,
    component_template,
    extract_solution,
    initialize_pairs,
    preprocess,
    propagate,
    solve,
    split_components,
    sweep,
)
from helpers import (
    DIST12,
    DIST13,
    EQUALITY,
    TWODEC_FALSE,
    TWODEC_TRUE,
    bfs_order,
    binary_relation,
    complete_edges,
    components_of,
    cycle_edges,
    disjoint_union,
    elimination_game,
    graph_instance,
    offset_set_walk,
    oracle_co_occurrence,
    oracle_decides,
    oracle_pair_closure,
    oracle_three_colourable,
    random_any_template,
    random_connected_instance,
    random_median_template,
    random_offset_run,
    spanning_tree_edges,
    symmetric,
)

CHAIN_T = Template("chain", (binary_relation("r1", (1,)), binary_relation("r13", (1, 3))))
CHAIN_UNSAT = Instance(
    3,
    (Constraint("r1", (0, 1)), Constraint("r1", (1, 2)), Constraint("r13", (0, 2))),
)


# extraction gets stuck on this fan over dist12, which is satisfiable
FAN = graph_instance("dist12", 5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 4), (3, 4)])

# {+-2, +-3} has no modular median and no finite core within the budget of
# `solver._finite_core`, so auto mode propagates it; extraction gets stuck
# on this satisfiable theta graph: paths of 2, 3 and 4 edges from 0 to 6
DIST23 = Template("d23", (binary_relation("d23", symmetric(2, 3)),))
STUCK23 = graph_instance(
    "d23", 8, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 6), (6, 7)]
)


def completion_edges(matrix, inst):
    """The ordered pairs the matrix stores, once checked on their own terms:
    they hold both orientations of every pair sharing a constraint, and
    index order reversed is a perfect elimination order of them, so each
    variable's lower neighbours form a clique."""
    edges = set(matrix.cells)
    assert all((l, k) in edges for k, l in edges)
    for c in inst.constraints:
        assert all((a, b) in edges for a in c.args for b in c.args if a != b)
    for v in range(inst.num_vars):
        lower = [u for u in range(v) if (u, v) in edges]
        assert all((a, b) in edges for a in lower for b in lower if a != b)
    return edges


def grid_edges(rows, cols):
    return [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)] + [
        (r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)
    ]


def cell_sets(matrix):
    return {pair: None if cell.is_full else set(cell.offsets) for pair, cell in matrix.cells.items()}


class TestPreprocess:
    def test_repeated_variable_filters_orbits(self):
        t = Template("t", (RelationDef("r", 3, ((0, 2), (1, 2))),))
        inst = Instance(2, (Constraint("r", (0, 0, 1)),))
        prep = preprocess(inst, t)
        assert not prep.unsat
        (c,) = prep.instance.constraints
        assert c.relation == "r~001" and c.args == (0, 1)
        assert prep.template.relation("r~001").offset_tuples == ((2,),)

    def test_no_repeats_is_untouched(self):
        inst = Instance(2, (Constraint("dist13", (0, 1)),))
        prep = preprocess(inst, DIST13)
        assert prep.instance is inst
        assert prep.template is DIST13

    def test_arity_checked_in_the_same_pass(self):
        inst = Instance(3, (Constraint("dist13", (0, 1)), Constraint("dist13", (0, 1, 2))))
        with pytest.raises(InputError, match=r"relation has arity 2, got 3 arguments"):
            preprocess(inst, DIST13)
        # a malformed constraint is reported even behind an EMPTY one
        t = Template("t", (RelationDef("e", 2, "empty"), binary_relation("r", (1,))))
        inst = Instance(3, (Constraint("e", (0, 1)), Constraint("r", (0, 1, 2))))
        with pytest.raises(InputError, match=r"r\(0, 1, 2\): relation has arity 2, got 3"):
            preprocess(inst, t)

    def test_derived_name_avoids_the_template_names(self):
        t = Template(
            "t",
            (
                RelationDef("r", 3, ((0, 1), (1, 1))),
                binary_relation("r~001", (1,)),
                binary_relation("r~001~", (5,)),
            ),
        )
        inst = Instance(2, (Constraint("r", (0, 0, 1)), Constraint("r~001", (0, 1))))
        prep = preprocess(inst, t)
        assert [c.relation for c in prep.instance.constraints] == ["r~001~~", "r~001"]
        assert prep.template.relation("r~001~~").offset_tuples == ((1,),)
        verdict = solve(inst, t, debug=True)
        assert verdict.status == "sat" and verdict.witness == (0, 1)

    def test_empty_relation_is_unsatisfiable(self):
        t = Template("t", (RelationDef("r", 2, "empty"),))
        prep = preprocess(Instance(2, (Constraint("r", (0, 1)),)), t)
        assert prep.unsat

    def test_repeated_variable_with_no_surviving_orbit(self):
        t = Template("t", (RelationDef("r", 3, ((1, 2),)),))
        prep = preprocess(Instance(2, (Constraint("r", (0, 0, 1)),)), t)
        assert prep.unsat

    def test_diagonal_equality_is_vacuous(self):
        t = Template("t", (binary_relation("eq", (0,)),))
        prep = preprocess(Instance(1, (Constraint("eq", (0, 0)),)), t)
        assert not prep.unsat and prep.instance.constraints == ()

    def test_diagonal_shift_is_unsatisfiable(self):
        t = Template("t", (binary_relation("s", (1,)),))
        prep = preprocess(Instance(1, (Constraint("s", (0, 0)),)), t)
        assert prep.unsat

    def test_duplicates_dropped(self):
        inst = Instance(2, (Constraint("dist13", (0, 1)), Constraint("dist13", (0, 1))))
        prep = preprocess(inst, DIST13)
        assert len(prep.instance.constraints) == 1

    def test_unary_full_leftovers_dropped(self):
        t = Template("t", (RelationDef("u", 1, "full"), RelationDef("R", 3, "full")))
        inst = Instance(2, (Constraint("u", (0,)), Constraint("R", (1, 1, 1))))
        prep = preprocess(inst, t)
        assert not prep.unsat and prep.instance.constraints == ()

    def test_full_relation_keeps_its_distinct_variables_together(self):
        t = Template("t", (RelationDef("R", 3, "full"),))
        inst = Instance(3, (Constraint("R", (1, 1, 2)),))
        prep = preprocess(inst, t)
        (c,) = prep.instance.constraints
        assert c.relation == "R~001" and c.args == (1, 2)
        assert prep.template.relation("R~001").is_full
        assert component_variables(prep.instance) == [[0], [1, 2]]
        verdict = solve(inst, t, debug=True)
        assert verdict.witness == (0, 0, 0) and verdict.stats.components == 2


def component_variables(inst):
    return [variables for variables, _ in split_components(inst)]


class TestComponents:
    def test_shared_variable_joins(self):
        inst = Instance(3, (Constraint("r", (0, 1)), Constraint("r", (1, 2))))
        assert component_variables(inst) == [[0, 1, 2]]

    def test_disjoint_constraints_split(self):
        inst = Instance(4, (Constraint("r", (0, 1)), Constraint("r", (2, 3))))
        assert component_variables(inst) == [[0, 1], [2, 3]]

    def test_unconstrained_variables_are_singletons(self):
        assert split_components(Instance(3, ())) == [([v], Instance(1, ())) for v in range(3)]

    def test_bfs_depths_visit_in_ascending_order(self):
        # star 0-{3,1,2} with the path 2-4-5 hanging off a leaf; 6 is isolated
        inst = Instance(
            7,
            tuple(
                Constraint("r", args)
                for args in ((0, 3), (1, 0), (0, 2), (4, 2), (4, 5))
            ),
        )
        adjacency = co_occurrence_adjacency(inst)
        assert adjacency[0] == {1, 2, 3} and adjacency[6] == set()
        depths = bfs_depths(adjacency, 0)
        assert list(depths) == [0, 1, 2, 3, 4, 5]
        assert depths == {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 3}
        assert list(bfs_depths(adjacency, 4)) == [4, 2, 5, 0, 1, 3]
        assert bfs_depths(adjacency, 6) == {6: 0}

    def test_chordal_completion_fills_along_the_order(self):
        # eliminating 5, 4 and 3 in turn adds the fill edges (0,4), (0,3), (0,2)
        hexagon = co_occurrence_adjacency(graph_instance("r", 6, cycle_edges(6)))
        filled = chordal_completion(hexagon)
        assert filled[0] == {1, 2, 3, 4, 5} and filled[3] == {0, 2, 4}
        assert sum(map(len, filled)) // 2 == 6 + 3
        for edges in ([(i, i + 1) for i in range(5)], complete_edges(5)):
            inst = graph_instance("r", 6, edges)
            assert chordal_completion(co_occurrence_adjacency(inst)) == co_occurrence_adjacency(inst)

    def test_co_occurrence_graph_matches_the_reference(self):
        # binary constraints join their two ends directly; repeated
        # variables and every other arity go through the general rule
        rng = random.Random(41)
        repeated = 0
        for _ in range(200):
            n = rng.randint(1, 7)
            constraints = tuple(
                Constraint("r", tuple(rng.choices(range(n), k=rng.choice((1, 2, 2, 3, 4)))))
                for _ in range(rng.randint(0, 8))
            )
            repeated += any(len(set(c.args)) < len(c.args) for c in constraints)
            inst = Instance(n, constraints)
            assert co_occurrence_adjacency(inst) == oracle_co_occurrence(inst)
        assert repeated >= 50

    def test_chordal_completion_is_the_elimination_game(self):
        # the parent rule hands fill to the highest lower neighbour alone;
        # relabelled random graphs, cycles and grids, some edges FULL
        rng = random.Random(43)
        t = Template("t", (binary_relation("r", (1, 3)), RelationDef("f", 2, "full")))
        graphs = filled = 0
        for i in range(330):
            if i % 3 == 0:
                n = rng.randint(2, 14)
                pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
                edges = spanning_tree_edges(n, rng) + rng.sample(pairs, rng.randint(0, n - 1))
            elif i % 3 == 1:
                n = rng.randint(3, 20)
                edges = cycle_edges(n)
            else:
                rows, cols = rng.randint(1, 5), rng.randint(2, 5)
                n, edges = rows * cols, grid_edges(rows, cols)
            label = rng.sample(range(n), n)
            inst = Instance(n, tuple(
                Constraint(rng.choice("rrf"), (label[a], label[b])) for a, b in edges
            ))
            matrix = initialize_pairs(inst, t)
            expected = elimination_game(co_occurrence_adjacency(inst))
            assert matrix.neighbours == expected
            assert chordal_completion(co_occurrence_adjacency(inst)) == expected
            for v in range(n):
                assert matrix.lower[v] == sorted(u for u in matrix.neighbours[v] if u < v)
            cells = matrix.cells
            assert all((k, l) in cells and (l, k) in cells for k in range(n) for l in expected[k])
            assert len(cells) == sum(map(len, expected))  # twice the edges
            graphs += 1
            filled += expected != co_occurrence_adjacency(inst)
        assert graphs >= 300 and filled >= 150

    def test_split_numbers_each_component_in_canonical_order(self):
        # the hexagon's breadth-first order becomes index order; its
        # completion fills (3,4), (2,3), (1,2)
        inst = graph_instance("r", 6, cycle_edges(6))
        ((variables, sub),) = split_components(inst)
        assert variables == bfs_order(inst) == [0, 1, 5, 2, 4, 3]
        assert bfs_order(sub) == list(range(6))
        filled = chordal_completion(co_occurrence_adjacency(sub))
        assert filled[2] == {0, 1, 3, 4} and filled[3] == {1, 2, 4, 5}
        assert sum(map(len, filled)) // 2 == 6 + 3

    def test_split_renumbers_each_component(self):
        inst = Instance(
            5,
            (
                Constraint("r", (3, 4)),
                Constraint("r", (0, 2)),
                Constraint("s", (4, 1, 3)),
                Constraint("r", (2, 0)),
            ),
        )
        assert split_components(inst) == [
            ([0, 2], Instance(2, (Constraint("r", (0, 1)), Constraint("r", (1, 0))))),
            ([1, 3, 4], Instance(3, (Constraint("r", (1, 2)), Constraint("s", (2, 0, 1))))),
        ]
        assert component_variables(inst) == components_of(inst)

    def test_split_builds_components_without_revalidating(self, monkeypatch):
        # the renumbered constraints and induced instances come from an
        # already validated instance, so no integer is checked again
        inst = graph_instance("r", 8, cycle_edges(4) + [(4, 5), (6, 7)])
        checked = []
        monkeypatch.setattr(model, "_check_int", lambda value, what: checked.append(value))
        split = split_components(inst)
        assert checked == []
        monkeypatch.undo()
        for _, sub in split:
            revalidated = tuple(Constraint(c.relation, c.args) for c in sub.constraints)
            assert sub == Instance(sub.num_vars, revalidated)


    def test_split_returns_a_canonical_instance_itself(self):
        # a path numbered along itself, and every component split off before
        path = graph_instance("r", 5, [(i, i + 1) for i in range(4)])
        ((variables, sub),) = split_components(path)
        assert variables == [0, 1, 2, 3, 4] and sub is path
        ((_, hexagon),) = split_components(graph_instance("r", 6, cycle_edges(6)))
        ((variables, sub),) = split_components(hexagon)
        assert variables == list(range(6)) and sub is hexagon

    def test_split_renumbers_along_the_reference_order(self):
        rng = random.Random(17)
        same = renumbered = 0
        for i in range(150):
            t = random_any_template(rng, f"t{i}")
            inst = random_connected_instance(t, rng.randint(1, 6), rng, extra=1)
            if i % 2:
                inst, t = disjoint_union((inst, t), (inst, t))
            perm = list(range(inst.num_vars))
            if i % 3:
                rng.shuffle(perm)
            inst = Instance(
                inst.num_vars,
                tuple(Constraint(c.relation, tuple(perm[a] for a in c.args)) for c in inst.constraints),
            )
            split = split_components(inst)
            assert [sorted(variables) for variables, _ in split] == components_of(inst)
            if len(split) == 1 and split[0][1] is inst:
                assert split[0][0] == bfs_order(inst) == list(range(inst.num_vars))
                same += 1
                continue
            for variables, sub in split:
                assert variables == bfs_order(inst, variables[0])
                index = {v: i for i, v in enumerate(variables)}
                expected = tuple(
                    Constraint(c.relation, tuple(index[a] for a in c.args))
                    for c in inst.constraints
                    if c.args[0] in index
                )
                assert sub == Instance(len(variables), expected)
                renumbered += 1
        assert same >= 10 and renumbered >= 100


    def test_only_the_propagation_path_translates_graphs(self, monkeypatch):
        # two components, both renumbered, translated from the one graph;
        # each keeps inst's own constraints, read through the index
        inst = graph_instance("r", 6, [(5, 3), (3, 1), (4, 2), (2, 0)])
        split, adjacency, index = solver._split(inst)
        assert adjacency == co_occurrence_adjacency(inst)
        assert [variables for variables, _ in split] == [[0, 2, 4], [1, 3, 5]]
        for (variables, part), (_, sub) in zip(split, split_components(inst)):
            assert all(any(c is d for d in inst.constraints) for c in part.constraints)
            read = tuple(Constraint(c.relation, tuple(index[a] for a in c.args)) for c in part.constraints)
            assert part.num_vars == len(variables) and Instance(part.num_vars, read) == sub
            assert solver._component_graph(adjacency, index, variables) == (
                co_occurrence_adjacency(sub)
            )
        # an instance that comes back as it is keeps its graph
        path = graph_instance("r", 3, [(0, 1), (1, 2)])
        split, adjacency, index = solver._split(path)
        assert split == [([0, 1, 2], path)] and split[0][1] is path and index == range(3)
        assert solver._component_graph(adjacency, index, [0, 1, 2]) is adjacency
        translated = []
        real = solver._component_graph
        monkeypatch.setattr(
            solver, "_component_graph", lambda *a: translated.append(a[2]) or real(*a)
        )
        t = Template("r", (binary_relation("r", (1,)),))
        for mode in MODES:
            translated.clear()
            assert solve(inst, t, mode=mode).witness == (0, 0, -1, -1, -2, -2)
            # brute mode propagates nothing, so it translates nothing
            assert translated == ([] if mode == "brute" else [[0, 2, 4], [1, 3, 5]])


class TestInitializePairs:
    def test_one_pass_matches_the_definition(self):
        # every covering projection intersected as plain sets, FULL on the
        # other completion edges; pairs are bound in both orientations, by
        # ternary and FULL relations, and some empty out
        rng = random.Random(21)
        extra = (
            RelationDef("f2", 2, "full"),
            RelationDef("f3", 3, "full"),
            binary_relation("one", (1,)),
            binary_relation("two", (2, 3)),
        )
        emptied = both = 0
        for i in range(200):
            base = random_any_template(rng, f"t{i}")
            t = Template(base.name, base.relations + extra)
            n = rng.randint(3, 6)
            inst = Instance(
                n,
                tuple(
                    Constraint(rel.name, tuple(rng.sample(range(n), rel.arity)))
                    for rel in rng.choices(t.relations, k=rng.randint(1, 8))
                ),
            )
            matrix = initialize_pairs(inst, t)
            reference = {}
            for c in inst.constraints:
                rel = t.relation(c.relation)
                if rel.is_full:
                    continue
                rows = [(0, *v) for v in rel.offset_tuples]
                for a, k in enumerate(c.args):
                    for b, l in enumerate(c.args):
                        if a != b:
                            gaps = {w[b] - w[a] for w in rows}
                            reference[k, l] = reference.get((k, l), gaps) & gaps
            oriented = {
                (c.args[a], c.args[b])
                for c in inst.constraints
                if not t.relation(c.relation).is_full
                for a in range(len(c.args))
                for b in range(a + 1, len(c.args))
            }
            both += any((l, k) in oriented for k, l in oriented)
            filled = chordal_completion(co_occurrence_adjacency(inst))
            for k in range(n):
                for l in filled[k]:
                    reference.setdefault((k, l), None)
            assert matrix.neighbours == filled
            assert cell_sets(matrix) == reference
            empty = [pair for pair, gaps in reference.items() if gaps == set()]
            if empty:
                assert matrix.empty_pair in empty
                emptied += 1
            else:
                assert matrix.empty_pair is None
        assert emptied >= 20 and both >= 20

    def test_single_constraint_projections(self):
        inst = Instance(2, (Constraint("dist13", (0, 1)),))
        matrix = initialize_pairs(inst, DIST13)
        assert matrix.get(0, 1) == OffsetSet.of([1, 3, -1, -3])
        assert matrix.get(1, 0) == OffsetSet.of([-1, -3, 1, 3])

    def test_covering_constraints_intersect(self):
        t = Template("t", (binary_relation("r13", (1, 3)), binary_relation("r1", (1,))))
        inst = Instance(2, (Constraint("r13", (0, 1)), Constraint("r1", (0, 1))))
        matrix = initialize_pairs(inst, t)
        assert matrix.get(0, 1) == OffsetSet.of([1])

    def test_uncovered_pairs_start_full(self):
        inst = Instance(3, (Constraint("dist13", (0, 1)), Constraint("dist13", (1, 2))))
        matrix = initialize_pairs(inst, DIST13)
        assert matrix.get(0, 2).is_full

    def test_repeated_arguments_rejected(self):
        inst = Instance(1, (Constraint("dist13", (0, 0)),))
        with pytest.raises(InputError, match="preprocess"):
            initialize_pairs(inst, DIST13)

    def test_empty_relation_rejected(self):
        # no cell would hold it, and extraction checks only arity 3 and up
        t = Template("t", (RelationDef("e", 2, "empty"),))
        with pytest.raises(InputError, match="preprocess"):
            initialize_pairs(Instance(2, (Constraint("e", (0, 1)),)), t)

    def test_mirror_invariant_on_setup(self):
        inst = Instance(2, (Constraint("diff", (1, 0)),))
        t = Template("t", (binary_relation("diff", (1, 3)),))
        matrix = initialize_pairs(inst, t)
        assert matrix.get(1, 0) == OffsetSet.of([1, 3])
        assert matrix.get(0, 1) == OffsetSet.of([-1, -3])


class TestPropagate:
    def test_chain_with_long_shortcut_empties(self):
        prep = preprocess(CHAIN_UNSAT, CHAIN_T)
        matrix = initialize_pairs(prep.instance, prep.template)
        propagate(matrix)
        assert matrix.empty_pair is not None

    def test_triangle_of_odd_offsets_empties(self):
        # odd + odd is even, so a triangle over {+-1,+-3} cannot close
        inst = graph_instance("dist13", 3, complete_edges(3))
        matrix = initialize_pairs(inst, DIST13)
        propagate(matrix)
        assert matrix.empty_pair is not None

    def test_single_constraint_is_already_a_fixpoint(self):
        inst = Instance(2, (Constraint("dist13", (0, 1)),))
        matrix = initialize_pairs(inst, DIST13)
        propagate(matrix)
        assert matrix.stats.proper_replacements == 0

    def test_trace_lines_name_pairs_and_midpoints(self):
        # the 4-cycle's fill edge (0,2) goes from FULL to finite
        inst = graph_instance("dist13", 4, cycle_edges(4))
        matrix = initialize_pairs(inst, DIST13)
        lines = []
        propagate(matrix, trace=lines.append)
        assert lines
        pattern = re.compile(r"^pair=\(\d+,\d+\) via \d+ old=(FULL|\{[-\d,]*\}) new=(FULL|\{[-\d,]*\})$")
        for line in lines:
            assert pattern.match(line), line
        assert any(line.startswith("pair=(0,2) via ") and "old=FULL" in line for line in lines)

    def test_worklist_reaches_the_reference_fixpoint(self):
        for make_template in (random_any_template, random_median_template):
            rng = random.Random(3)
            for i in range(25):
                t = make_template(rng, f"t{i}")
                inst = random_connected_instance(t, rng.randint(2, 5), rng)
                prep = preprocess(inst, t)
                if prep.unsat:
                    continue
                matrix = initialize_pairs(prep.instance, prep.template)
                edges = completion_edges(matrix, prep.instance)
                propagate(matrix)
                reference = oracle_pair_closure(prep.instance, prep.template, edges)
                if reference is None:
                    assert matrix.empty_pair is not None
                    continue
                assert matrix.empty_pair is None
                assert cell_sets(matrix) == reference

    def test_median_templates_close_the_completion_like_full_path_consistency(self):
        # on median-closed templates every chordal cell is already minimal
        rng = random.Random(5)
        compared = filled = 0
        for i in range(150):
            t = random_median_template(rng, f"t{i}")
            inst = random_connected_instance(t, rng.randint(3, 6), rng)
            prep = preprocess(inst, t)
            if prep.unsat:
                continue
            for _, sub in split_components(prep.instance):
                matrix = propagate(initialize_pairs(sub, prep.template))
                full = oracle_pair_closure(sub, prep.template)
                if full is None:
                    assert matrix.empty_pair is not None
                    continue
                assert matrix.empty_pair is None
                assert cell_sets(matrix) == {pair: full[pair] for pair in matrix.cells}
                compared += 1
                shared = {(a, b) for c in sub.constraints for a in c.args for b in c.args if a != b}
                filled += set(matrix.cells) != shared
        assert compared >= 30 and filled >= 5

    def test_pops_only_changed_pairs(self):
        # every pop is a pair that was finite after initialisation or one
        # that a replacement queued
        path = graph_instance("dist13", 20, [(i, i + 1) for i in range(19)])
        cases = [(path, DIST13)]
        cases += [(graph_instance("dist13", n, cycle_edges(n)), DIST13) for n in (10, 12)]
        rng = random.Random(3)
        for make_template in (random_any_template, random_median_template):
            for i in range(25):
                t = make_template(rng, f"t{i}")
                cases.append((random_connected_instance(t, rng.randint(2, 5), rng), t))
        for inst, t in cases:
            prep = preprocess(inst, t)
            if prep.unsat:
                continue
            matrix = initialize_pairs(prep.instance, prep.template)
            finite = sum(
                1 for (k, l), cell in matrix.cells.items() if k < l and not cell.is_full
            )
            propagate(matrix)
            assert matrix.stats.sweeps <= finite + matrix.stats.proper_replacements

    def test_even_cycles_reach_the_reference_fixpoint(self):
        # a schedule that never queues a shrunk pair again still closes the
        # small seeded instances, but not these cycles
        for n in (10, 12):
            inst = graph_instance("dist13", n, cycle_edges(n))
            matrix = initialize_pairs(inst, DIST13)
            edges = completion_edges(matrix, inst)
            propagate(matrix)
            assert matrix.empty_pair is None
            assert cell_sets(matrix) == oracle_pair_closure(inst, DIST13, edges)

    def test_memoised_sums_reach_the_reference_fixpoint(self):
        # grids repeat each sum many times within one propagation; chorded
        # dist12 graphs tighten through short odd cycles
        cases = [
            (graph_instance("dist13", rows * rows, grid_edges(rows, rows)), DIST13)
            for rows in (4, 5)
        ]
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(4, 8)
            chords = rng.sample([(a, b) for a in range(n) for b in range(a + 1, n)], n // 2)
            cases.append((graph_instance("dist12", n, spanning_tree_edges(n, rng) + chords), DIST12))
        for inst, t in cases:
            matrix = initialize_pairs(inst, t)
            edges = completion_edges(matrix, inst)
            propagate(matrix)
            reference = oracle_pair_closure(inst, t, edges)
            if reference is None:
                assert matrix.empty_pair is not None
                continue
            assert matrix.empty_pair is None
            assert cell_sets(matrix) == reference

    def test_each_distinct_sum_computed_once(self, monkeypatch):
        computed = Counter()
        add = OffsetSet.__add__

        def counting_add(a, b):
            computed[a.lo, a.mask, b.lo, b.mask] += 1
            return add(a, b)

        matrix = initialize_pairs(graph_instance("dist13", 25, grid_edges(5, 5)), DIST13)
        monkeypatch.setattr(OffsetSet, "__add__", counting_add)
        propagate(matrix)
        monkeypatch.undo()
        assert computed and max(computed.values()) == 1

    @pytest.mark.parametrize(
        "inst",
        [graph_instance("dist13", r * c, grid_edges(r, c)) for r, c in ((4, 4), (5, 5), (3, 7))]
        + [graph_instance("dist13", n, cycle_edges(n)) for n in (17, 31)],
        ids=["grid4x4", "grid5x5", "grid3x7", "cycle17", "cycle31"],
    )
    def test_deferred_revisions_reach_the_reference_fixpoint(self, inst):
        # a revision deferred to the pop of the queued pair it reads still
        # runs; the odd cycles empty and the grids close
        matrix = initialize_pairs(inst, DIST13)
        edges = completion_edges(matrix, inst)
        propagate(matrix, debug=True)
        for (k, l), cell in matrix.cells.items():
            assert matrix.get(l, k) == -cell
        reference = oracle_pair_closure(inst, DIST13, edges)
        if reference is None:
            assert matrix.empty_pair is not None
        else:
            assert matrix.empty_pair is None
            assert cell_sets(matrix) == reference

    def test_deferral_saves_intersections(self, monkeypatch):
        # running every revision of every pop took 1,067 intersections here
        calls = 0
        intersect = OffsetSet.__and__

        def counting_and(a, b):
            nonlocal calls
            calls += 1
            return intersect(a, b)

        matrix = initialize_pairs(graph_instance("dist13", 25, grid_edges(5, 5)), DIST13)
        monkeypatch.setattr(OffsetSet, "__and__", counting_and)
        propagate(matrix)
        monkeypatch.undo()
        assert 0 < calls < 1067

    def test_mirror_invariant_at_fixpoint(self):
        rng = random.Random(4)
        for i in range(20):
            t = random_median_template(rng, f"t{i}")
            inst = random_connected_instance(t, rng.randint(2, 5), rng)
            prep = preprocess(inst, t)
            if prep.unsat:
                continue
            matrix = initialize_pairs(prep.instance, prep.template)
            propagate(matrix)
            for (k, l), cell in matrix.cells.items():
                assert matrix.get(l, k) == -cell


def progression_steps(t):
    """The steps of the relations' offsets, computed apart from the solver:
    None when some relation with offset tuples is not binary or not a
    progression; otherwise the set of steps, empty when every relation
    has one offset."""
    steps = set()
    for rel in t.relations:
        if not rel.has_tuples:
            continue
        if rel.arity != 2:
            return None
        offsets = [v for (v,) in rel.offset_tuples]
        gaps = {b - a for a, b in zip(offsets, offsets[1:])}
        if len(gaps) > 1:
            return None
        steps |= gaps
    return steps


class TestSweep:
    def test_one_step_rule_on_fixtures(self):
        two = Template("two", (binary_relation("a", (0, 2)), binary_relation("b", (-3, -1, 1))))
        mixed = Template("mixed", (binary_relation("a", (0, 2)), binary_relation("b", (0, 3))))
        full = Template("full", (RelationDef("f", 2, "full"), binary_relation("b", (1,))))
        cases = [
            (DIST13, True), (DIST12, False), (EQUALITY, True), (two, True),
            (mixed, False), (full, True), (TWODEC_TRUE, False),
        ]  # fmt: skip
        for t, accepted in cases:
            assert solver.route(t).one_step is accepted, t.name

    def test_accepted_templates_have_the_common_step_as_a_median(self):
        # every template the rule accepts is closed under m_g for its
        # common step g (any g for single offsets), as the sweep's proof needs
        rng = random.Random(29)
        accepted = rejected = 0
        for i in range(40):
            relations = []
            for idx in range(rng.choice((1, 2, 3))):
                d = rng.choice((1, 2, 3, 4)) if idx == 0 or rng.random() < 0.3 else relations[0][1]
                relations.append((binary_relation(f"r{idx}", random_offset_run(rng, d)), d))
            t = Template(f"t{i}", tuple(rel for rel, _ in relations))
            one_step = solver.route(t).one_step
            steps = progression_steps(t)
            assert one_step == (steps is not None and len(steps) <= 1), t
            if not one_step:
                rejected += 1
                continue
            accepted += 1
            g = min(steps, default=1)
            assert polymorphism.find_modular_median(t) is not None, t
            for rel in t.relations:
                assert polymorphism.preserves_relation(g, rel).preserved, (g, rel)
        assert accepted >= 25 and rejected >= 3

    def test_sweep_pops_nothing_and_traces_every_replacement(self):
        inst = graph_instance("dist13", 8, cycle_edges(8))
        lines = []
        verdict = solve(inst, DIST13, mode="consistency", trace=lines.append)
        assert verdict.stats.sweeps == 0 and verdict.stats.proper_replacements == len(lines) > 0
        pattern = re.compile(r"^pair=\(\d+,\d+\) via \d+ old=(FULL|\{[-\d,]*\}) new=(FULL|\{[-\d,]*\})$")
        assert all(pattern.match(line) for line in lines), lines

    def test_sweep_reaches_a_superset_of_the_worklist_fixpoint(self):
        rng = random.Random(31)
        for i in range(40):
            t = Template(f"t{i}", (binary_relation("r", random_offset_run(rng, rng.choice((1, 2, 3)))),))
            inst = random_connected_instance(t, rng.randint(2, 7), rng, extra=3)
            prep = preprocess(inst, t)
            if prep.unsat:
                continue
            swept = sweep(initialize_pairs(prep.instance, prep.template))
            fixed = propagate(initialize_pairs(prep.instance, prep.template))
            assert solver.route(component_template(prep.instance, prep.template)).one_step
            assert (swept.empty_pair is None) == (fixed.empty_pair is None)
            if swept.empty_pair is None:
                for pair, cell in swept.cells.items():
                    assert cell.is_full or set(fixed.cells[pair].offsets) <= set(cell.offsets)

    def test_a_rule_that_sweeps_mixed_steps_gets_stuck(self, monkeypatch):
        # steps 1 and 3, so the worklist runs: it decides this instance, but
        # a sweep, whose proof needs one common step, leaves extraction stuck
        t = Template("mixed", (binary_relation("r", (-3, -2, 1, 2, 3)),))
        edges = [(1, 0), (2, 1), (3, 0), (3, 1), (3, 2), (0, 2), (1, 2)]
        inst = graph_instance("r", 4, edges)
        verdict = solve(inst, t, mode="consistency")
        assert verdict.status == "sat" and verdict.witness == (0, -1, 1, -2)
        assert verify_assignment(inst, t, verdict.witness) == (True, None)

        class AcceptsMixedSteps(solver.Route):
            @property
            def one_step(self):
                return all(rel.arity == 2 for rel in self.template.relations if rel.has_tuples)

        monkeypatch.setattr(solver, "route", AcceptsMixedSteps)
        with pytest.raises(InternalInvariantError, match="extraction after a sweep gave None"):
            solve(inst, t, mode="consistency")

    def test_an_empty_cell_stops_the_sweep(self):
        matrix = sweep(initialize_pairs(graph_instance("dist13", 5, cycle_edges(5)), DIST13))
        assert matrix.empty_pair is not None and matrix.cells[matrix.empty_pair].is_empty

    def test_stuck_extraction_after_the_sweep_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(solver, "extract_solution", lambda matrix, inst, t, index=None: None)
        with pytest.raises(InternalInvariantError):
            solve(graph_instance("dist13", 4, cycle_edges(4)), DIST13, mode="auto")

    def test_debug_runs_the_worklist_after_the_sweep(self, monkeypatch):
        # a translated witness is still a solution, but not the least one
        real = solver.extract_solution
        calls = []

        def first_translated(matrix, inst, t, index=None):
            witness = real(matrix, inst, t, index)
            calls.append(witness)
            return witness if len(calls) > 1 else tuple(v + 1 for v in witness)

        monkeypatch.setattr(solver, "extract_solution", first_translated)
        inst = graph_instance("dist13", 6, cycle_edges(6))
        assert solve(inst, DIST13, mode="consistency").witness == (1, -2, -5, -8, -5, -2)
        calls.clear()
        with pytest.raises(InternalInvariantError):
            solve(inst, DIST13, mode="consistency", debug=True)
        assert len(calls) == 2

    def test_the_split_hands_each_component_its_graph(self, monkeypatch):
        # the graph of each component in its own numbering, that of the
        # copy `split_components` makes
        handed = []
        real = solver.initialize_pairs

        def spy(sub, t, variables, adjacency=None, index=None):
            graph = adjacency and [set(neighbours) for neighbours in adjacency]
            handed.append((sub, variables, graph))
            return real(sub, t, variables, adjacency, index)

        monkeypatch.setattr(solver, "initialize_pairs", spy)
        # two components, both renumbered, one swept and one propagated; in
        # auto mode the dist12 one is searched over its core instead, and
        # gets no graph
        inst, t = disjoint_union(
            (graph_instance("dist13", 6, cycle_edges(6)), DIST13),
            (graph_instance("dist12", 5, cycle_edges(5)), DIST12),
        )
        copies = {tuple(variables): sub for variables, sub in split_components(inst)}
        for mode, propagated in (("consistency", 2), ("auto", 1)):
            handed.clear()
            verdict = solve(inst, t, mode=mode)
            # the worklist pops only the dist12 cycle's pairs
            assert verdict.status == "sat" and (verdict.stats.sweeps > 0) == (propagated == 2)
            assert verdict.stats.core_searches == 2 - propagated
            assert len(handed) == propagated
            for _, variables, graph in handed:
                assert graph == co_occurrence_adjacency(copies[tuple(variables)])
        assert [sub.constraints[0].relation for sub, _, _ in handed] == ["dist13"]
        adjacency = co_occurrence_adjacency(inst)
        assert chordal_completion(adjacency) is adjacency

    def test_a_sat_answer_does_not_revalidate(self, monkeypatch):
        validated = []
        monkeypatch.setattr(Instance, "validate_against", lambda inst, t: validated.append(inst))
        verdict = solve(graph_instance("dist13", 6, cycle_edges(6)), DIST13, mode="consistency")
        assert verdict.status == "sat" and validated == []


class TestExtractSolution:
    def run(self, inst, t):
        prep = preprocess(inst, t)
        assert not prep.unsat
        matrix = initialize_pairs(prep.instance, prep.template)
        propagate(matrix)
        assert matrix.empty_pair is None
        return extract_solution(matrix, prep.instance, prep.template)

    def test_forced_chain(self):
        t = Template("t", (binary_relation("r1", (1,)),))
        inst = Instance(3, (Constraint("r1", (0, 1)), Constraint("r1", (1, 2))))
        assert self.run(inst, t) == (0, 1, 2)

    def test_least_candidate_wins(self):
        inst = Instance(2, (Constraint("dist13", (0, 1)),))
        assert self.run(inst, DIST13) == (0, -3)

    def test_triangle_witness(self):
        inst = graph_instance("dist12", 3, complete_edges(3))
        witness = self.run(inst, DIST12)
        assert witness == (0, -2, -1)
        assert verify_assignment(inst, DIST12, witness) == (True, None)

    def test_disconnected_matrix_gives_a_verified_witness(self):
        # the two components interleave; each one's lowest variable takes 0
        inst = Instance(5, (Constraint("dist13", (0, 2)), Constraint("dist13", (3, 1))))
        witness = self.run(inst, DIST13)
        assert witness == (0, 0, -3, -3, 0)
        assert verify_assignment(inst, DIST13, witness) == (True, None)

    def test_any_numbering_extracts_median_instances(self):
        # the completeness argument of `propagate` holds for every
        # elimination order, so a shuffled numbering never gets stuck
        rng = random.Random(13)
        extracted = shuffled_order = filled = 0
        for i in range(200):
            t = random_median_template(rng, f"t{i}")
            inst = random_connected_instance(t, rng.randint(2, 6), rng, extra=1)
            if i % 3 == 0:
                second = random_connected_instance(t, 3, rng, extra=1)
                inst, t = disjoint_union((inst, t), (second, t))
            perm = list(range(inst.num_vars))
            rng.shuffle(perm)
            renamed = tuple(
                Constraint(c.relation, tuple(perm[a] for a in c.args)) for c in inst.constraints
            )
            inst = Instance(inst.num_vars, renamed)
            prep = preprocess(inst, t)
            if prep.unsat:
                continue
            matrix = propagate(initialize_pairs(prep.instance, prep.template), debug=True)
            if matrix.empty_pair is not None:
                assert brute_solve(inst, t) is None
                continue
            witness = extract_solution(matrix, prep.instance, prep.template)
            assert witness is not None
            assert verify_assignment(inst, t, witness) == (True, None)
            extracted += 1
            canonical = [v for variables, _ in split_components(prep.instance) for v in variables]
            shuffled_order += canonical != list(range(inst.num_vars))
            filled += matrix.neighbours != co_occurrence_adjacency(prep.instance)
        assert extracted >= 60 and shuffled_order >= 30 and filled >= 25

    def test_a_due_constraint_passes_over_failing_candidates(self):
        # x0 = 0 and x1 = 0; the pairs leave {0, 1} for x2, but (0, 0, 0)
        # is not in the ternary relation, so the walk moves on to 1
        inst = Instance(3, (Constraint("r", (0, 1, 2)),))
        matrix = initialize_pairs(inst, TWODEC_FALSE)
        assert matrix.get(0, 2) & matrix.get(1, 2) == OffsetSet.of([0, 1])
        assert extract_solution(matrix, inst, TWODEC_FALSE) == (0, 0, 1)

    def test_only_full_lower_cells_take_zero(self):
        fin, full = binary_relation("fin", (5,)), RelationDef("all", 2, "full")
        t = Template("t", (fin, full, RelationDef("all3", 3, "full")))
        inst = Instance(
            4,
            (Constraint("fin", (0, 1)), Constraint("all", (1, 2)), Constraint("all3", (0, 1, 3))),
        )
        matrix = initialize_pairs(inst, t)
        assert matrix.lower[2] == [1] and matrix.lower[3] == [0, 1]
        assert all(matrix.get(i, j).is_full for i, j in ((1, 2), (0, 3), (1, 3)))
        assert extract_solution(matrix, inst, t) == (0, 5, 0, 0)

    def test_a_stuck_walk_returns_none(self):
        # unpropagated, the chain leaves x2 the empty {1, 3} & {2}; FAN
        # gets stuck at the worklist's fixpoint
        matrix = initialize_pairs(CHAIN_UNSAT, CHAIN_T)
        assert matrix.empty_pair is None
        assert extract_solution(matrix, CHAIN_UNSAT, CHAIN_T) is None
        matrix = propagate(initialize_pairs(FAN, DIST12))
        assert matrix.empty_pair is None and extract_solution(matrix, FAN, DIST12) is None

    def test_masks_walk_as_offset_sets_do(self):
        # seeded matrices, propagated or not, in shuffled numberings and
        # with FULL relations mixed in
        rng = random.Random(47)
        fulls = (RelationDef("f2", 2, "full"), RelationDef("f3", 3, "full"))
        walked = stuck = due = 0
        for i in range(300):
            make = random_median_template if i % 2 else random_any_template
            t = make(rng, f"t{i}")
            t = Template(t.name, t.relations + fulls) if i % 3 == 0 else t
            inst = random_connected_instance(t, rng.randint(2, 7), rng, extra=rng.randint(0, 3))
            perm = rng.sample(range(inst.num_vars), inst.num_vars)
            inst = Instance(inst.num_vars, tuple(
                Constraint(c.relation, tuple(perm[a] for a in c.args)) for c in inst.constraints
            ))
            prep = preprocess(inst, t)
            if prep.unsat:
                continue
            matrix = initialize_pairs(prep.instance, prep.template)
            if i % 4:
                propagate(matrix)
            if matrix.empty_pair is not None:
                continue
            witness = extract_solution(matrix, prep.instance, prep.template)
            assert witness == offset_set_walk(matrix, prep.instance, prep.template)
            walked += 1
            stuck += witness is None
            due += any(len(c.args) > 2 for c in prep.instance.constraints)
        assert walked >= 150 and stuck >= 8 and due >= 40

    def test_empty_matrix_rejected(self):
        matrix = initialize_pairs(
            preprocess(CHAIN_UNSAT, CHAIN_T).instance,
            preprocess(CHAIN_UNSAT, CHAIN_T).template,
        )
        propagate(matrix)
        with pytest.raises(InternalInvariantError):
            extract_solution(matrix, CHAIN_UNSAT, CHAIN_T)


class TestSolve:
    def test_satisfiable_triangle(self):
        inst = graph_instance("dist12", 3, complete_edges(3))
        verdict = solve(inst, DIST12)
        assert verdict.status == "sat"
        assert verdict.witness == (0, -2, -1)

    def test_unsat_by_propagation(self):
        verdict = solve(CHAIN_UNSAT, CHAIN_T, mode="consistency")
        assert verdict.status == "unsat" and verdict.witness is None

    def test_consistency_mode_admits_defeat(self):
        inst = graph_instance("dist12", 4, complete_edges(4))
        verdict = solve(inst, DIST12, mode="consistency")
        assert verdict.status == "unknown"
        assert "extraction" in verdict.reason

    def test_auto_mode_falls_back_to_exhaustive(self):
        inst = graph_instance("dist12", 4, complete_edges(4))
        assert solve(inst, DIST12, mode="auto").status == "unsat"
        assert solve(inst, DIST12, mode="brute").status == "unsat"

    def test_tiny_node_cap_yields_unknown(self):
        inst = graph_instance("dist12", 4, complete_edges(4))
        verdict = solve(inst, DIST12, mode="brute", node_cap=3)
        assert verdict.status == "unknown"
        assert "cap" in verdict.reason

    def test_zero_node_cap_refuses_every_search(self):
        # a cap of 0 is a cap, not "unset"
        inst = graph_instance("dist12", 4, complete_edges(4))
        for mode in ("auto", "brute"):
            verdict = solve(inst, DIST12, mode=mode, node_cap=0)
            assert verdict.status == "unknown" and "cap 0" in verdict.reason

    def test_refused_median_check_verifies_no_median(self):
        # the closure check of offsets up to 10^5 is over its size cap, so
        # the stuck K4 has no verified median and stays undecided
        t = Template("far", (binary_relation("d", (-(10**5), -2, -1, 1, 2, 10**5)),))
        inst = graph_instance("d", 4, complete_edges(4))
        for mode in ("consistency", "auto"):
            start = time.perf_counter()
            verdict = solve(inst, t, mode=mode, debug=True)
            assert time.perf_counter() - start < 1.0
            assert verdict.status == "unknown"
            assert verdict.reason.startswith(
                "witness extraction failed; no modular median verified"
            )

    def test_auto_cap_exceeded_reports_both_reasons(self):
        inst = graph_instance("dist12", 4, complete_edges(4))
        verdict = solve(inst, DIST12, mode="auto", node_cap=3)
        assert verdict.status == "unknown"
        assert "extraction" in verdict.reason and "cap" in verdict.reason

    def test_components_solved_independently(self):
        inst = Instance(
            4, (Constraint("dist13", (0, 1)), Constraint("dist13", (2, 3)))
        )
        verdict = solve(inst, DIST13)
        assert verdict.status == "sat"
        assert verdict.witness == (0, -3, 0, -3)
        assert verdict.stats.components == 4 - 2

    def test_variable_behind_full_pairs_only_takes_zero(self):
        fin, full = binary_relation("fin", (1,)), RelationDef("all", 2, "full")
        t = Template("t", (fin, full))
        inst = Instance(3, (Constraint("fin", (0, 1)), Constraint("all", (1, 2))))
        verdict = solve(inst, t, mode="consistency")
        assert verdict.status == "sat" and verdict.witness == (0, 1, 0)

    def test_debug_bound_counts_only_constrained_hops(self):
        # the pair (0,2) shares only a FULL constraint; it is bounded by the
        # two finite hops through 1, not by its own hop
        fin, full = binary_relation("fin", (5,)), RelationDef("all", 2, "full")
        t = Template("t", (fin, full))
        inst = Instance(
            3,
            (Constraint("fin", (0, 1)), Constraint("fin", (1, 2)), Constraint("all", (0, 2))),
        )
        verdict = solve(inst, t, mode="consistency", debug=True)
        assert verdict.status == "sat" and verdict.witness == (0, 5, 10)

    def test_median_search_runs_once_per_template(self, monkeypatch):
        calls = []

        def counted(t, *args, **kwargs):
            calls.append(t)
            return None

        monkeypatch.setattr(polymorphism, "find_modular_median", counted)
        t = Template("dist12-once", DIST12.relations)
        for n in (4, 5, 6):
            inst = graph_instance("dist12", n, complete_edges(n))
            assert solve(inst, t, mode="consistency").status == "unknown"
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["auto", "consistency"])
    def test_dist13_witnesses_are_pinned(self, mode):
        # least witnesses: 3 down per hop from vertex 0 along a shortest
        # path; the propagation counters are pinned too.  dist13 is one-step,
        # so each is swept: no worklist pop, one replacement per revision
        # that shrank a cell
        cases = [
            (graph_instance("dist13", 24, [(i, i + 1) for i in range(23)]), lambda i: i, (0, 0, 0)),
            (graph_instance("dist13", 24, cycle_edges(24)), lambda i: min(i, 24 - i), (21, 0, 21)),
            (graph_instance("dist13", 25, grid_edges(5, 5)), lambda i: i // 5 + i % 5, (64, 0, 50)),
        ]
        for inst, hops, (replacements, sweeps, full_to_finite) in cases:
            verdict = solve(inst, DIST13, mode=mode, debug=True)
            assert verdict.witness == tuple(-3 * hops(i) for i in range(inst.num_vars))
            assert verdict.stats == SolveStats(replacements, sweeps, full_to_finite, components=1)

    def test_unconstrained_instance(self):
        verdict = solve(Instance(1, ()), DIST13)
        assert verdict.status == "sat" and verdict.witness == (0,)

    def test_mode_validated(self):
        with pytest.raises(InputError):
            solve(Instance(1, ()), DIST13, mode="guess")

    def test_unknown_relation_rejected(self):
        with pytest.raises(InputError):
            solve(Instance(2, (Constraint("zap", (0, 1)),)), DIST13)

    def test_repeated_variable_constraints_handled_end_to_end(self):
        t = Template("t", (RelationDef("r", 3, ((0, 2), (1, 2))),))
        inst = Instance(2, (Constraint("r", (0, 0, 1)),))
        verdict = solve(inst, t)
        assert verdict.status == "sat"
        assert verdict.witness == (0, 2)

    def test_stats_counters_present(self):
        # auto mode decides the triangle over dist12's core, with no pop;
        # consistency mode propagates it
        inst = graph_instance("dist12", 3, complete_edges(3))
        stats = solve(inst, DIST12).stats
        assert stats.core_searches == 1 and stats.sweeps == 0
        assert stats.components == 1
        stats = solve(inst, DIST12, mode="consistency").stats
        assert stats.sweeps > 0 and stats.core_searches == 0
        assert stats.components == 1

    def test_debug_mode_clean_on_fixtures(self):
        for edges, n in ((complete_edges(3), 3), (complete_edges(4), 4)):
            inst = graph_instance("dist12", n, edges)
            solve(inst, DIST12, mode="auto", debug=True)

    def test_modes_agree_on_random_median_instances(self):
        rng = random.Random(9)
        cases = []
        for i in range(30):
            t = random_median_template(rng, f"t{i}")
            cases.append((random_connected_instance(t, rng.randint(2, 5), rng), t))
        # each case beside the next one, as two components of one instance
        cases += [disjoint_union(a, b) for a, b in zip(cases, cases[1:])]
        for inst, t in cases:
            truth = brute_solve(inst, t)
            for mode in MODES:
                verdict = solve(inst, t, mode=mode, debug=True)
                assert verdict.status == ("sat" if truth is not None else "unsat")
                if verdict.status == "sat":
                    ok, _ = verify_assignment(inst, t, verdict.witness)
                    assert ok

    @pytest.mark.parametrize("n", [10, 13])
    def test_auto_searches_only_the_stuck_component(self, n):
        # K4 alone is refuted at once; searching it together with the path
        # would be estimated at 5^3 * 5^(n-1) nodes, and from n = 13 the
        # path alone is over the cap
        path = graph_instance("dist12", n, [(i, i + 1) for i in range(n - 1)])
        k4 = graph_instance("dist12", 4, complete_edges(4))
        inst, t = disjoint_union((k4, DIST12), (path, DIST12))
        verdict = solve(inst, t, mode="auto", debug=True)
        assert verdict.status == "unsat"
        assert solve(inst, t, mode="consistency").status == "unknown"

    @pytest.mark.parametrize("n", [10, 13])
    def test_other_components_keep_their_extracted_values(self, n):
        # {+-2, +-3} has no median and no core within the budget, so its
        # stuck graph takes the window search; searching the path over the
        # window, estimated at 7^(n-1), would pass the cap from n = 13
        path = graph_instance("d23", n, [(i, i + 1) for i in range(n - 1)])
        assert solve(STUCK23, DIST23, mode="consistency").status == "unknown"
        inst, t = disjoint_union((STUCK23, DIST23), (path, DIST23))
        verdict = solve(inst, t, mode="auto", debug=True)
        assert verdict.status == "sat" and verdict.stats.core_searches == 0
        assert verdict.witness[:8] == brute_solve(STUCK23, DIST23)
        assert verdict.witness[8:] == solve(path, DIST23, mode="consistency").witness

    def test_unsat_component_outweighs_a_refused_one(self):
        # under this cap the stuck {+-2, +-3} graph (estimate 7^7) is refused
        # and K4 over dist12 (core estimate 2^3) is searched; the first
        # refusal names the verdict's reason
        k4 = graph_instance("dist12", 4, complete_edges(4))
        inst, t = disjoint_union((STUCK23, DIST23), (k4, DIST12))
        assert solve(inst, t, mode="auto", node_cap=200).status == "unsat"
        verdict = solve(*disjoint_union((STUCK23, DIST23), (STUCK23, DIST23)), node_cap=200)
        assert verdict.status == "unknown"
        assert verdict.reason == (
            "witness extraction failed; no modular median verified for the template; "
            "search space estimate 823543 exceeds the cap 200"
        )
        stuck_first = solve(*disjoint_union((STUCK23, DIST23), (WIDE_PATH, WIDE)), node_cap=200)
        wide_first = solve(*disjoint_union((WIDE_PATH, WIDE), (STUCK23, DIST23)), node_cap=200)
        assert stuck_first.reason.startswith("witness extraction failed")
        assert wide_first.reason.startswith("propagation refused")

    def test_brute_mode_searches_components_one_at_a_time(self):
        edges = graph_instance("dist13", 20, [(2 * i, 2 * i + 1) for i in range(10)])
        verdict = solve(edges, DIST13, mode="brute")
        assert verdict.status == "sat" and verdict.witness == (0, -3) * 10

    def test_component_template_keeps_the_named_relations_in_order(self):
        a, b = binary_relation("a", (1,)), binary_relation("b", (2,))
        t = Template("t", (a, b, FAR.relations[0]))
        inst = Instance(3, (Constraint("far", (0, 1)), Constraint("a", (1, 2))))
        own = component_template(inst, t)
        assert own.name == "t" and [r.name for r in own.relations] == ["a", "far"]

    @pytest.mark.parametrize("mode", ["auto", "brute"])
    def test_unused_relation_leaves_the_search_window_alone(self, mode):
        # with the {0, 50} relation in the window, the fan's estimate was
        # 101^4 = 104060401, over the cap
        t = Template("dist12-far", DIST12.relations + FAR.relations)
        verdict = solve(FAN, t, mode=mode, debug=True)
        assert verdict.status == "sat" and verdict.witness == (0, -2, -1, -1, -2)

    def test_each_component_is_searched_over_its_own_relations(self):
        path = graph_instance("far", 6, [(i, i + 1) for i in range(5)])
        verdict = solve(*disjoint_union((FAN, DIST12), (path, FAR)), mode="auto", debug=True)
        assert verdict.status == "sat"
        assert verdict.witness == (0, -2, -1, -1, -2) + (0,) * 6


class TestFallback:
    def test_a_stuck_component_is_searched_as_brute_mode_searches_it(self, monkeypatch):
        handed = []
        real = brute.brute_solve

        def spy(sub, t, cap, core=None, index=None):
            handed.append((sub, t, cap, core, index))
            return real(sub, t, cap, core, index)

        monkeypatch.setattr(brute, "brute_solve", spy)
        verdict = solve(STUCK23, DIST23, debug=True)
        assert verdict.status == "sat" and verdict.witness == brute_solve(STUCK23, DIST23)
        # STUCK23 is numbered in canonical order, so it is its own component
        assert handed == [(STUCK23, DIST23, brute.DEFAULT_NODE_CAP, None, range(8))]
        # brute mode, and a component whose propagation was refused, make the same call
        handed.clear()
        assert solve(STUCK23, DIST23, mode="brute").witness == verdict.witness
        gap = Template("gap", (binary_relation("g", (0, 2_000_000)),))
        edge = graph_instance("g", 2, [(0, 1)])
        assert solve(edge, gap).witness == (0, 0)
        cap = brute.DEFAULT_NODE_CAP
        assert handed == [(STUCK23, DIST23, cap, None, range(8)), (edge, gap, cap, None, range(2))]
        # a renumbered component is handed over as the split left it, with
        # its index, and is neither validated nor split again: with 6 and 7
        # swapped, the split numbers STUCK23 back, and the search reads it so
        swap = [0, 1, 2, 3, 4, 5, 7, 6]
        swapped = Instance(8, tuple(
            Constraint("d23", (swap[a], swap[b])) for a, b in (c.args for c in STUCK23.constraints)
        ))
        assert split_components(swapped) == [(swap, STUCK23)]
        validated, split = [], []
        monkeypatch.setattr(Instance, "validate_against", lambda inst, t: validated.append(inst))
        monkeypatch.setattr(brute, "split_components", lambda inst: split.append(inst))
        handed.clear()
        witness = solve(swapped, DIST23).witness
        assert validated == split == [] and len(handed) == 1
        (sub, _, _, core, index), = handed
        assert core is None and sub.constraints == list(swapped.constraints) and index == swap
        assert witness == tuple(verdict.witness[v] for v in swap)

    def test_core_searches_are_neither_validated_nor_split(self, monkeypatch):
        validated, split = [], []
        monkeypatch.setattr(Instance, "validate_against", lambda inst, t: validated.append(inst))
        monkeypatch.setattr(brute, "split_components", lambda inst: split.append(inst))
        k4 = graph_instance("dist12", 4, complete_edges(4))
        assert solve(k4, DIST12).stats.core_searches == 1
        assert solve(FAN, DIST12).stats.core_searches == 1
        assert validated == [] and split == []

    def test_the_estimate_ignores_fill_edges(self, monkeypatch):
        # 8 and 9 extend the stuck graph: 8 is tied to 0 by FULL only, and 9
        # to both by {+-2, +-3}, so the fixpoint bounds the pair (0, 8); the
        # estimate still lets 8 range over the whole window of 55 values
        t = Template("t", (*DIST23.relations, RelationDef("all", 2, "full")))
        extra = [Constraint("all", (0, 8))] + [Constraint("d23", e) for e in ((8, 9), (0, 9))]
        inst = Instance(10, STUCK23.constraints + tuple(extra))
        matrix = propagate(initialize_pairs(inst, t))
        assert matrix.cells[(0, 8)].offsets == (-6, -5, -4, -1, 0, 1, 4, 5, 6)
        assert search_space_estimate(inst, t) == 7**8 * 55
        # a refused window search builds no pair links
        linked = []
        real = brute._projection_links
        monkeypatch.setattr(brute, "_projection_links", lambda *a: linked.append(a) or real(*a))
        verdict = solve(inst, t, node_cap=7**9)
        assert verdict.reason.endswith(f"search space estimate {7**8 * 55} exceeds the cap {7**9}")
        assert linked == []
        monkeypatch.undo()
        witness = brute_solve(inst, t, 7**8 * 55)
        assert witness[:8] == brute_solve(STUCK23, DIST23)
        assert solve(inst, t, debug=True, node_cap=7**8 * 55).witness == witness


class TestFiniteCore:
    def test_dist12_has_a_core_and_4_9_none_within_the_budget(self):
        assert solver.route(DIST12).core == (-2, -1, 0)
        # periods 1 and 2 fit the budget at D = 9: 37 + 37^2 candidates
        t = Template("d49", (binary_relation("d49", symmetric(4, 9)),))
        start = time.perf_counter()
        assert solver.Route(t).core is None
        assert time.perf_counter() - start < 1.0

    def test_median_templates_never_reach_the_core_search(self, monkeypatch):
        # dist13 has a core, {-1, 0}, and the ternary boxes make some random
        # median templates not one-step: consistency decides them all
        assert solver.route(DIST13).core == (-1, 0)
        searched, looked = [], []
        real, real_core = brute.brute_solve, solver.Route.core.func

        def spy(sub, t, cap, core=None, index=None):
            searched.append(core)
            return real(sub, t, cap, core, index)

        monkeypatch.setattr(brute, "brute_solve", spy)
        # a property over the cached one sees every read of a route's core
        monkeypatch.setattr(
            solver.Route, "core", property(lambda r: looked.append(r.template) or real_core(r))
        )
        rng = random.Random(5)
        cases = [(graph_instance("dist13", 6, cycle_edges(6)), DIST13)]
        while len(cases) < 40:
            t = random_median_template(rng, f"m{len(cases)}")
            if solver.route(t).modulus is not None:
                cases.append((random_connected_instance(t, rng.randint(2, 7), rng), t))
        assert sum(not solver.route(t).one_step for _, t in cases) >= 10
        for inst, t in cases:
            assert solve(inst, t).status in ("sat", "unsat")
        assert searched == [] and looked == []
        # the spy does see dist12's core search
        assert solve(graph_instance("dist12", 4, complete_edges(4)), DIST12).status == "unsat"
        assert searched == [(-2, -1, 0)]

    def test_no_median_templates_are_decided_over_their_cores(self, monkeypatch):
        # dist12 graphs with n = 4..14, judged by 3-colourability (by the
        # window oracle too while that is quick), and random templates
        # without a median.  Each instance is connected, so one search at
        # most decides it; over a core R every value lies in R, and on the
        # smaller graphs the witness is the least in R^n under the search
        # order, variables in canonical order and values ascending
        searched = []
        real = brute.brute_solve

        def spy(sub, t, cap, core=None, index=None):
            searched.append(core)
            return real(sub, t, cap, core, index)

        monkeypatch.setattr(brute, "brute_solve", spy)
        rng = random.Random(19)
        routes = Counter()
        for i in range(300):
            if i % 5:
                n = rng.randint(4, 14)
                edges = spanning_tree_edges(n, rng) + [
                    tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n // 2, 2 * n))
                ]
                inst, t = graph_instance("dist12", n, edges), DIST12
                expected = oracle_three_colourable(n, edges)
                if n <= 7:
                    assert oracle_decides(inst, t) == expected
            else:
                t = random_any_template(rng, f"a{i}")
                while solver.route(t).modulus is not None:
                    t = random_any_template(rng, f"a{i}")
                n = rng.randint(2, 6)
                inst = random_connected_instance(t, n, rng, extra=rng.randint(0, 3))
                expected = oracle_decides(inst, t)
            searched.clear()
            verdict = solve(inst, t)
            assert verdict.status == ("sat" if expected else "unsat")
            core = searched[0] if searched else None
            routes[t is DIST12, core is not None, verdict.status] += 1
            assert verdict.stats.core_searches == (core is not None)
            if verdict.status != "sat":
                continue
            assert verify_assignment(inst, t, verdict.witness) == (True, None)
            if core is None:
                continue
            assert verdict.witness[0] == 0 and set(verdict.witness) <= set(core)
            if t is DIST12 and n <= 8:
                order = bfs_order(inst)
                for values in itertools.product(core, repeat=n - 1):
                    least = dict(zip(order, (0, *values)))
                    if all(abs(least[a] - least[b]) in (1, 2) for a, b in edges):
                        break
                assert verdict.witness == tuple(least[v] for v in range(n))
        # every dist12 graph goes to the core, with both verdicts; the random
        # templates take both routes
        assert routes[True, False, "sat"] == routes[True, False, "unsat"] == 0
        assert min(routes[True, True, "sat"], routes[True, True, "unsat"]) >= 50, routes
        assert routes[False, True, "sat"] + routes[False, True, "unsat"] >= 3, routes
        assert min(routes[False, False, "sat"], routes[False, False, "unsat"]) >= 10, routes

    def test_a_fourteen_vertex_dist12_graph_is_estimated_at_two_to_the_thirteen(self):
        rng = random.Random(14)
        edges = spanning_tree_edges(14, rng) + [tuple(rng.sample(range(14), 2)) for _ in range(16)]
        inst = graph_instance("dist12", 14, edges)
        ((_, sub),) = split_components(inst)
        with pytest.raises(CapExceededError, match=f"estimate {2**13} exceeds the cap"):
            brute_solve(sub, DIST12, 2**13 - 1, core=(-2, -1, 0))
        assert search_space_estimate(inst, DIST12) == 5**13  # the window's
        verdict = solve(inst, DIST12, node_cap=2**13)
        assert verdict.stats.core_searches == 1
        assert verdict.status == ("sat" if oracle_three_colourable(14, edges) else "unsat")
        # with one node less the core search is refused, and solve propagates
        assert solve(inst, DIST12, node_cap=2**13 - 1).stats.core_searches == 0


class TestRoute:
    @staticmethod
    def dist12(*extra):
        """{+-1, +-2} and the extra offsets, built afresh on every call."""
        return Template("dist12", (binary_relation("dist12", symmetric(1, 2) + extra),))

    def graphs(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(4, 9)
            edges = spanning_tree_edges(n, rng) + [tuple(rng.sample(range(n), 2)) for _ in range(n)]
            yield graph_instance("dist12", n, edges)

    def test_equal_templates_share_one_route_and_one_core_table(self):
        first, second = self.dist12(), self.dist12()
        assert first is not second and first == second
        assert solver.route(first) is solver.route(second)
        core = solver.route(first).core
        assert core == (-2, -1, 0)
        assert brute._core_table(first, core) is brute._core_table(second, core)
        # each solve of a fresh copy reads the cached route and core table
        solve(FAN, self.dist12())
        routes, tables = solver.route.cache_info(), brute._core_table.cache_info()
        for inst in self.graphs():
            assert solve(inst, self.dist12()).stats.core_searches == 1
        assert solver.route.cache_info().hits >= routes.hits + 40
        assert brute._core_table.cache_info().hits >= tables.hits + 40
        assert solver.route.cache_info().currsize == routes.currsize
        assert brute._core_table.cache_info().currsize == tables.currsize

    def test_one_different_offset_gets_its_own_route_and_table(self):
        # the same names, and offset 4 besides: no median, the same core,
        # and a relation of its own in its table
        plain, wider = self.dist12(), self.dist12(4)
        assert solver.route(wider) is not solver.route(plain)
        core = solver.route(wider).core
        assert core == solver.route(plain).core == (-2, -1, 0) and solver.route(wider).modulus is None
        tables = brute._core_table(plain, core), brute._core_table(wider, core)
        assert tables[0] is not tables[1]
        solve(FAN, plain)
        solve(FAN, wider)
        assert [table[0]["dist12"][0] for table in tables] == [
            plain.relation("dist12"), wider.relation("dist12")
        ]

    def test_answers_match_those_from_a_cleared_cache(self):
        cases = [(inst, t) for inst in self.graphs() for t in (self.dist12(), self.dist12(4))]
        cases += [(STUCK23, DIST23), (graph_instance("dist13", 6, cycle_edges(6)), DIST13)]
        warm = [solve(inst, t, debug=True) for inst, t in cases]
        cold = []
        for inst, t in cases:
            solver.route.cache_clear()
            brute._core_table.cache_clear()
            cold.append(solve(inst, t, debug=True))
        assert warm == cold
        assert {v.status for v in warm} == {"sat", "unsat"}

    def test_a_core_search_reads_only_what_it_needs(self, monkeypatch):
        # a dist12 component searched over its core and a dist13 one swept,
        # both renumbered; the routes are known before the spies go in
        inst, t = disjoint_union(
            (graph_instance("dist12", 5, cycle_edges(5)), DIST12),
            (graph_instance("dist13", 6, cycle_edges(6)), DIST13),
        )
        expected = solve(inst, t)
        assert expected.stats.core_searches == 1
        calls = Counter()
        for module, name in (
            (brute, "max_distance_or_zero"),
            (analysis, "max_distance_or_zero"),
            (analysis, "gaifman_distances"),
            (brute, "_plan"),
            (solver, "_component_graph"),
            (solver, "initialize_pairs"),
        ):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: (
                calls.update([name]) or real(*a)
            ))
        assert solve(inst, t) == expected
        # the swept component alone gets its graph, translated
        assert calls == Counter(_component_graph=1, initialize_pairs=1)
        # the first solve over DIST12 itself finds its route, once
        pentagon = graph_instance("dist12", 5, cycle_edges(5))
        solve(pentagon, DIST12)
        calls.clear()
        assert solve(pentagon, DIST12).stats.core_searches == 1
        assert calls == Counter()


FAR = Template("far", (binary_relation("far", (0, 50)),))


WIDE = Template("wide", (binary_relation("w", (-(10**9), 1, 10**9)),))
WIDE_PATH = graph_instance("w", 6, [(i, i + 1) for i in range(5)])


class TestSpanCap:
    @pytest.mark.parametrize("mode", ["consistency", "auto"])
    def test_wide_offsets_answer_unknown_at_once(self, mode):
        start = time.perf_counter()
        verdict = solve(WIDE_PATH, WIDE, mode=mode)
        assert time.perf_counter() - start < 1.0
        assert verdict.status == "unknown"
        assert "propagation refused" in verdict.reason and "cap" in verdict.reason

    def test_a_core_search_packs_only_offsets_within_the_core(self):
        # offsets of +-10^9 lie outside [min R, -min R] and are never packed
        start = time.perf_counter()
        assert brute_solve(WIDE_PATH, WIDE, core=(-1, 0)) is None
        assert time.perf_counter() - start < 1.0

    def test_auto_falls_back_to_exhaustive_past_the_span(self):
        # the exhaustive search keeps plain sets and decides it
        t = Template("gap", (binary_relation("g", (0, 2_000_000)),))
        inst = graph_instance("g", 2, [(0, 1)])
        assert solve(inst, t, mode="consistency").status == "unknown"
        assert solve(inst, t, mode="auto").witness == (0, 0)
        assert solve(inst, t, mode="brute").witness == (0, 0)


class TestLargeComponents:
    # partial path consistency touches only the edges and triangles of the
    # completion, which stays linear in n for paths and cycles
    @pytest.mark.parametrize(
        "edges, n, status",
        [
            ([(i, i + 1) for i in range(999)], 1000, "sat"),
            (cycle_edges(1000), 1000, "sat"),
            (cycle_edges(999), 999, "unsat"),
        ],
        ids=["path1000", "cycle1000", "odd_cycle999"],
    )
    def test_thousand_variables_in_consistency_mode(self, edges, n, status):
        inst = graph_instance("dist13", n, edges)
        start = time.perf_counter()
        verdict = solve(inst, DIST13, mode="consistency")
        assert time.perf_counter() - start < 10.0
        assert verdict.status == status

    def test_many_components_split_in_one_pass(self):
        # building each component by rescanning every constraint made this
        # quadratic in the number of components
        n = 20_000
        inst = graph_instance("dist13", 2 * n, [(2 * i, 2 * i + 1) for i in range(n)])
        start = time.perf_counter()
        verdict = solve(inst, DIST13, mode="consistency", debug=True)
        assert time.perf_counter() - start < 5.0
        assert verdict.status == "sat" and verdict.stats.components == n


@st.composite
def small_cases(draw):
    """A template of binary and ternary relations with offsets in [-3, 3],
    FULL and EMPTY bodies among them, and an instance of at most 5
    variables over it, repeated variables allowed."""
    n = draw(st.integers(1, 5))
    relations = []
    for idx in range(draw(st.integers(1, 3))):
        arity = draw(st.sampled_from((2, 3)))
        offsets = st.tuples(*[st.integers(-3, 3)] * (arity - 1))
        kind = draw(st.sampled_from(("tuples",) * 3 + ("full", "empty")))
        body = kind if kind != "tuples" else tuple(draw(st.lists(offsets, min_size=1, max_size=4)))
        relations.append(RelationDef(f"r{idx}", arity, body))
    atoms = st.sampled_from(relations).flatmap(
        lambda rel: st.tuples(st.just(rel.name), st.tuples(*[st.integers(0, n - 1)] * rel.arity))
    )
    constraints = draw(st.lists(atoms, max_size=10))
    return (
        Instance(n, tuple(Constraint(name, args) for name, args in constraints)),
        Template("drawn", tuple(relations)),
    )


class TestDecisionContract:
    @settings(max_examples=300, deadline=3000)
    @given(small_cases())
    # drawn cases rarely get extraction stuck; the first two do, unsat and
    # sat, and the third has pairwise-consistent values outside its relation
    @example((graph_instance("dist12", 4, complete_edges(4)), DIST12))
    @example((FAN, Template("t", DIST12.relations + (RelationDef("spare", 3, ((3, -3),)),))))
    @example((Instance(3, (Constraint("r", (0, 1, 2)),)), TWODEC_FALSE))
    def test_every_mode_agrees_with_the_oracle(self, case):
        # auto and brute always decide instances this small; consistency may
        # leave them undecided, but never decides them wrongly
        inst, t = case
        expected = "sat" if oracle_decides(inst, t) else "unsat"
        for mode in MODES:
            verdict = solve(inst, t, mode=mode, debug=True)
            if mode != "consistency" or verdict.status != "unknown":
                assert verdict.status == expected, mode
            if verdict.status == "sat":
                assert verify_assignment(inst, t, verdict.witness) == (True, None)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_consistency_witness_is_the_least_on_median_templates(self, seed):
        # on a template with a modular median, consistency mode decides, and
        # its witness is the exhaustive search's least one
        rng = random.Random(seed)
        t = random_median_template(rng, "m")
        assume(polymorphism.find_modular_median(t) is not None)
        inst = random_connected_instance(t, rng.randint(1, 7), rng, extra=rng.randint(0, 3))
        if rng.random() < 0.3:
            inst, t = disjoint_union((inst, t), (random_connected_instance(t, 3, rng), t))
        verdict = solve(inst, t, mode="consistency", debug=True)
        assert verdict.status != "unknown"
        assert verdict.witness == brute_solve(inst, t)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_auto_agrees_with_the_search_called_directly(self, seed):
        # auto's fallback searches the propagated cells of a stuck component,
        # the direct call the constraints' projections: one verdict, one
        # least witness.  A component that auto searches over a finite core
        # R instead gets the least witness in R^n: the same verdict, every
        # value in R.  Dense graphs in any numbering over dist12 or over
        # a distance template that may lack one offset, so is not always
        # closed under negation; or templates with no closure guarantee.
        # Every instance is connected, so it is one component rooted at 0
        rng = random.Random(seed)
        kind = rng.randrange(3)
        if kind < 2:
            distances = (1, 2) if kind == 0 else rng.sample(range(1, 5), rng.randint(2, 3))
            offsets = symmetric(*distances)
            t = Template("d", (binary_relation("d", offsets[: len(offsets) - rng.randrange(2)]),))
            n = rng.randint(2, 10 if kind == 0 else 8)  # 9^7 nodes at most, under the cap
            label = rng.sample(range(n), n)
            edges = spanning_tree_edges(n, rng) + [
                tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n // 2, 2 * n))
            ]
            inst = graph_instance("d", n, [(label[a], label[b]) for a, b in edges])
        else:
            t = random_any_template(rng, "a")
            inst = random_connected_instance(t, rng.randint(1, 7), rng, extra=rng.randint(0, 5))
        witness = brute_solve(inst, t)
        verdict = solve(inst, t, mode="auto", debug=True)
        assert verdict.status == ("unsat" if witness is None else "sat")
        if not verdict.stats.core_searches:
            assert verdict.witness == witness
        elif witness is not None:
            prep = preprocess(inst, t)
            core = solver.route(component_template(prep.instance, prep.template)).core
            assert verdict.witness[0] == 0 and set(verdict.witness) <= set(core)
            assert verify_assignment(inst, t, verdict.witness) == (True, None)


def solve_on_copies(inst, t, mode):
    """`solve`'s status and witness in auto or consistency mode, worked out
    on the copies that `split_components` makes: each renumbered component
    takes its route, as a direct call on its own `Instance`, and its
    witness is lifted back through its variables."""
    prep = preprocess(inst, t)
    if prep.unsat:
        return "unsat", None
    values, status = [0] * inst.num_vars, "sat"
    for variables, sub in split_components(prep.instance):
        own = component_template(sub, prep.template)
        facts = solver.route(own)
        if mode == "auto" and not facts.one_step and facts.modulus is None and facts.core:
            witness = brute_solve(sub, own, core=facts.core)
        else:
            matrix = initialize_pairs(sub, prep.template)
            (sweep if facts.one_step else propagate)(matrix)
            if matrix.empty_pair is not None:
                return "unsat", None
            witness = extract_solution(matrix, sub, prep.template)
            if witness is None and mode == "consistency":
                status = "unknown"
                continue
            try:
                witness = witness or brute_solve(sub, own)
            except CapExceededError:
                status = "unknown"
                continue
        if witness is None:
            return "unsat", None
        for g, value in zip(variables, witness):
            values[g] = value
    return status, tuple(values) if status == "sat" else None


class TestIndexReads:
    def cases(self):
        rng = random.Random(27)
        offsets = {k: list(itertools.product(range(-2, 3), repeat=k - 1)) for k in (2, 3)}
        pool = [
            Template(f"p{i}", tuple(
                RelationDef(f"r{k}", k, rng.sample(offsets[k], k + 2)) for k in (2, 3)
            ))
            for i in range(6)
        ]
        for i in range(240):
            if i % 3 == 0:
                # a distance graph in any numbering, in one or two components
                t = DIST12 if i % 2 else DIST13
                n = rng.randint(3, 12)
                edges = spanning_tree_edges(n, rng) + [
                    tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n // 2, 2 * n))
                ]
                label = rng.sample(range(n), n)
                edges = [(label[a], label[b]) for a, b in edges]
                inst = graph_instance(t.relations[0].name, n, edges)
                if i % 4 == 0:
                    inst, t = disjoint_union((inst, t), (inst, t))
            else:
                # binary and ternary constraints that hold of a planted
                # assignment, repeated variables among their arguments, so
                # that most instances are sat and split into components
                t, n = rng.choice(pool), rng.randint(4, 10)
                planted = [rng.randint(-1, 1) for _ in range(n)]
                constraints = []
                for _ in range(2 * n):
                    args = tuple(rng.choices(range(n), k=rng.choice((2, 3))))
                    rel = t.relation(f"r{len(args)}")
                    if tuple(planted[v] - planted[args[0]] for v in args[1:]) in rel.body:
                        constraints.append(Constraint(rel.name, args))
                inst = Instance(n, tuple(constraints))
            yield inst, t

    def test_solve_reads_what_the_copies_read(self):
        # the solver reads each component in place, through the split's
        # index; the same routes on the copies give the same answers, so a
        # swapped or unmapped argument shows
        seen = Counter()
        for inst, t in self.cases():
            renumbered = any(sub is not inst for _, sub in split_components(inst))
            ternary = any(len(c.args) == 3 for c in inst.constraints)
            repeated = any(len(set(c.args)) < len(c.args) for c in inst.constraints)
            for mode in ("auto", "consistency"):
                verdict = solve(inst, t, mode=mode)
                assert (verdict.status, verdict.witness) == solve_on_copies(inst, t, mode)
                seen[mode, verdict.status, verdict.stats.core_searches > 0] += 1
                if verdict.status == "sat":
                    seen["renumbered"] += renumbered
                    seen["ternary"] += ternary
                    seen["repeated"] += repeated
                    seen["components"] += verdict.stats.components > 1
        assert min(seen[k] for k in ("renumbered", "ternary", "repeated", "components")) >= 30, seen
        assert min(seen["auto", "sat", True], seen["auto", "unsat", True]) >= 10, seen
        assert min(seen["consistency", status, False] for status in ("sat", "unknown")) >= 10, seen
