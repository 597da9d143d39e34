from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from rgphom.errors import (
    BudgetExceededError,
    NotAcyclicError,
    NotBalancedError,
    PreconditionError,
    SearchBudget,
)
from rgphom import unary
from rgphom.nhom import n_hom, verify_n_hom
from rgphom.regexes import Sym
from rgphom.rgp import LabelKind, directed_path_order, label_class, make_rgp
from rgphom.testkit import random_unary_pattern
from rgphom.unary import (
    SchedulingInstance,
    TemplateKind,
    TwoLabeledDigraph,
    audit_undirected_ncore,
    classify_undirected_template,
    collapse_levels,
    d_of_q,
    hom_two_labeled,
    is_majority_polymorphism,
    median_polymorphism,
    median_table,
    path_consistency_solve,
    prune_plus_arcs,
    reduce_to_hom,
    solve_path_template,
    solve_scheduling,
    solve_undirected,
    to_scheduling,
    _PcNetwork,
    _arc_constraints,
    _path_witnesses,
    _two_coloring,
)
from rgphom.walks import relation_for_label

from fixtures import (
    AP,
    a_path,
    alternating_path,
    mixed_path,
    mycielski_fixture,
    planted_mixed_path,
    poly_core_templates,
    three_component_pattern,
    undirected_template,
)
from helpers import shuffle_names, union_find_components


# ---------------------------------------------------------------------------
# D(Q) and the two-labeled reduction


def test_d_of_q_on_alternating_path():
    d = d_of_q(alternating_path())
    assert d.a_arcs == frozenset({("d", "c"), ("b", "a")})
    assert len(d.t_arcs) == 10
    # reachability pairs of a 5-chain: every strictly later vertex
    order = ["e", "d", "c", "b", "a"]
    expected = {(order[i], order[j])
                for i in range(5) for j in range(i + 1, 5)}
    assert d.t_arcs == frozenset(expected)


def _closure_pairs(q):
    # independent transitive closure by repeated squaring of a bool matrix
    idx = {v: i for i, v in enumerate(q.vertices)}
    n = len(q.vertices)
    mat = [[False] * n for _ in range(n)]
    for arc in q.arcs:
        mat[idx[arc.src]][idx[arc.dst]] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not mat[i][j]:
                    if any(mat[i][k] and mat[k][j] for k in range(n)):
                        mat[i][j] = True
                        changed = True
    return {(q.vertices[i], q.vertices[j])
            for i in range(n) for j in range(n) if mat[i][j]}


def test_d_of_q_matches_matrix_closure():
    for seed in range(30):
        rng = random.Random(seed)
        q = random_unary_pattern(rng, rng.randint(1, 5), rng.randint(0, 7))
        assert d_of_q(q).t_arcs == frozenset(_closure_pairs(q))


def test_two_labeled_json_roundtrip_and_dot():
    # The document `rgphom dq` prints: vertices in pattern order, then
    # the a-arcs and the t-arcs, each sorted.
    d = d_of_q(alternating_path())
    a_arcs = [("b", "a"), ("d", "c")]
    t_arcs = [("b", "a"), ("c", "a"), ("c", "b"), ("d", "a"), ("d", "b"),
              ("d", "c"), ("e", "a"), ("e", "b"), ("e", "c"), ("e", "d")]
    assert d.to_json() == {
        "vertices": ["e", "d", "c", "b", "a"],
        "arcs": [{"from": u, "to": v, "label": label}
                 for label, arcs in (("a", a_arcs), ("t", t_arcs))
                 for u, v in arcs],
    }
    dot = d.to_dot()
    assert "dashed" in dot and "digraph" in dot


def test_two_labeled_dot_quotes_vertex_ids():
    # A quote or a backslash in a vertex id is escaped, as export_dot
    # escapes it, so the document stays DOT.
    q = make_rgp("a", ['x"y', "p\\q"], [('x"y', "p\\q", "a")])
    assert d_of_q(q).to_dot().splitlines() == [
        "digraph {",
        '  "x\\"y";',
        '  "p\\\\q";',
        '  "x\\"y" -> "p\\\\q" [label="a"];',
        '  "x\\"y" -> "p\\\\q" [label="t", style=dashed];',
        "}",
    ]


def test_two_labeled_rejects_unknown_vertex():
    with pytest.raises(Exception):
        TwoLabeledDigraph(("u",), frozenset({("u", "v")}), frozenset())


def test_reduce_to_hom_shapes():
    p = make_rgp("a", ["x", "y", "z"],
                 [("x", "y", "a"), ("y", "z", AP)])
    q = alternating_path()
    g, h = reduce_to_hom(p, q)
    assert g.a_arcs == frozenset({("x", "y")})
    assert g.t_arcs == frozenset({("y", "z")})
    assert h == d_of_q(q)


def test_reduce_to_hom_rejects_symbol_mismatch():
    p = make_rgp("b", ["x", "y"], [("x", "y", "b")])
    q = make_rgp("a", ["u", "v"], [("u", "v", "a")])
    with pytest.raises(PreconditionError):
        reduce_to_hom(p, q)


def test_reduce_to_hom_rejects_general_labels():
    p = make_rgp("ab", ["x", "y"], [("x", "y", "a|b")])
    q = make_rgp("a", ["u", "v"], [("u", "v", "a")])
    with pytest.raises(PreconditionError):
        reduce_to_hom(p, q)


def test_hom_two_labeled_matches_n_hom():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        p = random_unary_pattern(rng, rng.randint(1, 4), rng.randint(0, 5))
        q = random_unary_pattern(rng, rng.randint(1, 4), rng.randint(0, 5))
        g, h = reduce_to_hom(p, q)
        reduced = hom_two_labeled(g, h)
        direct = n_hom(p, q)
        assert (reduced is None) == (direct is None), seed
        if direct is not None:
            assert verify_n_hom(p, q, direct)


# ---------------------------------------------------------------------------
# Audit and classification


def test_audit_mycielski_clean():
    assert audit_undirected_ncore(mycielski_fixture()) == []


def test_audit_flags_all_plus_component():
    q = undirected_template([], plus_edges=[("u", "v"), ("v", "w")])
    assert "a" in [v.item for v in audit_undirected_ncore(q)]


def test_audit_flags_loop_with_company():
    q = undirected_template([("u", "v")], loops=["u"])
    assert "b" in [v.item for v in audit_undirected_ncore(q)]


def test_audit_flags_non_bridge_plus_edge():
    q = undirected_template([("u", "v"), ("v", "w")], plus_edges=[("u", "w")])
    assert "c" in [v.item for v in audit_undirected_ncore(q)]


def test_audit_flags_plus_edge_beside_a_parallel_a_edge():
    # Dropping the a+ edge u--v leaves the 'a' edge u--v, so it is no bridge.
    q = undirected_template([("u", "v"), ("v", "w")], plus_edges=[("u", "v")])
    violations = audit_undirected_ncore(q)
    assert [v.witness for v in violations if v.item == "c"] == [("u", "v")]


def test_audit_passes_plus_bridges():
    # Each a+ edge is the only link between its two sides.
    for q in (undirected_template([("u", "v"), ("w", "x")],
                                  plus_edges=[("v", "w")]),
              undirected_template([("u", "v"), ("v", "w")],
                                  plus_edges=[("w", "x")]),
              mycielski_fixture()):
        assert "c" not in [v.item for v in audit_undirected_ncore(q)]


def test_audit_flags_component_folding():
    q = undirected_template([("u", "v"), ("w", "x")], plus_edges=[("v", "w")])
    items = [v.item for v in audit_undirected_ncore(q)]
    assert items.count("d") == 2


def test_audit_flags_non_bijective_endomorphism():
    q = undirected_template([("a1", "b1"), ("b1", "c1")])
    assert [v.item for v in audit_undirected_ncore(q)] == ["e"]


def test_audit_requires_undirected_connected():
    with pytest.raises(PreconditionError):
        audit_undirected_ncore(alternating_path())


def test_classify_five_polynomial_kinds():
    cases = [
        (undirected_template([], loops=[], plus_loops=[]),
         TemplateKind.POLY_SINGLE_VERTEX_NO_LOOP),
        (undirected_template([], loops=["v"]),
         TemplateKind.POLY_LOOP_A),
        (undirected_template([], plus_loops=["v"]),
         TemplateKind.POLY_LOOP_A_PLUS),
        (undirected_template([("u", "v")]),
         TemplateKind.POLY_SINGLE_EDGE_A),
        (undirected_template([], plus_edges=[("u", "v")]),
         TemplateKind.POLY_SINGLE_EDGE_A_PLUS),
    ]
    # a bare single vertex needs explicit construction
    cases[0] = (make_rgp("a", ["v"], []), TemplateKind.POLY_SINGLE_VERTEX_NO_LOOP)
    for q, expected in cases:
        got = classify_undirected_template(q)
        assert got.kind is expected
        assert got.odd_cycle is None


def test_classify_mycielski_np_complete_with_verifiable_witness():
    q = mycielski_fixture()
    got = classify_undirected_template(q)
    assert got.kind is TemplateKind.NP_COMPLETE
    cycle = got.odd_cycle
    assert cycle is not None and len(cycle) % 2 == 1
    a_edges = {(a.src, a.dst) for a in q.arcs if a.label == Sym("a")}
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        assert (u, v) in a_edges


def test_classify_rejects_non_core():
    p3 = undirected_template([("a1", "b1"), ("b1", "c1")])
    with pytest.raises(PreconditionError, match="not a core"):
        classify_undirected_template(p3)
    # Above the core recheck limit, a bipartite multi-edge template is
    # still refuted by its shape: it retracts onto one of its edges.
    names = [f"v{i}" for i in range(9)]
    path = undirected_template(list(zip(names, names[1:])))
    assert len(path.vertices) > unary._RECHECK_LIMIT
    with pytest.raises(PreconditionError, match="bipartite"):
        classify_undirected_template(path)


def test_classify_refutes_a_loop_alongside_other_vertices_at_every_size():
    # Nine vertices, above the core recheck limit: the template retracts
    # onto its loop, so it is no core, though no core check runs.
    names = [f"v{i}" for i in range(9)]
    path = list(zip(names, names[1:]))
    q = undirected_template(path, loops=["v0"])
    assert len(q.vertices) > unary._RECHECK_LIMIT
    with pytest.raises(PreconditionError):
        classify_undirected_template(q)
    # An a+ loop beside an 'a' edge is as redundant as an 'a' loop: the
    # walk there and back along the edge replaces it.  On an odd a-cycle
    # only the loop refutation can tell, since the class is NP-complete.
    for edges in (path, path + [("v8", "v0")]):
        q = undirected_template(edges, plus_loops=["v0"])
        assert len(q.vertices) > unary._RECHECK_LIMIT
        with pytest.raises(PreconditionError, match="loop alongside"):
            classify_undirected_template(q)
    small = undirected_template([("u", "v")], plus_loops=["u"])
    with pytest.raises(PreconditionError):
        classify_undirected_template(small)


def test_classify_requires_undirected_connected():
    with pytest.raises(PreconditionError):
        classify_undirected_template(alternating_path())
    two_parts = make_rgp("a", ["u", "v", "w", "x"],
                         [("u", "v", "a"), ("v", "u", "a"),
                          ("w", "x", "a"), ("x", "w", "a")])
    with pytest.raises(PreconditionError):
        classify_undirected_template(two_parts)


def test_two_coloring_finds_odd_closed_walks():
    loop = undirected_template([], loops=["v"])
    assert _two_coloring(loop) == (None, ("v",))
    tri = undirected_template([("a1", "b1"), ("b1", "c1"), ("c1", "a1")])
    cyc = _two_coloring(tri)[1]
    assert cyc is not None and len(cyc) == 3
    assert classify_undirected_template(tri).odd_cycle == cyc
    square = undirected_template(
        [("a1", "b1"), ("b1", "c1"), ("c1", "d1"), ("d1", "a1")])
    side, odd = _two_coloring(square)
    assert odd is None and side == {"a1": 0, "b1": 1, "c1": 0, "d1": 1}


# ---------------------------------------------------------------------------
# The undirected solver on the polynomial classes


def test_easy_solver_agrees_with_general():
    for seed in range(30):
        rng = random.Random(2000 + seed)
        p = random_unary_pattern(rng, rng.randint(1, 4), rng.randint(0, 5),
                                 undirected=True)
        for q in poly_core_templates():
            cert = solve_undirected(p, q)
            general = n_hom(p, q)
            assert (cert is None) == (general is None), (seed, q)
            if cert is not None:
                assert verify_n_hom(p, q, cert)


def test_easy_solver_odd_even_cycle_against_edge():
    k2 = undirected_template([("u", "v")])
    even = undirected_template(
        [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c0")])
    odd = undirected_template([("t0", "t1"), ("t1", "t2"), ("t2", "t0")])
    cert = solve_undirected(even, k2)
    assert cert.mapping == {"c0": "u", "c1": "v", "c2": "u", "c3": "v"}
    assert verify_n_hom(even, k2, cert)
    assert solve_undirected(odd, k2) is None


def test_an_empty_template_is_refused():
    q = make_rgp("a", [], [])
    with pytest.raises(PreconditionError):
        classify_undirected_template(q)
    p = make_rgp("a", ["x"], [])
    with pytest.raises(PreconditionError):
        solve_undirected(p, q)


def test_easy_solver_requires_undirected_pattern():
    k2 = undirected_template([("u", "v")])
    with pytest.raises(PreconditionError, match="pattern must be undirected"):
        solve_undirected(alternating_path(), k2)


# ---------------------------------------------------------------------------
# Collapse, prune, scheduling


def test_a_components_match_union_find():
    # Members in p.vertices order, components ordered by their first
    # member, on names that are neither sorted nor declared in order.
    rng = random.Random(13)
    sizes = set()
    for seed in range(300):
        n = rng.randint(1, 9)
        p = shuffle_names(random_unary_pattern(
            seed, n, rng.randint(0, 2 * n), undirected=rng.random() < 0.5),
            rng)
        a_edges = [(a.src, a.dst) for a in p.arcs if isinstance(a.label, Sym)]
        expected = union_find_components(p.vertices, a_edges)
        assert unary._vertex_a_components(p) == expected, p
        sizes.add(len(expected))
    assert {1, 2, 3} <= sizes


def test_component_paths_walk_a_4000_vertex_path_and_refuse_a_revisit():
    n = 4000
    names = [f"p{i}" for i in range(n)]
    declared = names[:]
    random.Random(4).shuffle(declared)
    p = make_rgp("a", declared, [(names[i], names[i + 1], "a")
                                 for i in range(n - 1)])
    assert unary._component_paths(p) == [names]
    # s -> x -> y -> x: one source, then the chain comes back to x.
    loop = make_rgp("a", ["s", "x", "y"],
                    [("s", "x", "a"), ("x", "y", "a"), ("y", "x", "a")])
    with pytest.raises(PreconditionError):
        unary._component_paths(loop)


def test_collapse_three_component_pattern():
    p = three_component_pattern()
    collapsed = collapse_levels(p)
    got_plus = sorted((a.src, a.dst) for a in collapsed.rgp.arcs
                      if not _is_plain_a(a))
    assert got_plus == sorted([("y3", "x2"), ("y2", "x0"), ("x3", "y3"),
                               ("y3", "z1"), ("y1", "z0")])
    # merged levels collapse the three y-branches onto one chain
    assert collapsed.vertex_map["y6"] == "y3"
    assert collapsed.vertex_map["y7"] == "y3"
    assert collapsed.vertex_map["y5"] == "y2"
    assert collapsed.vertex_map["y4"] == "y1"
    assert collapsed.vertex_map["x2"] == "x2"


def test_collapse_rejects_directed_cycle():
    p = make_rgp("a", ["u", "v"], [("u", "v", "a"), ("v", "u", "a")])
    with pytest.raises(NotAcyclicError):
        collapse_levels(p)


def test_collapse_rejects_unbalanced_a_subgraph():
    # two a-walks of different length between the same endpoints
    p = make_rgp("a", ["u", "m", "w"],
                 [("u", "m", "a"), ("m", "w", "a"), ("u", "w", "a")])
    with pytest.raises(NotBalancedError):
        collapse_levels(p)


def test_collapse_rejects_backward_plus_arc_inside_component():
    p = make_rgp("a", ["u", "v"], [("u", "v", "a"), ("v", "u", AP)])
    with pytest.raises(NotAcyclicError):
        collapse_levels(p)


def test_prune_keeps_tightest_arc_per_component_pair():
    p2 = prune_plus_arcs(collapse_levels(three_component_pattern()))
    plus = sorted((a.src, a.dst) for a in p2.arcs
                  if not _is_plain_a(a))
    assert plus == sorted([("y3", "x2"), ("x3", "y3"), ("y1", "z0")])


def _is_plain_a(arc):
    return arc.label == Sym("a")


def test_prune_drops_forward_intra_component_arc():
    p = make_rgp("a", ["u", "v", "w"],
                 [("u", "v", "a"), ("v", "w", "a"), ("u", "w", AP)])
    pruned = prune_plus_arcs(p)
    assert pruned is not None
    assert all(_is_plain_a(a) for a in pruned.arcs)


def test_prune_reports_conflicting_intra_component_arc():
    p = make_rgp("a", ["u", "v"], [("u", "v", "a"), ("v", "u", AP)])
    assert prune_plus_arcs(p) is None


def test_to_scheduling_three_component_pattern():
    p2 = prune_plus_arcs(collapse_levels(three_component_pattern()))
    inst = to_scheduling(p2, 6)
    assert inst.jobs == ("x3", "y3", "z1")
    assert inst.durations == {"x3": 3, "y3": 3, "z1": 1}
    assert inst.constraints == (("x3", "y3", -1), ("y3", "x3", 0),
                                ("y3", "z1", -2))
    assert inst.horizon == 5


def test_to_scheduling_rejects_unpruned_intra_arc():
    p = make_rgp("a", ["u", "v", "w"],
                 [("u", "v", "a"), ("v", "w", "a"), ("u", "w", AP)])
    with pytest.raises(PreconditionError):
        to_scheduling(p, 4)


def test_a_collapsed_pattern_schedules_as_its_pruned_one():
    # solve_path_template schedules collapse_levels' pattern as it is:
    # no a+ arc is left inside a component, and to_scheduling keeps the
    # tightest deadline between two components, the one of the arc
    # prune_plus_arcs keeps.
    collapsible = dropped = 0
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        p = random_unary_pattern(seed, n, rng.randint(0, 2 * n))
        try:
            c = collapse_levels(p)
        except (NotAcyclicError, NotBalancedError):
            continue
        pruned = prune_plus_arcs(c)
        assert pruned is not None, seed
        assert to_scheduling(c.rgp, n) == to_scheduling(pruned, n), seed
        collapsible += 1
        dropped += len(pruned.arcs) < len(c.rgp.arcs)
    assert collapsible > 800 and dropped > 10


def test_scheduling_worked_example_latest_starts():
    inst = SchedulingInstance(jobs=("C1", "C2"),
                              durations={"C1": 2, "C2": 1},
                              constraints=(("C1", "C2", -2),),
                              horizon=3)
    result = solve_scheduling(inst)
    assert result.feasible
    assert result.start_times == {"C1": 0, "C2": 2}


def test_scheduling_ticks_once_per_relaxation_pass():
    inst = SchedulingInstance(jobs=("C1", "C2"),
                              durations={"C1": 2, "C2": 1},
                              constraints=(("C1", "C2", -2),),
                              horizon=3)
    budget = SearchBudget()
    assert solve_scheduling(inst, budget).feasible
    # at most |jobs| passes of relaxation, then the negative-cycle check
    assert 2 <= budget.nodes <= len(inst.jobs) + 1
    with pytest.raises(BudgetExceededError):
        solve_scheduling(inst, SearchBudget(max_nodes=1))


def test_scheduling_infeasible_has_negative_cycle():
    p2 = prune_plus_arcs(collapse_levels(three_component_pattern()))
    result = solve_scheduling(to_scheduling(p2, 6))
    assert not result.feasible
    cycle = result.negative_cycle
    assert cycle and sum(r for _, _, r in cycle) < 0
    # each edge (from, to, w) stems from the constraint t(to) <= t(from) + w
    inst = to_scheduling(p2, 6)
    for src, dst, r in cycle:
        assert (dst, src, r) in inst.constraints
    # edges chain into a closed walk
    for (_, mid, _), (nxt, _, _) in zip(cycle, cycle[1:] + cycle[:1]):
        assert mid == nxt


def test_scheduling_feasible_results_satisfy_everything():
    rng = random.Random(7)
    for _ in range(40):
        jobs = tuple(f"J{i}" for i in range(rng.randint(1, 4)))
        durations = {j: rng.randint(1, 3) for j in jobs}
        horizon = rng.randint(2, 8)
        constraints = []
        for _ in range(rng.randint(0, 4)):
            a, b = rng.choice(jobs), rng.choice(jobs)
            if a != b:
                constraints.append((a, b, rng.randint(-3, 3)))
        inst = SchedulingInstance(jobs=jobs, durations=durations,
                                  constraints=tuple(sorted(set(constraints))),
                                  horizon=horizon)
        if any(durations[j] > horizon for j in jobs):
            continue
        result = solve_scheduling(inst)
        if not result.feasible:
            cyc = result.negative_cycle
            assert cyc and sum(r for _, _, r in cyc) < 0
            continue
        t = result.start_times
        for j in jobs:
            assert 0 <= t[j] <= horizon - durations[j]
        for c1, c2, r in inst.constraints:
            assert t[c1] <= t[c2] + r


# ---------------------------------------------------------------------------
# The path-template pipeline


def test_path_template_solver_matches_general_all_a():
    for seed in range(40):
        rng = random.Random(3000 + seed)
        p = random_unary_pattern(rng, rng.randint(1, 6), rng.randint(0, 7))
        q = a_path(rng.randint(1, 6))
        fast = solve_path_template(p, q)
        general = n_hom(p, q)
        assert (fast is None) == (general is None), seed
        if fast is not None:
            assert verify_n_hom(p, q, fast)


def test_path_template_solver_matches_general_mixed():
    shapes = ["+", ".+", "+.", "..+", "+.+", ".+.+", "+++"]
    for seed in range(40):
        rng = random.Random(4000 + seed)
        p = random_unary_pattern(rng, rng.randint(1, 5), rng.randint(0, 6))
        q = mixed_path(rng.choice(shapes))
        fast = solve_path_template(p, q)
        general = n_hom(p, q)
        assert (fast is None) == (general is None), seed
        if fast is not None:
            assert verify_n_hom(p, q, fast)


def test_path_template_reasons():
    cyc = make_rgp("a", ["u", "v"], [("u", "v", "a"), ("v", "u", "a")])
    assert solve_path_template(cyc, a_path(3)) is None
    unbalanced = make_rgp("a", ["u", "m", "w"],
                          [("u", "m", "a"), ("m", "w", "a"), ("u", "w", "a")])
    assert solve_path_template(unbalanced, a_path(4)) is None
    p = three_component_pattern()
    assert solve_path_template(p, a_path(7)) is None
    # the NO comes from the scheduling stage, not from an earlier one
    pruned = prune_plus_arcs(collapse_levels(p))
    assert not solve_scheduling(to_scheduling(pruned, 7)).feasible
    assert n_hom(p, a_path(7)) is None


def test_path_template_empty_target():
    p = make_rgp("a", ["x"], [])
    empty = make_rgp("a", [], [])
    assert solve_path_template(p, empty) is None
    assert n_hom(p, empty) is None


def test_two_labeled_solvers_on_empty_digraphs():
    # An empty pattern maps by the empty map; nothing maps into an empty
    # template.
    empty = TwoLabeledDigraph((), frozenset(), frozenset())
    one = TwoLabeledDigraph(("x",), frozenset(), frozenset({("x", "x")}))
    for solve in (hom_two_labeled, path_consistency_solve):
        assert solve(empty, one) == {}
        assert solve(empty, empty) == {}
        assert solve(one, empty) is None
        assert solve(one, one) == {"x": "x"}


def test_path_template_rejects_bad_targets():
    p = make_rgp("a", ["x", "y"], [("x", "y", "a")])
    fork = make_rgp("a", ["r", "s", "t"], [("r", "s", "a"), ("r", "t", "a")])
    with pytest.raises(PreconditionError):
        solve_path_template(p, fork)
    with pytest.raises(PreconditionError):
        solve_path_template(make_rgp("ab", ["x", "y"], [("x", "y", "a|b")]),
                            a_path(3))


def _renamed_path(q, rng):
    # the same path under shuffled names, with vertices and arcs listed
    # in shuffled order, so that neither sorted-name order nor arc order
    # follows the path
    names = dict(zip(q.vertices, rng.sample(q.vertices, len(q.vertices))))
    arcs = [(names[arc.src], names[arc.dst], arc.label) for arc in q.arcs]
    rng.shuffle(arcs)
    return make_rgp(q.alphabet, rng.sample(list(names.values()), len(names)),
                    arcs)


def test_path_witnesses_match_the_walk_relation():
    routes = Counter()
    for seed in range(30):
        rng = random.Random(12000 + seed)
        p, q = planted_mixed_path(rng, rng.randint(3, 12))
        if seed % 2:
            # every 'a' arc of p sits on an 'a' arc, so p maps into the
            # all-'a' path too, through the scheduling sub-route
            q = a_path(len(q.vertices))
        q = _renamed_path(q, rng)
        routes[label_class(q).kind] += 1
        cert = solve_path_template(p, q)
        assert cert is not None, seed
        f = cert.mapping
        for i, arc in enumerate(p.arcs):
            relation = relation_for_label(q, arc.label)
            assert cert.witnesses[i] == relation.witness(
                f[arc.src], f[arc.dst]), seed
    assert routes[LabelKind.UNARY_A_APLUS] >= 10
    assert routes[LabelKind.ALL_SINGLE_A] >= 10


def test_path_witnesses_reject_maps_without_a_witness():
    q = mixed_path("..+")
    order = directed_path_order(q)
    a_arc = make_rgp("a", ["x", "y"], [("x", "y", "a")])
    plus_arc = make_rgp("a", ["x", "y"], [("x", "y", AP)])
    assert _path_witnesses(a_arc, q, order, {"x": "q1", "y": "q2"},
                           SearchBudget()).witnesses == {0: (1,)}
    assert _path_witnesses(plus_arc, q, order, {"x": "q0", "y": "q3"},
                           SearchBudget()).witnesses == {0: (0, 1, 2)}
    corrupted = [
        (a_arc, {"x": "q2", "y": "q3"}),     # 'a' over an a+ arc
        (a_arc, {"x": "q0", "y": "q2"}),     # 'a' over two arcs
        (plus_arc, {"x": "q3", "y": "q1"}),  # backwards
        (plus_arc, {"x": "q1", "y": "q1"}),  # no nonempty walk
    ]
    for p, mapping in corrupted:
        with pytest.raises(KeyError):
            _path_witnesses(p, q, order, mapping, SearchBudget())


def test_path_template_solver_certificate_spans_components():
    p = make_rgp("a", ["u1", "u2", "u3", "v1", "v2"],
                 [("u1", "u2", "a"), ("u2", "u3", "a"), ("v1", "v2", "a"),
                  ("u1", "v1", AP)])
    q = a_path(4)
    cert = solve_path_template(p, q)
    assert cert is not None
    assert verify_n_hom(p, q, cert)
    assert n_hom(p, q) is not None


# ---------------------------------------------------------------------------
# Path consistency and the majority polymorphism


def test_path_consistency_agrees_with_backtracking():
    shapes = ["+", ".+", "+.+", "..+"]
    for seed in range(30):
        rng = random.Random(5000 + seed)
        p = random_unary_pattern(rng, rng.randint(1, 4), rng.randint(0, 5))
        q = mixed_path(rng.choice(shapes))
        g, h = reduce_to_hom(p, q)
        pc = path_consistency_solve(g, h)
        bt = hom_two_labeled(g, h)
        assert (pc is None) == (bt is None), seed
        if pc is not None:
            # a reported assignment must be a real homomorphism
            for x, y in g.a_arcs:
                assert (pc[x], pc[y]) in h.a_arcs
            for x, y in g.t_arcs:
                assert (pc[x], pc[y]) in h.t_arcs


def _first_map_by_enumeration(g, h):
    # variables in g.vertices order, values in sorted-name order, so
    # product() yields candidate maps in lexicographic order
    for values in itertools.product(sorted(h.vertices), repeat=len(g.vertices)):
        f = dict(zip(g.vertices, values))
        if (all((f[x], f[y]) in h.a_arcs for x, y in g.a_arcs)
                and all((f[x], f[y]) in h.t_arcs for x, y in g.t_arcs)):
            return f
    return None


def test_path_consistency_returns_the_lexicographically_first_map():
    found = 0
    for seed in range(240):
        rng = random.Random(7000 + seed)
        n = rng.randint(1, 4)
        if seed % 2:
            p, q = planted_mixed_path(rng, rng.randint(max(2, n), 6))
        else:
            q = mixed_path("".join(rng.choice(".+") for _ in range(rng.randint(1, 5))))
            p = random_unary_pattern(rng, n, rng.randint(0, 2 * n))
        g, h = reduce_to_hom(p, q)
        # shuffled names, so that sorted-name order is not path order
        names = dict(zip(h.vertices, rng.sample(h.vertices, len(h.vertices))))
        h = TwoLabeledDigraph(
            h.vertices,
            frozenset((names[u], names[w]) for u, w in h.a_arcs),
            frozenset((names[u], names[w]) for u, w in h.t_arcs))
        expected = _first_map_by_enumeration(g, h)
        assert path_consistency_solve(g, h) == expected, seed
        found += expected is not None
    assert found >= 120


def test_path_consistency_spends_the_budget():
    p, q = planted_mixed_path(random.Random(3), 8)
    g, h = reduce_to_hom(p, q)
    assert path_consistency_solve(g, h, SearchBudget()) is not None
    with pytest.raises(BudgetExceededError):
        path_consistency_solve(g, h, SearchBudget(max_nodes=5))
    with pytest.raises(BudgetExceededError):
        solve_path_template(p, q, SearchBudget(max_nodes=5))


def _first_map_of_the_closure(g, h):
    net = _PcNetwork(g.vertices, *_arc_constraints(g, h))
    return net.first_solution() if net.close(SearchBudget()) else None


def _never_built(*args):
    raise AssertionError("the probe fell back to the closure")


def test_path_consistency_probe_matches_the_closure(monkeypatch):
    cases = []
    for n in (8, 16, 24, 40):
        for seed in range(3):
            rng = random.Random(11000 + 100 * n + seed)
            p, q = planted_mixed_path(rng, n)
            q = _renamed_path(q, rng)
            cases.append(reduce_to_hom(p, q))
            # mostly NO: a+ cycles, or 'a' arcs off the path's 'a' arcs
            p = random_unary_pattern(rng, rng.randint(2, 8), rng.randint(1, 12))
            cases.append(reduce_to_hom(p, q))
    expected = [_first_map_of_the_closure(g, h) for g, h in cases]
    assert 0 < expected.count(None) < len(expected)
    # on directed-path templates arc consistency decides the instance,
    # so the probe never falls back
    monkeypatch.setattr(unary, "_PcNetwork", _never_built)
    for i, (g, h) in enumerate(cases):
        assert path_consistency_solve(g, h) == expected[i], i


def test_path_consistency_falls_back_to_the_closure(monkeypatch):
    # a t-triangle into != on two values: arc consistency keeps every
    # value, every probe dies, and the closure (complete here, as != on
    # two values has a majority polymorphism) answers NO
    g = TwoLabeledDigraph(("x", "y", "z"), frozenset(),
                          frozenset({("x", "y"), ("y", "z"), ("z", "x")}))
    h = TwoLabeledDigraph(("0", "1"), frozenset(),
                          frozenset({("0", "1"), ("1", "0")}))
    built = []

    def network(*args):
        built.append(args)
        return _PcNetwork(*args)

    monkeypatch.setattr(unary, "_PcNetwork", network)
    assert path_consistency_solve(g, h) is None
    assert len(built) == 1


def _closed_by_sweeps(g, h):
    # the greatest (2,3)-consistent network, by sweeping every ordered
    # pair until nothing changes; None when some domain empties
    loops = {"a": {u for u, w in h.a_arcs if u == w},
             "t": {u for u, w in h.t_arcs if u == w}}
    dom = {x: set(h.vertices) for x in g.vertices}
    rel = {(x, y): {(u, w) for u in h.vertices for w in h.vertices}
           for x in g.vertices for y in g.vertices if x != y}
    for label, g_arcs, h_arcs in (("a", g.a_arcs, h.a_arcs),
                                  ("t", g.t_arcs, h.t_arcs)):
        for x, y in g_arcs:
            if x == y:
                dom[x] &= loops[label]
            else:
                rel[(x, y)] &= h_arcs
                rel[(y, x)] &= {(w, u) for u, w in h_arcs}
    changed = True
    while changed:
        changed = False
        for (x, y), allowed in rel.items():
            kept = {(u, w) for u, w in allowed
                    if u in dom[x] and w in dom[y]
                    and all(any((u, m) in rel[(x, z)] and (m, w) in rel[(z, y)]
                                for m in dom[z])
                            for z in g.vertices if z not in (x, y))}
            if kept != allowed:
                rel[(x, y)] = kept
                rel[(y, x)] = {(w, u) for u, w in kept}
                changed = True
            for v, side in ((x, 0), (y, 1)):
                projected = {pair[side] for pair in kept}
                if projected != dom[v]:
                    dom[v] = projected
                    changed = True
    if not all(dom.values()):
        return None
    return dom, rel


def test_path_consistency_closure_matches_naive_sweeps():
    # arbitrary small templates, most without a majority polymorphism,
    # where the closure prunes far more than on path templates
    def random_digraph(rng, names, p, loops):
        pairs = [(u, w) for u in names for w in names
                 if (u != w or loops) and rng.random() < p]
        return frozenset(pairs)

    closed = 0
    for seed in range(200):
        rng = random.Random(9000 + seed)
        xs = tuple(f"x{i}" for i in range(rng.randint(5, 6)))
        g = TwoLabeledDigraph(xs, random_digraph(rng, xs, 0.3, False),
                              random_digraph(rng, xs, 0.3, False))
        hs = tuple(f"h{i}" for i in range(rng.randint(3, 4)))
        h = TwoLabeledDigraph(hs, random_digraph(rng, hs, 0.5, True),
                              random_digraph(rng, hs, 0.6, True))
        expected = _closed_by_sweeps(g, h)
        net = _PcNetwork(g.vertices, *_arc_constraints(g, h))
        assert net.close(SearchBudget()) == (expected is not None), seed
        if expected is None:
            continue
        closed += 1
        dom, rel = expected
        bits = {v: i for i, v in enumerate(net.values)}
        for i, x in enumerate(g.vertices):
            assert net.dom[i] == sum(1 << bits[u] for u in dom[x]), seed
            for j, y in enumerate(g.vertices):
                if i != j:
                    rows = [0] * len(net.values)
                    for u, w in rel[(x, y)]:
                        rows[bits[u]] |= 1 << bits[w]
                    assert net.rel[i][j] == rows, seed
    assert closed >= 40


def test_median_polymorphism_on_alternating_path():
    q = alternating_path()
    f = median_polymorphism(q)
    assert is_majority_polymorphism(d_of_q(q), f)
    assert f("e", "d", "c") == "d"
    assert f("c", "e", "d") == "d"
    assert f("e", "e", "a") == "e"


def test_median_polymorphism_requires_path():
    with pytest.raises(PreconditionError):
        median_polymorphism(mycielski_fixture())


def test_majority_check_rejects_broken_table():
    q = alternating_path()
    f = median_table(q.vertices)
    table = dict(f.table)
    table[("e", "d", "c")] = "a"
    from rgphom.unary import MajorityTable
    broken = MajorityTable(f.vertices, table)
    assert not is_majority_polymorphism(d_of_q(q), broken)


def test_majority_table_is_exhaustive():
    f = median_table(("x", "y", "z"))
    for triple in itertools.product(("x", "y", "z"), repeat=3):
        assert f(*triple) in ("x", "y", "z")
    assert f("x", "z", "x") == "x"
