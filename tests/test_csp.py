from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from rgphom import csp, unary
from rgphom.csp import (Rows, _network, _propagate, _transpose,
                        iter_csp_solutions, pair_rows, solve_csp)
from rgphom.errors import BudgetExceededError, SearchBudget
from rgphom.nhom import label_relations, n_hom, verify_n_hom
from rgphom.rgp import Rgp, make_rgp
from rgphom.testkit import random_unary_pattern
from rgphom.unary import path_consistency_solve, reduce_to_hom
from rgphom.walks import clear_relation_cache, witness_walks

from fixtures import planted_mixed_path
from helpers import reference_csp, reference_propagate


def network(values, *triples):
    """Constraints (x, y, Rows) over values from (x, y, pairs) triples."""
    return [(x, y, pair_rows(pairs, values)) for x, y, pairs in triples]


COLORS = ["g", "r"]
DIFF = [("g", "r"), ("r", "g")]
K3 = [(a, b) for a in "012" for b in "012" if a != b]


def brute_solutions(variables, values, triples):
    out = []
    for combo in itertools.product(values, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if all((assignment[x], assignment[y]) in pairs
               for x, y, pairs in triples):
            out.append(assignment)
    return out


def test_path_two_coloring_found():
    cs = network(COLORS, ("a", "b", DIFF), ("b", "c", DIFF))
    sol = solve_csp("abc", COLORS, cs, SearchBudget())
    # values are tried in the order of the value list, so "g" leads
    assert sol == {"a": "g", "b": "r", "c": "g"}


def test_triangle_two_coloring_fails():
    cs = network(COLORS, ("a", "b", DIFF), ("b", "c", DIFF), ("a", "c", DIFF))
    assert solve_csp("abc", COLORS, cs, SearchBudget()) is None


def test_all_solutions_match_brute_force():
    triples = [("x", "y", K3), ("y", "z", K3), ("x", "z", K3)]
    got = list(iter_csp_solutions("xyz", list("012"),
                                  network("012", *triples), SearchBudget()))
    expected = brute_solutions("xyz", "012", triples)
    assert len(got) == 6
    assert sorted(map(sorted, (g.items() for g in got))) == \
        sorted(map(sorted, (e.items() for e in expected)))


def test_loop_constraint_filters_domain():
    # A constraint on (v, v) only keeps values paired with themselves.
    cs = network("123", ("v", "v", [("1", "1"), ("2", "3")]))
    sol = solve_csp(["v"], list("123"), cs, SearchBudget())
    assert sol == {"v": "1"}


def test_unsatisfiable_loop_is_none():
    cs = network("12", ("v", "v", [("1", "2")]))
    assert solve_csp(["v"], list("12"), cs, SearchBudget()) is None


def test_empty_variable_list_yields_empty_assignment():
    assert solve_csp([], [], [], SearchBudget()) == {}


def test_empty_domain_is_unsatisfiable():
    assert solve_csp(["v"], ["1", "2"], [], SearchBudget(), [0]) is None
    assert solve_csp(["v"], [], [], SearchBudget()) is None


def test_deterministic_solution_order():
    runs = [list(iter_csp_solutions("ab", list("01"), [], SearchBudget()))
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == {"a": "0", "b": "0"}


def test_budget_exhaustion_raises():
    cs = network("0123", *((x, y, [(a, b) for a in "0123" for b in "0123"
                                    if a != b])
                           for x, y in itertools.combinations("abcd", 2)))
    with pytest.raises(BudgetExceededError):
        list(iter_csp_solutions("abcd", list("0123"), cs,
                                SearchBudget(max_nodes=2)))


# A forced chain: each variable has one viable value after AC.
CHAIN = network("01", ("a", "b", [("0", "1")]), ("b", "c", [("1", "0")]))


def test_propagation_alone_solves_chains():
    assert solve_csp("abc", list("01"), CHAIN, SearchBudget()) == \
        {"a": "0", "b": "1", "c": "0"}


def test_arc_consistency_alone_ticks_the_budget():
    # The forced chain above needs no search at all.
    with pytest.raises(BudgetExceededError):
        solve_csp("abc", list("01"), CHAIN, SearchBudget(max_nodes=1))


def random_network(rng: random.Random):
    """Variables named out of sorted order, domains with duplicates,
    pinned or empty, loops, pairs with values outside every domain, and
    antiparallel constraints that are, or are not, transposes."""
    variables = [f"v{i}" for i in rng.sample(range(12), rng.randint(1, 6))]
    pool = list("dcba")
    domains = {}
    for v in variables:
        roll = rng.random()
        if roll < 0.15:
            domains[v] = [rng.choice(pool)]
        elif roll < 0.18:
            domains[v] = []
        else:
            domains[v] = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
    values = pool + ["e", "f"]

    def relation():
        density = rng.uniform(0.5, 0.95)
        return frozenset((a, b) for a in values for b in values
                         if rng.random() < density)

    constraints = []
    for _ in range(rng.randint(0, 8)):
        x, y = rng.choice(variables), rng.choice(variables)
        pairs = relation()
        constraints.append((x, y, pairs))
        roll = rng.random()
        if roll < 0.3:
            constraints.append((y, x, frozenset((b, a) for a, b in pairs)))
        elif roll < 0.6:
            constraints.append((y, x, relation()))
        elif roll < 0.7:
            constraints.append((x, y, pairs))
    return variables, domains, constraints


@pytest.mark.parametrize("spare_values", [False, True])
def test_matches_the_reference_solver_in_order(spare_values):
    # The reference takes each domain as a value list and each
    # constraint as pairs. The solver takes the same network as masks
    # over one sorted value list, which holds either exactly the values
    # of the domains or also "e" and "f", which no domain holds.
    rng = random.Random(7 + spare_values)
    seen_solutions = 0
    for _ in range(400):
        variables, domains, triples = random_network(rng)
        used = {a for v in variables for a in domains[v]}
        values = sorted(used | {"e", "f"} if spare_values else used)
        index = {a: i for i, a in enumerate(values)}
        dom = [sum(1 << index[a] for a in set(domains[v])) for v in variables]
        got = [list(s.items()) for s in
               iter_csp_solutions(variables, values, network(values, *triples),
                                  SearchBudget(), dom)]
        want = [list(s.items()) for s in
                reference_csp(variables, domains, triples)]
        assert got == want, (variables, domains, triples)
        seen_solutions += len(got)
    assert seen_solutions > 1000


def planted_coloring(rng: random.Random, n: int, m: int) -> Rgp:
    """An undirected all-'a' graph on n shuffled vertices with m edges,
    properly 3-coloured by a hidden colouring when m is small enough."""
    names = [f"g{i}" for i in range(n)]
    colour = {v: rng.randrange(3) for v in names}
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(names, 2)
        if colour[u] != colour[v] or rng.random() < 0.02:
            edges.add((u, v))
    rng.shuffle(names)
    arcs = [arc for u, v in sorted(edges) for arc in ((u, v, "a"), (v, u, "a"))]
    return make_rgp("a", names, arcs)


def test_merged_mirrored_constraints_keep_certificates():
    k3 = make_rgp("a", ["k2", "k0", "k1"],
                  [(f"k{i}", f"k{j}", "a") for i in range(3) for j in range(3)
                   if i != j])
    rng = random.Random(3)
    found = 0
    for n, m in [(8, 10), (10, 14), (12, 18), (14, 22), (16, 30), (18, 40)]:
        p = planted_coloring(rng, n, m)
        h = n_hom(p, k3)
        relations = label_relations(p, k3)
        arc_relations = [relations[arc.label] for arc in p.arcs]
        triples = [(arc.src, arc.dst, frozenset(rel.pairs))
                   for arc, rel in zip(p.arcs, arc_relations)]
        domains = {v: sorted(k3.vertices) for v in p.vertices}
        want = next(reference_csp(p.vertices, domains, triples), None)
        if want is None:
            assert h is None
            continue
        found += 1
        assert list(h.mapping.items()) == list(want.items())
        assert h.witnesses == witness_walks(p, want, arc_relations)
        assert verify_n_hom(p, k3, h)
    assert found >= 3


def random_mask_network(rng: random.Random):
    """Domains and support lists over 1 to 80 values: each domain full,
    a single value or a random part, and each relation of a density
    from about 1/8 to 7/8 with some rows left empty."""
    k = rng.randint(1, 80)
    n = rng.randint(2, 8)
    full = (1 << k) - 1
    dom = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4:
            dom.append(full)
        elif roll < 0.7:
            dom.append(1 << rng.randrange(k))
        else:
            dom.append(rng.getrandbits(k) or full)

    def row() -> int:
        bits = rng.getrandbits(k)
        for _ in range(rng.randint(0, 2)):
            bits = (bits & rng.getrandbits(k) if rng.random() < 0.5
                    else bits | rng.getrandbits(k))
        return bits

    names = [f"v{i}" for i in range(n)]
    constraints = []
    for _ in range(rng.randint(1, 12)):
        live = rng.random()
        rows = [row() if rng.random() < live else 0 for _ in range(k)]
        relation = Rows(tuple(rows), tuple(_transpose(rows)))
        constraints.append((rng.choice(names), rng.choice(names), relation))
    var = {v: i for i, v in enumerate(names)}
    support = _network(var, k, dom, constraints)
    return dom, support


def test_revision_by_image_matches_revision_value_by_value():
    rng = random.Random(18)
    wiped = 0
    for _ in range(600):
        dom, support = random_mask_network(rng)
        changed = rng.sample(range(len(dom)), rng.randint(1, len(dom)))
        got, want = dom[:], dom[:]
        ours, theirs = SearchBudget(), SearchBudget()
        got_trail, want_trail = [], []
        verdict = _propagate(got, support, changed, ours, got_trail)
        assert verdict == reference_propagate(want, support, changed, theirs,
                                              want_trail)
        assert got == want
        assert got_trail == want_trail
        assert ours.nodes == theirs.nodes
        for y, old in reversed(got_trail):
            got[y] = old
        assert got == dom
        wiped += not verdict
    assert 50 < wiped < 550


def graph_database(rng: random.Random, n: int) -> Rgp:
    """n vertices, each with an 'a' arc to a random vertex, and 'b' arcs
    along a random order of the vertices, closed into a cycle or not."""
    names = [f"d{i}" for i in range(n)]
    order = rng.sample(names, n)
    arcs = [(v, rng.choice(names), "a") for v in names]
    ends = order[1:] + order[:1] if rng.random() < 0.5 else order[1:]
    arcs += [(u, v, "b") for u, v in zip(order, ends)]
    return make_rgp("ab", names, arcs)


def query(rng: random.Random) -> Rgp:
    labels = ("a", "b", "b.a", "a.b*", "(a|b)+", "a.(a|b)*", "(a|b)*.b",
              "(a.b)+")
    names = [f"x{i}" for i in range(rng.randint(2, 5))]
    arcs = [(rng.choice(names), rng.choice(names), rng.choice(labels))
            for _ in range(rng.randint(1, 6))]
    return make_rgp("ab", names, arcs)


def test_solvers_answer_as_with_revision_value_by_value(monkeypatch):
    rng = random.Random(11)
    k3 = make_rgp("a", ["k0", "k1", "k2"],
                  [(f"k{i}", f"k{j}", "a") for i in range(3) for j in range(3)
                   if i != j])
    instances = [(query(rng), graph_database(rng, rng.randint(10, 80)))
                 for _ in range(40)]
    instances += [(planted_coloring(rng, n, m), k3)
                  for n, m in [(10, 14), (14, 22), (18, 40), (24, 60)]]
    two_labeled = [reduce_to_hom(*planted_mixed_path(rng, n))
                   for n in (6, 10, 16)]
    two_labeled += [reduce_to_hom(random_unary_pattern(seed, 6, 9),
                                  random_unary_pattern(seed + 1, 7, 12))
                    for seed in range(0, 40, 2)]

    def answers():
        clear_relation_cache()
        out = []
        for p, q in instances:
            budget = SearchBudget()
            h = n_hom(p, q, budget)
            out.append((h and h.to_json(), budget.nodes))
        for g, h in two_labeled:
            budget = SearchBudget()
            out.append((path_consistency_solve(g, h, budget), budget.nodes))
        return out

    ours = answers()
    monkeypatch.setattr(csp, "_propagate", reference_propagate)
    monkeypatch.setattr(unary, "_propagate", reference_propagate)
    theirs = answers()
    assert ours == theirs
    assert sum(h is None for h, _ in ours) >= 5
    assert sum(h is not None for h, _ in ours) >= 20


def test_a_repeated_constraint_changes_neither_answer_nor_ticks():
    # A constraint given twice is folded into the stored one, and a
    # self-loop narrows its domain the same way twice.
    names = [f"v{i}" for i in range(6)]
    cs = network(COLORS, *((x, y, DIFF) for x, y in zip(names, names[1:])),
                 ("v0", "v0", [("g", "g")]))
    once, twice = SearchBudget(), SearchBudget()
    sol = solve_csp(names, COLORS, cs, once)
    assert sol == {v: "gr"[i % 2] for i, v in enumerate(names)}
    assert solve_csp(names, COLORS, cs + cs, twice) == sol
    assert twice.nodes == once.nodes
    short = Rows((0b1,), (0b1,))
    with pytest.raises(ValueError, match="value list"):
        solve_csp(["v"], COLORS, [("v", "v", short)], SearchBudget())


def test_forced_values_cost_no_tick():
    # Two-colouring a path: after its first variable takes a value, arc
    # consistency leaves every other variable one value, and those are
    # assigned without a tick.
    n = 12
    names = [f"v{i}" for i in range(n)]
    cs = network(COLORS, *((x, y, DIFF) for x, y in zip(names, names[1:])))
    budget = SearchBudget()
    sol = solve_csp(names, COLORS, cs, budget)
    assert sol == {v: "gr"[i % 2] for i, v in enumerate(names)}
    # The ticks of arc consistency, of the one value tried and of its
    # propagation, and no more.
    var = {v: i for i, v in enumerate(names)}
    dom = [0b11] * n
    support = _network(var, len(COLORS), dom, cs)
    ac = SearchBudget()
    assert _propagate(dom, support, range(n), ac, [])
    dom[0] = 0b01
    assert _propagate(dom, support, (0,), ac, [])
    assert all(d in (0b01, 0b10) for d in dom)
    assert budget.nodes == ac.nodes + 1


@pytest.mark.parametrize("arcs", [
    [("t0", "t1"), ("t1", "t2"), ("t2", "t0"), ("t3", "t0")],
    [("t0", "t1"), ("t1", "t2"), ("t2", "t0"), ("t0", "t3"), ("t3", "t1")],
], ids=["forced", "choices"])
def test_a_long_path_is_searched_in_linear_memory(arcs):
    # Into the first target every vertex of the path is forced once the
    # first takes a value; into the second about a third of them are
    # choices. Each search is as deep as the path.
    n = 4000
    names = [f"p{i}" for i in range(n)]
    p = make_rgp("a", names, [(u, v, "a") for u, v in zip(names, names[1:])])
    q = make_rgp("a", ["t0", "t1", "t2", "t3"],
                 [(u, v, "a") for u, v in arcs])
    clear_relation_cache()
    tracemalloc.start()
    try:
        h = n_hom(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h is not None
    assert peak < 10_000_000
    assert verify_n_hom(p, q, h)
