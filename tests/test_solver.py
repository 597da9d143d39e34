"""The solve entry point: route choice, fallbacks and certificates."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from rgphom import nhom, solve, unary
from rgphom.errors import BudgetExceededError, PreconditionError, SearchBudget
from rgphom.nhom import n_hom, verify_n_hom
from rgphom.rgp import directed_path_order, make_rgp
from rgphom.solver import ROUTES
from rgphom.testkit import oracle_n_hom, random_unary_pattern
from rgphom.unary import (
    TemplateKind,
    classify_undirected_template,
    solve_path_template,
)

from fixtures import (
    a_path,
    mycielski_fixture,
    planted_mixed_path,
    poly_core_templates,
    two_label_pair,
    undirected_template,
)

FORK = make_rgp("a", ["r", "s", "t"], [("r", "s", "a"), ("r", "t", "a")])
K3 = undirected_template([("u", "v"), ("v", "w"), ("w", "u")])


@pytest.mark.parametrize("route, q", [("path", FORK), ("undirected", K3)])
def test_named_route_lets_its_precondition_through(route, q):
    p = make_rgp("a", ["x", "y"], [("x", "y", "a")])
    with pytest.raises(PreconditionError):
        solve(p, q, route)
    cert, used = solve(p, q)
    assert used == "general"
    assert cert == n_hom(p, q)
    assert cert is not None and verify_n_hom(p, q, cert)


def test_only_the_four_routes_are_accepted():
    assert ROUTES == ("auto", "general", "path", "undirected")
    p = make_rgp("a", ["x"], [])
    for route in ("", "AUTO", "scheduling", None):
        with pytest.raises(PreconditionError):
            solve(p, a_path(2), route)


def test_routes_match_the_functions_behind_them():
    p, q = a_path(2, prefix="p"), a_path(3)
    assert solve(p, q) == (solve_path_template(p, q), "path")
    assert solve(p, q, "general") == (n_hom(p, q), "general")

    p, q = planted_mixed_path(random.Random(16), 16)
    assert solve(p, q) == (solve_path_template(p, q), "path")

    patterns = [
        make_rgp("a", ["x"], []),
        undirected_template([("x", "y"), ("y", "z")]),
        undirected_template([], plus_edges=[("x", "y"), ("y", "z")]),
        undirected_template([("x", "y")], plus_loops=["y"]),
    ]
    templates = poly_core_templates()
    # only the bare vertex is a directed path
    assert [directed_path_order(q) is not None for q in templates] == [
        True, False, False, False, False]
    for q in templates:
        for p in patterns:
            expected = unary.solve_undirected(p, q)
            assert solve(p, q, "undirected") == (expected, "undirected")
            assert (expected is None) == (n_hom(p, q) is None)
            if expected is not None:
                assert verify_n_hom(p, q, expected)
            if directed_path_order(q) is None:
                assert solve(p, q) == (expected, "undirected")
            else:
                # the bare vertex is a directed path: "auto" takes the
                # path route there
                cert, used = solve(p, q)
                assert used == "path"
                assert (cert is None) == (expected is None)
    p = patterns[1]
    assert classify_undirected_template(K3).kind is TemplateKind.NP_COMPLETE
    with pytest.raises(PreconditionError):
        solve(p, K3, "undirected")

    p, q = two_label_pair()
    for route in ("auto", "general"):
        assert solve(p, q, route) == (None, "general")
        assert solve(p, p, route) == (n_hom(p, p), "general")


# ---------------------------------------------------------------------------
# The undirected route: shape tests, retractions onto the core


def _cycle(n, prefix="c"):
    names = [f"{prefix}{i}" for i in range(n)]
    return [(names[i], names[(i + 1) % n]) for i in range(n)]


def _random_tree(rng, names):
    return [(rng.choice(names[:i]), v) for i, v in enumerate(names) if i]


def _loop_graph(rng):
    names = [f"u{i}" for i in range(rng.randint(1, 6))]
    edges, plus = [], []
    for u, v in _random_tree(rng, names) + [
            tuple(rng.sample(names, 2)) for _ in range(len(names) // 2)]:
        (edges if rng.random() < 0.6 else plus).append((u, v))
    return undirected_template(edges, loops=[rng.choice(names)],
                               plus_edges=plus)


def _even_cycle(rng):
    return undirected_template(_cycle(rng.choice((4, 6))))


def _bipartite_with_plus_chords(rng):
    names = [f"u{i}" for i in range(rng.randint(2, 6))]
    side = {v: i % 2 for i, v in enumerate(names)}
    edges = [(names[0], names[1])]
    for i, v in enumerate(names[2:], start=2):
        edges.append((rng.choice([u for u in names[:i] if side[u] != side[v]]),
                      v))
    chords = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(1, 3))]
    return undirected_template(edges, plus_edges=chords,
                               plus_loops=[names[-1]] if rng.random() < 0.3 else [])


def _all_plus(rng):
    names = [f"u{i}" for i in range(rng.randint(1, 6))]
    edges = _random_tree(rng, names)
    loops = [rng.choice(names)] if rng.random() < 0.5 or not edges else []
    return undirected_template([], plus_edges=edges, plus_loops=loops)


def _k3_with_pendant(rng):
    if rng.random() < 0.5:
        return undirected_template(_cycle(3, "k") + [("k0", "t")])
    return undirected_template(_cycle(3, "k"), plus_edges=[("k0", "t")])


FAMILIES = {
    "a-loop": (_loop_graph, "undirected"),
    "even cycle": (_even_cycle, "undirected"),
    "bipartite + a+ chords": (_bipartite_with_plus_chords, "undirected"),
    "all a+": (_all_plus, "undirected"),
    "K3 + pendant": (_k3_with_pendant, "general"),
}


def test_auto_agrees_with_the_general_solver_and_the_oracle():
    rng = random.Random(20261018)
    cases = [(family, make(rng)) for family, (make, _) in FAMILIES.items()
             for _ in range(6)]
    cases += [("Mycielski", mycielski_fixture())]
    routes, found = Counter(), Counter()
    for family, q in cases:
        size = 3 if family == "Mycielski" else 4
        for _ in range(6):
            p = random_unary_pattern(rng, rng.randint(1, size),
                                     rng.randint(0, 5), undirected=True)
            cert, route = solve(p, q)
            general = n_hom(p, q)
            oracle = oracle_n_hom(p, q)
            assert (cert is None) == (general is None) == (oracle is None), (
                family, p, q)
            if cert is not None:
                assert verify_n_hom(p, q, cert)
            expected = FAMILIES.get(family, (None, "general"))[1]
            assert route == expected, family
            if route == "general":
                assert cert == general
            routes[route] += 1
            found[cert is not None] += 1
    assert routes == {"undirected": 144, "general": 42}
    assert found[True] >= 40 and found[False] >= 40


def test_non_core_templates_map_onto_the_retract_their_shape_names():
    p = undirected_template(_cycle(6, "p"), plus_edges=[("p0", "p2")])
    p_plus = undirected_template([], plus_edges=_cycle(5, "p"))
    cases = [
        (p, undirected_template(_cycle(3), loops=["c1"]), {"c1"}),
        # the first 'a' edge in sorted order, not in arc order
        (p, undirected_template([("c3", "c2"), ("c2", "c1"), ("c1", "c0"),
                                 ("c0", "c3")]), {"c0", "c1"}),
        (p_plus, undirected_template([], plus_edges=_cycle(4),
                                     plus_loops=["c2"]), {"c2"}),
    ]
    for p, q, retract in cases:
        cert, route = solve(p, q)
        assert route == "undirected"
        assert set(cert.mapping.values()) == retract
        assert verify_n_hom(p, q, cert)


def test_auto_never_proves_a_template_core(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("core check")

    monkeypatch.setattr(nhom, "is_n_core", refuse)
    monkeypatch.setattr(unary, "is_n_core", refuse)
    p = undirected_template(_cycle(5, "p"), plus_edges=[("p0", "p2")])
    cert, route = solve(p, K3)
    assert route == "general"
    assert cert is not None and cert == n_hom(p, K3)
    # rgphom classify still proves a small template core before it answers
    with pytest.raises(AssertionError, match="core check"):
        classify_undirected_template(undirected_template(_cycle(4)))


@pytest.mark.parametrize("p, q", [
    (a_path(4, prefix="p"), undirected_template(_cycle(4))),
    (undirected_template(_cycle(6, "p")), K3),
    (a_path(3, prefix="p"), a_path(5)),
])
def test_every_route_spends_the_budget(p, q):
    assert solve(p, q)[0] is not None
    with pytest.raises(BudgetExceededError):
        solve(p, q, budget=SearchBudget(max_nodes=1))


def test_the_undirected_route_turns_down_a_foreign_symbol():
    q = undirected_template(_cycle(3), loops=["c0"])
    p = make_rgp("b", ["x", "y"], [("x", "y", "b"), ("y", "x", "b")])
    assert solve(p, q) == (None, "general")
    with pytest.raises(PreconditionError):
        solve(p, q, "undirected")
