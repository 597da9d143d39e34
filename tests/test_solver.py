"""The solve entry point: route choice, fallbacks and certificates."""

from __future__ import annotations

import random

import pytest

from rgphom import solve
from rgphom.errors import PreconditionError
from rgphom.nhom import n_hom, verify_n_hom
from rgphom.rgp import make_rgp
from rgphom.solver import ROUTES
from rgphom.unary import (
    classify_undirected_template,
    easy_certificate,
    solve_path_template,
)

from fixtures import a_path, planted_mixed_path, two_label_pair, undirected_template

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

    p = undirected_template([("x", "y"), ("y", "z")])
    q = undirected_template([("u", "v")])
    expected = easy_certificate(classify_undirected_template(q), p, q)
    assert solve(p, q) == (expected, "undirected")
    assert solve(p, q, "undirected") == (expected, "undirected")

    p, q = two_label_pair()
    for route in ("auto", "general"):
        assert solve(p, q, route) == (None, "general")
        assert solve(p, p, route) == (n_hom(p, p), "general")
