"""One entry point for navigational homomorphism: pick a route, run it.

The general solver decides every instance.  Targets whose labels are
all a or a+ may instead take one of the polynomial routes of the unary
module, in this order: the directed-path solver on directed-path
targets (solve_path_template), then the undirected route on other
targets (solve_undirected).  A route that turns the instance down
passes it on to the next, and the general solver takes the rest.

``solve`` holds the policy that chooses between the routes, so a
library caller gets the same answer and the same route as the
``rgphom nhom`` command.
"""

from __future__ import annotations

from .errors import PreconditionError, SearchBudget
from .nhom import NHomomorphism, n_hom
from .rgp import LabelKind, Rgp, directed_path_order, label_class
from .unary import solve_path_template, solve_undirected

ROUTES = ("auto", "general", "path", "undirected")


def solve(
    p: Rgp,
    q: Rgp,
    route: str = "auto",
    budget: SearchBudget | None = None,
) -> tuple[NHomomorphism | None, str]:
    """A navigational homomorphism p -> q, or None, and the route that
    decided it.

    route is one of ROUTES.  A named route runs alone and lets its
    PreconditionError through when the instance is outside its domain.
    "auto" tries the path route on unary directed-path targets, then the
    undirected route on other unary targets, and falls back to the
    general solver when neither applies.  Every route spends the one
    budget.
    """
    if route not in ROUTES:
        raise PreconditionError(
            f"unknown route {route!r}; expected one of {', '.join(ROUTES)}")
    budget = budget or SearchBudget()
    if route == "general":
        return n_hom(p, q, budget), "general"
    if route == "path":
        return solve_path_template(p, q, budget), "path"
    if route == "undirected":
        return solve_undirected(p, q, budget), "undirected"
    if label_class(q).kind is not LabelKind.GENERAL:
        if directed_path_order(q) is not None:
            try:
                return solve_path_template(p, q, budget), "path"
            except PreconditionError:
                pass
        try:
            return solve_undirected(p, q, budget), "undirected"
        except PreconditionError:
            pass
    return n_hom(p, q, budget), "general"

