"""One entry point for navigational homomorphism: pick a route, run it.

The general solver decides every instance.  Targets whose labels are
all a or a+ may instead take one of the polynomial routes of the unary
module: the directed-path solver, or the undirected route.  The
undirected route picks its class from O(|Q|) shape tests on an
undirected connected target Q, in this order, and never checks whether
Q is a core: Hom(P, Q) holds exactly when Hom(P, core(Q)) does, and the
first three shapes name a retract of Q whose class is polynomial.

1. An 'a' loop at w: Q retracts onto the loop, and every pattern maps
   to w.
2. A bipartite a-subgraph with at least one 'a' edge: Q retracts onto
   its first 'a' edge, each a-component 2-coloured onto its ends and
   each a+ edge sent back and forth along it.  A pattern maps to Q
   exactly when its own a-subgraph is bipartite.
3. No 'a' edge: Q retracts onto one a+ loop or a+ edge, or is a single
   bare vertex.
4. Otherwise Q has an odd a-cycle of length 3 or more, and so does its
   core: NP-complete, and "auto" goes straight to the general solver.

``solve`` holds the policy that chooses between the routes, so a
library caller gets the same answer and the same route as the
``rgphom nhom`` command.
"""

from __future__ import annotations

from .errors import PreconditionError, SearchBudget
from .nhom import NHomomorphism, n_hom
from .rgp import (LabelKind, Rgp, directed_path_order, is_connected,
                  is_undirected, label_class)
from .unary import (
    TemplateClass,
    TemplateKind,
    _certificate_onto,
    _require_unary,
    _two_coloring,
    _undirected_edges,
    solve_path_template,
)

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
        return _solve_undirected(p, q, budget), "undirected"
    if label_class(q).kind is not LabelKind.GENERAL:
        if directed_path_order(q) is not None:
            try:
                return solve_path_template(p, q, budget), "path"
            except PreconditionError:
                pass
        try:
            return _solve_undirected(p, q, budget), "undirected"
        except PreconditionError:
            pass
    return n_hom(p, q, budget), "general"


def _solve_undirected(p: Rgp, q: Rgp,
                      budget: SearchBudget) -> NHomomorphism | None:
    """The undirected route, by the shape tests of the module docstring.
    PreconditionError when q is not an undirected, connected, nonempty
    unary template, when it has an odd a-cycle, or when the pattern is
    not an undirected unary pattern over q's symbol."""
    if not q.vertices or not is_undirected(q) or not is_connected(q):
        raise PreconditionError(
            "template must be undirected, connected and nonempty")
    _require_unary(q, "template")
    budget.tick(len(q.vertices) + len(q.arcs))
    _, odd = _two_coloring(q)
    if odd is not None and len(odd) > 1:
        raise PreconditionError(
            "template has an odd a-cycle: outside the polynomial classes")
    a_edges = [(u, v) for u, v, plussed in _undirected_edges(q) if not plussed]
    if odd is not None:
        kind, ends = TemplateKind.POLY_LOOP_A, odd
    elif a_edges:
        kind, ends = TemplateKind.POLY_SINGLE_EDGE_A, a_edges[0]
    else:
        loops = [arc.src for arc in q.arcs if arc.src == arc.dst]
        if loops:
            kind = TemplateKind.POLY_LOOP_A_PLUS
        elif q.arcs:
            kind = TemplateKind.POLY_SINGLE_EDGE_A_PLUS
        else:
            kind = TemplateKind.POLY_SINGLE_VERTEX_NO_LOOP
        ends = loops[:1] or q.vertices[:1]
    budget.tick(len(p.vertices) + len(p.arcs))
    return _certificate_onto(TemplateClass(kind), ends, p, q, budget)
