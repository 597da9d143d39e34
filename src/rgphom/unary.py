"""Solvers for patterns whose labels are a single symbol a or a+.

This fragment reduces to classical homomorphism questions on digraphs
with two arc labels: 'a' arcs map locally, and a+ arcs may stretch
along any nonempty walk, which is exactly reachability in the target.
The module covers four layers:

* the reduction itself (d_of_q, reduce_to_hom, hom_two_labeled);
* undirected, connected templates: one set of shape tests (_retract)
  names the class of core(Q) and a retract of Q in it, and serves the
  undirected route (solve_undirected), which maps onto that retract,
  and the dichotomy classifier; plus the core audit;
* directed-path targets whose arcs are all 'a': the level collapse
  (collapse_levels) and its reformulation as a scheduling feasibility
  problem solved by shortest paths, which needs no pruning first;
* the route for mixed {a, a+} path targets (path_consistency_solve):
  a greedy arc-consistency probe, exact because both relations of
  d_of_q are min-closed in path order, with a (2,3)-consistency
  closure as its fallback, complete under the median majority
  polymorphism (median_polymorphism).  Both path sub-routes read each
  witness walk off the path order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import Counter, deque
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from .csp import (Rows, _bits, _propagate, _root, _transpose,
                  iter_csp_solutions, pair_rows, solve_csp)
from .errors import (
    NotAcyclicError,
    NotBalancedError,
    PreconditionError,
    SearchBudget,
)
from .nhom import NHomomorphism, is_n_core, label_relations, n_hom
from .regexes import RegexAst, Sym
from .rgp import (
    LabelClass,
    LabelKind,
    Rgp,
    _dot_quote,
    _is_acyclic,
    _leveling,
    _reach,
    directed_path_order,
    is_connected,
    is_undirected,
    label_class,
    make_rgp,
)
from .walks import witness_walks


# ---------------------------------------------------------------------------
# Two-labeled digraphs and the reduction to classical homomorphism


@dataclass(frozen=True)
class TwoLabeledDigraph:
    """A digraph with arcs labeled 'a' or 't', at most one per label
    and ordered pair."""

    vertices: tuple[str, ...]
    a_arcs: frozenset[tuple[str, str]]
    t_arcs: frozenset[tuple[str, str]]

    def __post_init__(self):
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise PreconditionError("duplicate vertex ids")
        for u, v in list(self.a_arcs) + list(self.t_arcs):
            if u not in known or v not in known:
                raise PreconditionError(f"arc endpoint {u!r}->{v!r} unknown")

    def to_json(self) -> dict[str, Any]:
        arcs = [{"from": u, "to": v, "label": "a"}
                for u, v in sorted(self.a_arcs)]
        arcs += [{"from": u, "to": v, "label": "t"}
                 for u, v in sorted(self.t_arcs)]
        return {"vertices": list(self.vertices), "arcs": arcs}

    def to_dot(self) -> str:
        lines = ["digraph {"] + [f"  {_dot_quote(v)};" for v in self.vertices]
        for arcs, attrs in ((self.a_arcs, 'label="a"'),
                            (self.t_arcs, 'label="t", style=dashed')):
            lines += (f"  {_dot_quote(u)} -> {_dot_quote(v)} [{attrs}];"
                      for u, v in sorted(arcs))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _require_unary(p: Rgp, role: str) -> LabelClass:
    cls = label_class(p)
    if cls.kind is LabelKind.GENERAL:
        raise PreconditionError(f"{role} labels must all be a or a+")
    return cls


def _require_same_symbol(p: Rgp, q: Rgp) -> LabelClass:
    """Both p and q unary, over one symbol when both have arcs; the
    label class of q."""
    sp = _require_unary(p, "pattern").symbol
    cls = _require_unary(q, "target")
    if sp is not None and cls.symbol is not None and sp != cls.symbol:
        raise PreconditionError(f"mismatched symbols {sp!r} vs {cls.symbol!r}")
    return cls


def _split_arcs(p: Rgp) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """Deduplicated (src, dst) pairs of single-symbol arcs and plus arcs."""
    single, plussed = set(), set()
    for arc in p.arcs:
        if isinstance(arc.label, Sym):
            single.add((arc.src, arc.dst))
        else:
            plussed.add((arc.src, arc.dst))
    return single, plussed


def _reachable_pairs(p: Rgp,
                     budget: SearchBudget) -> frozenset[tuple[str, str]]:
    """Ordered pairs joined by a directed walk of length >= 1, any labels;
    the budget ticks once per pair."""
    out: dict[str, set[str]] = {v: set() for v in p.vertices}
    for arc in p.arcs:
        out[arc.src].add(arc.dst)
    pairs: list[tuple[str, str]] = []
    for start in p.vertices:
        reached = _reach(out, out[start])
        budget.tick(len(reached))
        pairs += ((start, v) for v in reached)
    return frozenset(pairs)


def d_of_q(q: Rgp, budget: SearchBudget | None = None) -> TwoLabeledDigraph:
    """The target-side translation: keep 'a' arcs, and add a 't' arc
    u -> v for every pair joined by a nonempty directed walk."""
    _require_unary(q, "target")
    single, _ = _split_arcs(q)
    return TwoLabeledDigraph(q.vertices, frozenset(single),
                             _reachable_pairs(q, budget or SearchBudget()))


def reduce_to_hom(p: Rgp, q: Rgp, budget: SearchBudget | None = None,
                  ) -> tuple[TwoLabeledDigraph, TwoLabeledDigraph]:
    """Translate an {a, a+} instance into a two-labeled digraph pair.

    The pattern keeps its arcs with a+ renamed to 't' (no closure); the
    target becomes d_of_q(q), which ticks the budget. A navigational
    homomorphism p to q exists exactly when a classical labeled
    homomorphism exists between the results.
    """
    _require_same_symbol(p, q)
    single, plussed = _split_arcs(p)
    pattern = TwoLabeledDigraph(p.vertices, frozenset(single), frozenset(plussed))
    return pattern, d_of_q(q, budget)


def hom_two_labeled(
    g: TwoLabeledDigraph,
    h: TwoLabeledDigraph,
    budget: SearchBudget | None = None,
) -> dict[str, str] | None:
    """Label-preserving digraph homomorphism g -> h, or None."""
    budget = budget or SearchBudget()
    values, constraints = _arc_constraints(g, h)
    return solve_csp(g.vertices, values, constraints, budget)


def _arc_constraints(
    g: TwoLabeledDigraph,
    h: TwoLabeledDigraph,
) -> tuple[list[str], list[tuple[str, str, Rows]]]:
    """h's vertices in sorted order, and the constraints of g's 'a' arcs
    and then its 't' arcs as Rows over them.  Each label's arcs come in
    sorted order, so that propagation, and with it the budget's count,
    is the same in every process."""
    values = sorted(h.vertices)
    constraints = []
    for g_arcs, h_arcs in ((g.a_arcs, h.a_arcs), (g.t_arcs, h.t_arcs)):
        rows = pair_rows(h_arcs, values)
        constraints += [(x, y, rows) for x, y in sorted(g_arcs)]
    return values, constraints


# ---------------------------------------------------------------------------
# Undirected templates: core audit, dichotomy classifier, solver


@dataclass(frozen=True)
class Violation:
    """One failed audit item, with a machine-checkable witness."""

    item: str
    detail: str
    witness: Any = None


def _undirected_edges(q: Rgp) -> list[tuple[str, str, bool]]:
    """Distinct unordered edges as (u, v, is_plus) with u <= v."""
    edges = set()
    for arc in q.arcs:
        u, v = sorted((arc.src, arc.dst))
        edges.add((u, v, not isinstance(arc.label, Sym)))
    return sorted(edges)


def _a_edge_adjacency(q: Rgp) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in q.vertices}
    for arc in q.arcs:
        if isinstance(arc.label, Sym) and arc.src != arc.dst:
            adj[arc.src].add(arc.dst)
            adj[arc.dst].add(arc.src)
    return adj


def _edge_induced_a_components(q: Rgp) -> list[Rgp]:
    """Connected components of the a-edge subgraph, as standalone
    patterns; vertices touched by no 'a' edge belong to none."""
    components = []
    for members in _vertex_a_components(q):
        inside = set(members)
        arcs = [(a.src, a.dst, a.label) for a in q.arcs
                if isinstance(a.label, Sym) and a.src in inside]
        if arcs:
            components.append(make_rgp(q.alphabet, members, arcs))
    return components


def _plus_incident_vertices(q: Rgp, members: Iterable[str]) -> list[str]:
    members = set(members)
    hit = set()
    for arc in q.arcs:
        if not isinstance(arc.label, Sym):
            if arc.src in members:
                hit.add(arc.src)
            if arc.dst in members:
                hit.add(arc.dst)
    return [v for v in q.vertices if v in hit]


def audit_undirected_ncore(
    q: Rgp,
    budget: SearchBudget | None = None,
) -> list[Violation]:
    """Necessary conditions for an undirected connected {a, a+} pattern
    to be a core. An empty list does not prove core-ness; any entry
    disproves it.

    Items over the components S_1..S_p of the subgraph formed by the
    'a' edges (components with at least one 'a' edge; an a+ endpoint
    with no 'a' edge spans no component of its own), writing X_i for
    the vertices of S_i touching an a+ edge of q:
      a: some edge is labeled 'a', unless q has at most one edge;
      b: a loop forces a single vertex;
      c: in a loop-free pattern every a+ edge is a bridge;
      d: if |X_i| <= 1 then S_i has no homomorphism into any other S_j;
      e: every endomorphism of S_i fixing X_i pointwise is an
         automorphism.
    """
    budget = budget or SearchBudget()
    if not is_undirected(q) or not is_connected(q):
        raise PreconditionError("audit needs an undirected connected pattern")
    _require_unary(q, "template")
    violations: list[Violation] = []
    edges = _undirected_edges(q)
    loops = [(u, v, plussed) for u, v, plussed in edges if u == v]

    if len(edges) >= 2 and all(plussed for _, _, plussed in edges):
        violations.append(Violation(
            "a", f"{len(edges)} edges but none labeled 'a'"))

    if loops and len(q.vertices) > 1:
        u = loops[0][0]
        violations.append(Violation(
            "b", f"loop at {u!r} alongside {len(q.vertices) - 1} other vertices",
            witness=u))

    if not loops:
        for dropped in edges:
            u, v, plussed = dropped
            if not plussed:
                continue
            # dropped is a bridge unless u still reaches v without it.
            adj: dict[str, set[str]] = {x: set() for x in q.vertices}
            for edge in edges:
                if edge != dropped:
                    x, y, _ = edge
                    adj[x].add(y)
                    adj[y].add(x)
            if v in _reach(adj, (u,)):
                violations.append(Violation(
                    "c", f"a+ edge {u!r}--{v!r} is not a bridge",
                    witness=(u, v)))

    components = _edge_induced_a_components(q)
    anchors = [_plus_incident_vertices(q, c.vertices) for c in components]
    for i, source in enumerate(components):
        if len(anchors[i]) > 1:
            continue
        for j, target in enumerate(components):
            if i == j:
                continue
            h = n_hom(source, target, budget)
            if h is not None:
                violations.append(Violation(
                    "d",
                    f"component of {source.vertices[0]!r} (|X|={len(anchors[i])}) "
                    f"maps into component of {target.vertices[0]!r}",
                    witness=h.mapping))
    for i, component in enumerate(components):
        bad = _non_bijective_endo(component, anchors[i], budget)
        if bad is not None:
            violations.append(Violation(
                "e",
                f"component of {component.vertices[0]!r} has a non-surjective "
                "endomorphism fixing its a+ anchors",
                witness=bad))
    return violations


def _non_bijective_endo(
    comp: Rgp,
    fixed: Sequence[str],
    budget: SearchBudget,
) -> dict[str, str] | None:
    """An endomorphism of comp fixing the given vertices that is not a
    bijection, if one exists."""
    values = sorted(comp.vertices)
    pins = set(fixed)
    index = {v: i for i, v in enumerate(values)}
    dom = [1 << index[v] if v in pins else (1 << len(values)) - 1
           for v in comp.vertices]
    rows = pair_rows(((a.src, a.dst) for a in comp.arcs), values)
    constraints = [(a.src, a.dst, rows) for a in comp.arcs]
    for f in iter_csp_solutions(comp.vertices, values, constraints, budget,
                                dom):
        if len(set(f.values())) != len(comp.vertices):
            return f
    return None


class TemplateKind(Enum):
    POLY_SINGLE_VERTEX_NO_LOOP = "PolySingleVertexNoLoop"
    POLY_LOOP_A = "PolyLoopA"
    POLY_LOOP_A_PLUS = "PolyLoopAPlus"
    POLY_SINGLE_EDGE_A = "PolySingleEdgeA"
    POLY_SINGLE_EDGE_A_PLUS = "PolySingleEdgeAPlus"
    NP_COMPLETE = "NPComplete"


@dataclass(frozen=True)
class TemplateClass:
    kind: TemplateKind
    # Cyclic vertex sequence in the a-subgraph, odd length; only for
    # NP_COMPLETE.
    odd_cycle: tuple[str, ...] | None = None


# Templates of at most this many vertices are proved cores by is_n_core
# before they are classified.  Larger ones are taken to be cores
# unchecked: only the O(|q|) shape refutations of
# classify_undirected_template run on them.
_RECHECK_LIMIT = 8


def _retract(q: Rgp, budget: SearchBudget) -> tuple[TemplateKind, tuple[str, ...]]:
    """The class of core(q) from O(|q|) shape tests, with the vertices
    of a retract of q in that class (one vertex, or the two ends of an
    'a' edge), or with an odd a-cycle of q for NP_COMPLETE.

    PreconditionError unless q is an undirected, connected, nonempty
    unary template.  The budget ticks once, by |V(q)| + |A(q)|.  No test
    checks whether q is a core: Hom(P, q) holds exactly when
    Hom(P, core(q)) does.  In order:

    1. An 'a' loop at w: q retracts onto the loop.
    2. An odd a-cycle of length 3 or more: so has core(q), NP-complete.
    3. A bipartite a-subgraph with an 'a' edge: q retracts onto its
       first 'a' edge in sorted order, each a-component 2-coloured onto
       its ends and each a+ edge sent back and forth along it.
    4. No 'a' edge: q retracts onto its first a+ loop or onto an a+ edge
       at its first vertex, or is a single bare vertex.
    """
    if not q.vertices or not is_undirected(q) or not is_connected(q):
        raise PreconditionError(
            "template must be undirected, connected and nonempty")
    _require_unary(q, "template")
    budget.tick(len(q.vertices) + len(q.arcs))
    _, odd = _two_coloring(q)
    if odd is not None:
        if len(odd) == 1:
            return TemplateKind.POLY_LOOP_A, odd
        return TemplateKind.NP_COMPLETE, odd
    for u, v, plussed in _undirected_edges(q):
        if not plussed:
            return TemplateKind.POLY_SINGLE_EDGE_A, (u, v)
    loops = tuple(arc.src for arc in q.arcs if arc.src == arc.dst)
    if loops:
        return TemplateKind.POLY_LOOP_A_PLUS, loops[:1]
    if q.arcs:
        return TemplateKind.POLY_SINGLE_EDGE_A_PLUS, q.vertices[:1]
    return TemplateKind.POLY_SINGLE_VERTEX_NO_LOOP, q.vertices[:1]


def solve_undirected(
    p: Rgp,
    q: Rgp,
    budget: SearchBudget | None = None,
) -> NHomomorphism | None:
    """Polynomial solver for undirected targets: the certificate of p
    into the retract of q that the shape tests of _retract name, or
    None.  The retract is one vertex, which every vertex of p maps to,
    or the two ends of an 'a' edge, onto which p's a-subgraph is
    2-coloured, side 0 to the first end.  It is a sub-pattern of q, so
    its walks are walks of q, and the witnesses come from q's walk
    relations.  PreconditionError when q is not an undirected,
    connected, nonempty unary template or has an odd a-cycle, or when p
    is not an undirected unary pattern over q's symbol."""
    budget = budget or SearchBudget()
    kind, ends = _retract(q, budget)
    if kind is TemplateKind.NP_COMPLETE:
        raise PreconditionError(
            "template has an odd a-cycle: outside the polynomial classes")
    budget.tick(len(p.vertices) + len(p.arcs))
    _require_same_symbol(p, q)
    if not is_undirected(p):
        raise PreconditionError("pattern must be undirected")
    if kind is TemplateKind.POLY_SINGLE_EDGE_A:
        side = _two_coloring(p)[0]
    else:
        # One vertex: an 'a' loop takes every pattern, an a+ loop or
        # edge the all-a+ ones, a bare vertex the arcless ones.
        if kind is TemplateKind.POLY_LOOP_A:
            fits = True
        elif kind is TemplateKind.POLY_SINGLE_VERTEX_NO_LOOP:
            fits = not p.arcs
        else:
            fits = all(not isinstance(arc.label, Sym) for arc in p.arcs)
        side = dict.fromkeys(p.vertices, 0) if fits else None
    if side is None:
        return None
    mapping = {v: ends[side[v]] for v in p.vertices}
    relations = label_relations(p, q, budget)
    arc_relations = [relations[arc.label] for arc in p.arcs]
    return NHomomorphism(mapping=mapping, witnesses=witness_walks(
        p, mapping, arc_relations, budget))


def classify_undirected_template(
    q: Rgp,
    budget: SearchBudget | None = None,
) -> TemplateClass:
    """Sort an undirected connected core template into its complexity
    class: one of five single-edge-or-less polynomial shapes, or
    NP-complete with an odd a-cycle as the hardness witness.

    A template of at most _RECHECK_LIMIT vertices is first proved a
    core by is_n_core; a larger one is taken to be a core unchecked.
    Two shape refutations run at every size and raise
    PreconditionError: a loop alongside another edge (audit item b: q
    retracts onto an 'a' loop, and an a+ loop maps onto a walk through
    another edge at its vertex), and two or more edges with a bipartite
    a-subgraph (q retracts onto one of them).  A
    larger non-core template that passes both has an odd a-cycle, and
    so does its core: it is reported NP-complete, with the cycle taken
    from q.  The class itself is the one _retract reads off q's shape,
    which refuses an empty template.
    """
    budget = budget or SearchBudget()
    kind, ends = _retract(q, budget)
    if len(q.vertices) <= _RECHECK_LIMIT and not is_n_core(q, budget).is_core:
        raise PreconditionError("template is not a core")
    edges = _undirected_edges(q)
    if len(edges) > 1 and any(u == v for u, v, _ in edges):
        raise PreconditionError(
            "template with a loop alongside another edge is not a core")
    if kind is TemplateKind.NP_COMPLETE:
        return TemplateClass(kind, odd_cycle=ends)
    if len(edges) > 1:
        raise PreconditionError(
            "multi-edge template with bipartite a-subgraph is not a core")
    return TemplateClass(kind)


def _two_coloring(
    q: Rgp,
) -> tuple[dict[str, int] | None, tuple[str, ...] | None]:
    """Breadth-first 2-coloring of q's a-subgraph, roots in q.vertices
    order and neighbours in sorted order: (side of every vertex, None),
    with a+-only vertices on side 0, or (None, an odd closed walk) when
    the a-subgraph is not bipartite.  An 'a' loop is such a walk."""
    for arc in q.arcs:
        if isinstance(arc.label, Sym) and arc.src == arc.dst:
            return None, (arc.src,)
    adj = _a_edge_adjacency(q)
    side: dict[str, int] = {}
    parent: dict[str, str | None] = {}
    for root in q.vertices:
        if root in side:
            continue
        side[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in sorted(adj[v]):
                if w not in side:
                    side[w] = side[v] ^ 1
                    parent[w] = v
                    queue.append(w)
                elif side[w] == side[v]:
                    return None, _close_walk(parent, v, w)
    return side, None


def _close_walk(parent, v, w) -> tuple[str, ...]:
    """Join the tree paths of the conflict edge (v, w) into an odd
    closed walk: root..v, then w..back to root (root listed once)."""
    up_v = [v]
    while parent[up_v[-1]] is not None:
        up_v.append(parent[up_v[-1]])
    up_w = [w]
    while parent[up_w[-1]] is not None:
        up_w.append(parent[up_w[-1]])
    return tuple(reversed(up_v)) + tuple(up_w[:-1])


# ---------------------------------------------------------------------------
# Directed-path targets, all arcs 'a': collapse, schedule


@dataclass(frozen=True)
class CollapsedPattern:
    """Result of collapse_levels: the merged pattern plus the map from
    original vertices to their merged representative."""

    rgp: Rgp
    vertex_map: dict[str, str]


def _vertex_a_components(p: Rgp) -> list[list[str]]:
    """Components of the spanning a-edge subgraph, isolated vertices
    included, each listed in p.vertices order and ordered by its first
    member."""
    adj = _a_edge_adjacency(p)
    root_of: dict[str, str] = {}
    for root in p.vertices:
        if root not in root_of:
            for v in _reach(adj, (root,)):
                root_of[v] = root
    components: dict[str, list[str]] = {}
    for v in p.vertices:
        components.setdefault(root_of[v], []).append(v)
    return list(components.values())


def collapse_levels(p: Rgp) -> CollapsedPattern:
    """First simplification against a directed-path target.

    Within one a-component, every vertex of a given level must share
    its image, so such vertices merge into one (named after the first
    original member). Each merged a-component is then a directed path.
    A forward a+ arc inside a component is satisfied automatically and
    is dropped; a non-forward one closes a directed cycle, so it is
    reported as NotAcyclicError, as is any directed cycle in p itself.
    The a-subgraph must admit a leveling, else NotBalancedError.
    """
    _require_unary(p, "pattern")
    if not _is_acyclic(p):
        raise NotAcyclicError("pattern has a directed cycle")
    a_arcs = [(a.src, a.dst, "a") for a in p.arcs if isinstance(a.label, Sym)]
    a_sub = make_rgp(("a",), p.vertices, a_arcs)
    levels, _ = _leveling(a_sub)
    if levels is None:
        raise NotBalancedError("a-subgraph admits no leveling")

    comp_of: dict[str, int] = {}
    vertex_map: dict[str, str] = {}
    merged_order: list[str] = []
    for i, component in enumerate(_vertex_a_components(p)):
        groups: dict[int, str] = {}
        for v in component:
            comp_of[v] = i
            rep = groups.setdefault(levels[v], v)
            vertex_map[v] = rep
        for level in sorted(groups):
            merged_order.append(groups[level])

    arcs: list[tuple[str, str, RegexAst]] = []
    emitted = set()
    for arc in p.arcs:
        src, dst = vertex_map[arc.src], vertex_map[arc.dst]
        if (not isinstance(arc.label, Sym)
                and comp_of[arc.src] == comp_of[arc.dst]):
            if levels[arc.src] < levels[arc.dst]:
                continue
            raise NotAcyclicError(
                f"a+ arc {arc.src!r}->{arc.dst!r} closes a cycle after merging")
        key = (src, dst, arc.label)
        if key not in emitted:
            emitted.add(key)
            arcs.append(key)
    merged = make_rgp(p.alphabet, merged_order, arcs)
    return CollapsedPattern(rgp=merged, vertex_map=vertex_map)


def _component_paths(p: Rgp) -> list[list[str]]:
    """The a-components of p, each required to be a directed path,
    listed source to sink."""
    components = _vertex_a_components(p)
    comp_of = {v: i for i, members in enumerate(components) for v in members}
    succ: dict[str, str] = {}
    indeg: Counter[str] = Counter()
    for arc in p.arcs:
        if not isinstance(arc.label, Sym):
            continue
        if arc.src in succ and succ[arc.src] != arc.dst:
            raise PreconditionError("a-component is not a directed path")
        succ[arc.src] = arc.dst
        indeg[arc.dst] += 1
    paths = []
    for component in components:
        starts = [v for v in component if indeg[v] == 0]
        if len(starts) != 1:
            raise PreconditionError("a-component is not a directed path")
        path = [starts[0]]
        seen = {starts[0]}
        while path[-1] in succ:
            nxt = succ[path[-1]]
            if comp_of[nxt] != comp_of[path[0]] or nxt in seen:
                raise PreconditionError("a-component is not a directed path")
            path.append(nxt)
            seen.add(nxt)
        if len(path) != len(component):
            raise PreconditionError("a-component is not a directed path")
        paths.append(path)
    return paths


def _path_positions(
    paths: list[list[str]],
) -> tuple[dict[str, int], dict[str, int]]:
    """Each vertex's component index and 1-based position along its
    path."""
    comp_of: dict[str, int] = {}
    pos: dict[str, int] = {}
    for c, path in enumerate(paths):
        for k, v in enumerate(path, start=1):
            comp_of[v] = c
            pos[v] = k
    return comp_of, pos


def prune_plus_arcs(p_prime: "Rgp | CollapsedPattern") -> Rgp | None:
    """Second simplification: between each ordered pair of a-path
    components keep only the dominant a+ arc, the one maximizing
    i - j over 1-based source and target positions. Intra-component
    a+ arcs are dropped when strictly forward and make the instance
    infeasible (None) otherwise.
    """
    p = p_prime.rgp if isinstance(p_prime, CollapsedPattern) else p_prime
    _require_unary(p, "pattern")
    comp_of, pos = _path_positions(_component_paths(p))

    best: dict[tuple[int, int], tuple[int, int]] = {}
    kept_a: list[int] = []
    for idx, arc in enumerate(p.arcs):
        if isinstance(arc.label, Sym):
            kept_a.append(idx)
            continue
        ci, cj = comp_of[arc.src], comp_of[arc.dst]
        if ci == cj:
            if pos[arc.src] >= pos[arc.dst]:
                return None
            continue
        gap = pos[arc.src] - pos[arc.dst]
        cur = best.get((ci, cj))
        if cur is None or gap > cur[0]:
            best[(ci, cj)] = (gap, idx)
    keep = set(kept_a) | {idx for _, idx in best.values()}
    arcs = [(a.src, a.dst, a.label)
            for i, a in enumerate(p.arcs) if i in keep]
    return make_rgp(p.alphabet, p.vertices, arcs)


@dataclass(frozen=True)
class SchedulingInstance:
    """Feasibility instance: every job C runs for duration[C] unit
    steps, must finish by horizon, and each constraint (C1, C2, r)
    demands t(C1) <= t(C2) + r. Pairs without a constraint are free."""

    jobs: tuple[str, ...]
    durations: dict[str, int] = field(hash=False)
    constraints: tuple[tuple[str, str, int], ...] = ()
    horizon: int = 0


def to_scheduling(p2: Rgp, n: int) -> SchedulingInstance:
    """Translate a collapsed pattern into job scheduling against an
    n-vertex all-'a' path.

    One job per a-path component, with the component's arc count as
    duration. An a+ arc u_i -> v_j between two components becomes the
    deadline t(C1) <= t(C2) + (j - i - 1): the walk needs the source's
    image strictly before the target's. Of the deadlines between two
    components only the tightest is kept.
    """
    if n < 1:
        raise PreconditionError("target path needs at least one vertex")
    paths = _component_paths(p2)
    comp_of, pos = _path_positions(paths)
    jobs = tuple(path[0] for path in paths)
    durations = {path[0]: len(path) - 1 for path in paths}
    tightest: dict[tuple[int, int], int] = {}
    for arc in p2.arcs:
        if isinstance(arc.label, Sym):
            continue
        ci, cj = comp_of[arc.src], comp_of[arc.dst]
        if ci == cj:
            raise PreconditionError("intra-component a+ arc; prune first")
        r = pos[arc.dst] - pos[arc.src] - 1
        key = (ci, cj)
        tightest[key] = min(tightest.get(key, r), r)
    constraints = tuple(
        (jobs[ci], jobs[cj], r)
        for (ci, cj), r in sorted(tightest.items()))
    return SchedulingInstance(jobs=jobs, durations=durations,
                              constraints=constraints, horizon=n - 1)


@dataclass(frozen=True)
class ScheduleResult:
    feasible: bool
    start_times: dict[str, int] | None = None
    # Difference-constraint edges (from, to, weight) forming a cycle
    # whose weights sum below zero; set only when infeasible.
    negative_cycle: tuple[tuple[str, str, int], ...] | None = None


def solve_scheduling(inst: SchedulingInstance,
                     budget: SearchBudget | None = None) -> ScheduleResult:
    """Feasibility via single-source shortest paths.

    Each job's start is bounded by 0 <= t(C) and t(C) <= horizon - d(C),
    and each deadline is the difference constraint t(C1) - t(C2) <= r.
    All of them become weighted edges from a root pseudo-job; the
    system is feasible exactly when no negative cycle exists, and the
    shortest-path distances (shifted so the root sits at zero) are the
    componentwise latest valid start times.  The budget ticks once per
    relaxation pass over the edges, the final negative-cycle check
    included.
    """
    budget = budget or SearchBudget()
    root = ""
    while root in inst.jobs:
        root += "_"
    nodes = [root, *inst.jobs]
    edges = [(root, job, inst.horizon - inst.durations[job])
             for job in inst.jobs]
    edges += [(job, root, 0) for job in inst.jobs]
    edges += [(c2, c1, r) for c1, c2, r in inst.constraints]

    dist = {v: 0 if v == root else None for v in nodes}
    pred: dict[str, tuple[str, str, int] | None] = {v: None for v in nodes}
    for _ in range(len(nodes) - 1):
        budget.tick()
        changed = False
        for u, v, w in edges:
            if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
                dist[v] = dist[u] + w
                pred[v] = (u, v, w)
                changed = True
        if not changed:
            break
    budget.tick()
    for u, v, w in edges:
        if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
            return ScheduleResult(False, negative_cycle=_extract_cycle(pred, u, v, w, nodes))
    starts = {job: dist[job] - dist[root] for job in inst.jobs}
    return ScheduleResult(True, start_times=starts)


def _extract_cycle(pred, u, v, w, nodes) -> tuple[tuple[str, str, int], ...]:
    """Walk predecessor edges back from a still-relaxable edge until a
    node repeats, then cut out the cycle."""
    pred = dict(pred)
    pred[v] = (u, v, w)
    node = v
    for _ in range(len(nodes)):
        node = pred[node][0]
    cycle = []
    cursor = node
    while True:
        edge = pred[cursor]
        cycle.append(edge)
        cursor = edge[0]
        if cursor == node:
            break
    cycle.reverse()
    return tuple(cycle)


# ---------------------------------------------------------------------------
# Directed-path targets with {a, a+} labels


def solve_path_template(
    p: Rgp,
    q: Rgp,
    budget: SearchBudget | None = None,
) -> NHomomorphism | None:
    """Polynomial solver for directed-path targets.

    All-'a' targets run collapse -> scheduling, which keeps the tightest
    a+ arc between two components, and rebuild the map from start times
    (position k of job C lands on path vertex t(C)+k-1). Mixed {a, a+}
    targets go through the two-labeled reduction and
    path_consistency_solve. In either case each witness walk is the
    stretch of the path between the images of its arc's ends.
    """
    order = directed_path_order(q)
    if order is None:
        raise PreconditionError("target is not a directed path")
    kind = _require_same_symbol(p, q).kind
    if not p.vertices:
        return NHomomorphism({}, {})
    if not q.vertices:
        return None

    budget = budget or SearchBudget()
    if kind is LabelKind.UNARY_A_APLUS:
        pattern, template = reduce_to_hom(p, q, budget)
        mapping = path_consistency_solve(pattern, template, budget)
        if mapping is None:
            return None
        return _path_witnesses(p, q, order, mapping, budget)

    try:
        collapsed = collapse_levels(p)
    except (NotAcyclicError, NotBalancedError):
        return None
    result = solve_scheduling(to_scheduling(collapsed.rgp, len(q.vertices)),
                              budget)
    if not result.feasible:
        return None
    paths = _component_paths(collapsed.rgp)
    index: dict[str, int] = {}
    for path in paths:
        start = result.start_times[path[0]]
        for k, v in enumerate(path, start=1):
            index[v] = start + k - 1
    mapping = {v: order[index[collapsed.vertex_map[v]]] for v in p.vertices}
    return _path_witnesses(p, q, order, mapping, budget)


def _path_witnesses(p: Rgp, q: Rgp, order: Sequence[str],
                    mapping: Mapping[str, str],
                    budget: SearchBudget) -> NHomomorphism:
    """The certificate of a map into the directed path q, whose vertices
    run in order: each pattern arc's witness is the stretch of the path
    from the image of its tail to the image of its head.

    A directed path has no loops and no parallel arcs, so that stretch
    is the only walk between the two, and the one the walk engine finds.
    An arc whose stretch is empty, or an 'a' arc whose stretch is not
    one arc labelled 'a', has no witness: KeyError, as
    WalkRelation.witness raises on a pair outside its relation.  The
    budget ticks once per arc of each witness.
    """
    position = {v: k for k, v in enumerate(order)}
    leaving = {arc.src: k for k, arc in enumerate(q.arcs)}
    along = [leaving[v] for v in order[:-1]]
    witnesses = {}
    for i, arc in enumerate(p.arcs):
        u, v = mapping[arc.src], mapping[arc.dst]
        walk = tuple(along[position[u]:position[v]])
        if not walk or (isinstance(arc.label, Sym) and (
                len(walk) != 1 or q.arcs[walk[0]].label != arc.label)):
            raise KeyError((u, v))
        budget.tick(len(walk))
        witnesses[i] = walk
    return NHomomorphism(mapping=dict(mapping), witnesses=witnesses)


# ---------------------------------------------------------------------------
# Majority polymorphism and path consistency


@dataclass(frozen=True)
class MajorityTable:
    """An explicit ternary operation on a vertex set."""

    vertices: tuple[str, ...]
    table: dict[tuple[str, str, str], str] = field(hash=False)

    def __call__(self, x: str, y: str, z: str) -> str:
        return self.table[(x, y, z)]


def median_table(order: Sequence[str]) -> MajorityTable:
    """The median operation induced by a vertex order."""
    index = {v: i for i, v in enumerate(order)}
    table = {}
    for x in order:
        for y in order:
            for z in order:
                mid = sorted((index[x], index[y], index[z]))[1]
                table[(x, y, z)] = order[mid]
    return MajorityTable(tuple(order), table)


def median_polymorphism(q: Rgp) -> MajorityTable:
    """The median over a directed-path template's natural vertex order.

    For such templates this is a majority polymorphism of d_of_q(q),
    which is what makes the fragment polynomial.
    """
    order = directed_path_order(q)
    if order is None:
        raise PreconditionError("target is not a directed path")
    return median_table(order)


def is_majority_polymorphism(d: TwoLabeledDigraph, f: MajorityTable) -> bool:
    """Exhaustively check the majority identities and that f maps every
    same-labeled arc triple of d to an arc with that label."""
    if set(f.vertices) != set(d.vertices):
        raise PreconditionError("table and digraph vertex sets differ")
    for x in d.vertices:
        for y in d.vertices:
            if not f(x, x, y) == f(x, y, x) == f(y, x, x) == x:
                return False
    for arcs in (d.a_arcs, d.t_arcs):
        pairs = sorted(arcs)
        for x1, y1 in pairs:
            for x2, y2 in pairs:
                for x3, y3 in pairs:
                    if (f(x1, x2, x3), f(y1, y2, y3)) not in arcs:
                        return False
    return True


def path_consistency_solve(
    g: TwoLabeledDigraph,
    h: TwoLabeledDigraph,
    budget: SearchBudget | None = None,
) -> dict[str, str] | None:
    """Homomorphism g -> h that is complete whenever h has a majority
    polymorphism.

    A greedy arc-consistency probe runs first.  Domains are bitmasks
    over h's vertices in sorted-name order, and the 'a' and 't' arcs of
    g become bitset constraints, made arc consistent by csp._root.
    An empty domain there means there is no homomorphism.  Otherwise
    each vertex of g, in g.vertices order, takes the lowest value whose
    propagation empties no domain.  When every vertex gets one, the map
    is the lexicographically first homomorphism: arc consistency never
    rejects that map's value, so a lower value that survives would lead
    to a smaller homomorphism.  When h is a directed-path template, both
    of its relations are min-closed in path order, so arc consistency
    decides every instance (Jeavons and Cooper, AIJ 1995) and the probe
    never meets a dead end.

    At a dead end the pairwise network (one allowed-value relation per
    pair of g's vertices, plus domains) is closed once under
    (2,3)-consistency by a bitset worklist (_PcNetwork.close).  A
    majority polymorphism of h preserves every relation the closure
    derives, so the closed network is globally consistent, and the
    lexicographically first map is read off it without search.  Without
    a majority polymorphism a returned map is still a homomorphism, but
    None may be a false negative.  The budget ticks once per arc
    revision and value tried in the probe, and once per pair revision
    in the closure.
    """
    budget = budget or SearchBudget()
    values, constraints = _arc_constraints(g, h)
    root = _root(g.vertices, values, constraints, budget)
    if root is None:
        return None
    dom, support = root
    for x in range(len(dom)):
        rest = dom[x]
        if not rest & (rest - 1):
            continue  # one value left, and the network is arc consistent
        while rest:
            low = rest & -rest
            rest ^= low
            budget.tick()
            trail = [(x, dom[x])]
            dom[x] = low
            if _propagate(dom, support, (x,), budget, trail):
                break
            for y, old in reversed(trail):
                dom[y] = old
        else:
            net = _PcNetwork(g.vertices, values, constraints)
            if not net.close(budget):
                return None
            return net.first_solution()
    return {v: values[mask.bit_length() - 1]
            for v, mask in zip(g.vertices, dom)}


class _PcNetwork:
    """Domains and pairwise relations over bit-indexed template values.

    Variables are names, in order, and value i is values[i]; each
    constraint (x, y, Rows) is as the CSP takes it.  dom[x] is a bitmask
    of values; rel[x][y][u] is the bitmask of values w allowed for y when
    x takes u, and rel[y][x] is always its transpose.  loose[x][y]
    records that rel[x][y] is the full product of the two domains.
    Composing through z with a loose rel[x][z] gives dom[x] times the
    image of dom[z] under rel[z][y], which is dom[y] once the pair
    (z, y) is closed, so it prunes nothing the domains do not.
    """

    def __init__(self, names: Sequence[str], values: Sequence[str],
                 constraints: Iterable[tuple[str, str, Rows]]):
        self.names, self.values = names, values
        n, d = len(names), len(values)
        var = {v: i for i, v in enumerate(names)}
        full = (1 << d) - 1
        self.dom = [full] * n
        self.rel: list[list[list[int]]] = [
            [[full] * d for _ in range(n)] for _ in range(n)]
        self.loose = [[True] * n for _ in range(n)]
        for x, y, masks in constraints:
            i, j = var[x], var[y]
            if i == j:
                self.dom[i] &= masks.loops
                continue
            rows, cols = masks.rows, masks.cols
            for u in range(d):
                self.rel[i][j][u] &= rows[u]
                self.rel[j][i][u] &= cols[u]
            self.loose[i][j] = self.loose[j][i] = False

    def close(self, budget: SearchBudget) -> bool:
        """Shrink the network to its greatest (2,3)-consistent
        subnetwork; False when a domain empties.

        A pair is revised when it is first queued and again only after
        a relation it composes with changed; a revision that changes
        rel[x][y] (or, with it, a domain) queues every other pair that
        has x or y as an end.
        """
        n = len(self.names)
        dom, rel, loose = self.dom, self.rel, self.loose
        queue = deque((x, y) for x in range(n) for y in range(x + 1, n))
        queued = [[True] * n for _ in range(n)]
        while queue:
            x, y = queue.popleft()
            queued[x][y] = False
            budget.tick()
            old = rel[x][y]
            dx, dy = dom[x], dom[y]
            new = [row & dy if dx >> u & 1 else 0 for u, row in enumerate(old)]
            for z in range(n):
                if z == x or z == y or loose[x][z] or loose[z][y]:
                    continue
                xz, zy = rel[x][z], rel[z][y]
                for u, row in enumerate(new):
                    if row:
                        reach = 0
                        for m in _bits(xz[u] & dom[z]):
                            reach |= zy[m]
                        new[u] = row & reach
            new_dx = new_dy = 0
            for u, row in enumerate(new):
                if row:
                    new_dx |= 1 << u
                    new_dy |= row
            if not new_dx:
                return False
            if new == old and new_dx == dx and new_dy == dy:
                continue
            dom[x], dom[y] = new_dx, new_dy
            rel[x][y] = new
            rel[y][x] = _transpose(new)
            loose[x][y] = loose[y][x] = all(row == new_dy for row in new if row)
            for w in range(n):
                if w == x or w == y:
                    continue
                for a, b in ((x, w), (y, w)):
                    if a > b:
                        a, b = b, a
                    if not queued[a][b]:
                        queued[a][b] = True
                        queue.append((a, b))
        return all(dom)

    def first_solution(self) -> dict[str, str] | None:
        """Each variable in order takes the lowest value that the
        relations with every earlier choice allow."""
        chosen: list[int] = []
        for x, mask in enumerate(self.dom):
            for y, u in enumerate(chosen):
                mask &= self.rel[y][x][u]
            if not mask:
                return None
            chosen.append((mask & -mask).bit_length() - 1)
        return {v: self.values[u] for v, u in zip(self.names, chosen)}
