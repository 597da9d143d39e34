"""Navigational homomorphisms between regex-labeled digraphs.

A navigational homomorphism from P to Q maps every vertex of P to a
vertex of Q so that each arc (x, y) with label E has a witness: a
nonempty walk in Q from f(x) to f(y) whose concatenated arc labels
denote a language contained in L(E).

The solver first computes, per distinct pattern label, the relation of
target vertex pairs joined by such a walk (see walks.relation_for_label)
and then searches for a vertex map satisfying all arcs as a binary
constraint network. Certificates carry the map plus one witness walk
per pattern arc, as target arc index sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .csp import solve_csp
from .errors import PreconditionError, SearchBudget
from .languages import concat_inclusion
from .regexes import RegexAst
from .rgp import Rgp, delete_arc, delete_vertex, is_walk, walk_endpoints
from .walks import WalkRelation, relation_for_label, witness_walks


@dataclass
class NHomomorphism:
    """A vertex map with one witness walk per pattern arc.

    witnesses[i] is the walk, as a tuple of target arc indices, that
    serves pattern arc i.
    """

    mapping: dict[str, str]
    witnesses: dict[int, tuple[int, ...]]

    def to_json(self) -> dict[str, Any]:
        return {
            "map": dict(self.mapping),
            "witnesses": {str(i): list(w) for i, w in sorted(self.witnesses.items())},
        }

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "NHomomorphism":
        """Read a certificate in the form to_json writes: map takes
        strings to strings, each witness key is the decimal form of a
        non-negative int, and each witness is a list of ints. Anything
        else raises PreconditionError; nothing is coerced."""
        if not isinstance(doc, Mapping) or "map" not in doc or "witnesses" not in doc:
            raise PreconditionError("certificate must have 'map' and 'witnesses'")
        mapping, witnesses = doc["map"], doc["witnesses"]
        if not isinstance(mapping, Mapping) or not isinstance(witnesses, Mapping):
            raise PreconditionError("'map' and 'witnesses' must be objects")
        if not all(type(k) is str and type(v) is str for k, v in mapping.items()):
            raise PreconditionError("'map' must take strings to strings")
        walks = {}
        for key, walk in witnesses.items():
            if not (type(key) is str and key.isdecimal() and key == str(int(key))):
                raise PreconditionError(f"witness key {key!r} is not an arc index")
            # bool is a subclass of int, so the type is compared exactly.
            if type(walk) is not list or any(type(a) is not int for a in walk):
                raise PreconditionError(f"witness {key} is not a list of ints")
            walks[int(key)] = tuple(walk)
        return cls(mapping=dict(mapping), witnesses=walks)


def label_relations(
    p: Rgp,
    q: Rgp,
    budget: SearchBudget | None = None,
) -> dict[RegexAst, WalkRelation]:
    """Walk relations over q for every distinct arc label of p."""
    labels = dict.fromkeys(arc.label for arc in p.arcs)
    return {e: relation_for_label(q, e, budget) for e in labels}


def n_hom(
    p: Rgp,
    q: Rgp,
    budget: SearchBudget | None = None,
) -> NHomomorphism | None:
    """Find a navigational homomorphism from p to q, or None.

    Deterministic: the same inputs yield the same certificate. Raises
    BudgetExceededError when the search budget runs out before an
    answer is reached.
    """
    budget = budget or SearchBudget()
    if not p.vertices:
        return NHomomorphism({}, {})
    if not q.vertices:
        return None
    relations = label_relations(p, q, budget)
    arc_relations = [relations[label] for _, _, label in p.arcs]

    # The CSP's values are the relations' names, every domain is all of
    # them, and each relation goes in as the Rows it is.
    constraints = [(src, dst, relation) for (src, dst, _), relation
                   in zip(p.arcs, arc_relations)]
    mapping = solve_csp(p.vertices, sorted(q.vertices), constraints, budget)
    if mapping is None:
        return None
    witnesses = witness_walks(p, mapping, arc_relations, budget)
    return NHomomorphism(mapping=mapping, witnesses=witnesses)


def verify_n_hom(p: Rgp, q: Rgp, h: NHomomorphism,
                 budget: SearchBudget | None = None) -> bool:
    """Check a certificate against first principles.

    The map must be total from V(p) to V(q), and each pattern arc's
    witness must be a nonempty walk in q with matching endpoints whose
    label concatenation is contained in the arc's label language. A
    certificate with a map key outside V(p) or a witness index outside
    the pattern's arc indices is rejected. The inclusion checks share
    one budget, and each distinct one is decided once.
    """
    budget = budget or SearchBudget()
    if not set(h.mapping) <= set(p.vertices):
        return False
    if not set(h.witnesses) <= set(range(len(p.arcs))):
        return False
    targets = set(q.vertices)
    for v in p.vertices:
        if h.mapping.get(v) not in targets:
            return False
    decided: dict[tuple[tuple[RegexAst, ...], RegexAst], bool] = {}
    for i, arc in enumerate(p.arcs):
        walk = h.witnesses.get(i)
        if not walk or not is_walk(q, walk):
            return False
        start, end = walk_endpoints(q, walk)
        if start != h.mapping[arc.src] or end != h.mapping[arc.dst]:
            return False
        key = (tuple(q.arcs[j].label for j in walk), arc.label)
        holds = decided.get(key)
        if holds is None:
            holds = decided[key] = concat_inclusion(
                key[0], arc.label, budget).holds
        if not holds:
            return False
    return True


def compose_n_hom(h1: NHomomorphism, h2: NHomomorphism) -> NHomomorphism:
    """Compose certificates: h1 from P to Q, h2 from Q to R.

    Each Q-arc index inside an h1 witness is replaced by the h2 witness
    for that arc; containment composes, so the result certifies P to R.
    """
    mapping = {x: h2.mapping[u] for x, u in h1.mapping.items()}
    witnesses = {}
    for i, walk in h1.witnesses.items():
        spliced: list[int] = []
        for j in walk:
            spliced.extend(h2.witnesses[j])
        witnesses[i] = tuple(spliced)
    return NHomomorphism(mapping=mapping, witnesses=witnesses)


@dataclass
class NCoreVerdict:
    """Outcome of a core check.

    When is_core is False, exactly one of removed_arc or removed_vertex
    names what was deleted, sub is the proper sub-pattern kept, and
    retraction certifies the homomorphism onto it.
    """

    is_core: bool
    removed_arc: int | None = None
    removed_vertex: str | None = None
    sub: Rgp | None = None
    retraction: NHomomorphism | None = None


def is_n_core(p: Rgp, budget: SearchBudget | None = None) -> NCoreVerdict:
    """Decide whether p has no homomorphism into a proper sub-pattern.

    It suffices to test the maximal proper sub-patterns: each single
    arc deletion, plus each single isolated vertex deletion (deleting
    a non-isolated vertex is subsumed by deleting one of its arcs).
    """
    budget = budget or SearchBudget()
    if len(p.vertices) > 1:
        degree = {v: 0 for v in p.vertices}
        for arc in p.arcs:
            degree[arc.src] += 1
            degree[arc.dst] += 1
        for v in p.vertices:
            if degree[v] == 0:
                sub = delete_vertex(p, v)
                anchor = sub.vertices[0]
                mapping = {u: (anchor if u == v else u) for u in p.vertices}
                witnesses = {i: (i,) for i in range(len(p.arcs))}
                return NCoreVerdict(
                    is_core=False,
                    removed_vertex=v,
                    sub=sub,
                    retraction=NHomomorphism(mapping, witnesses),
                )
    for i in range(len(p.arcs)):
        sub = delete_arc(p, i)
        h = n_hom(p, sub, budget)
        if h is not None:
            return NCoreVerdict(is_core=False, removed_arc=i, sub=sub, retraction=h)
    return NCoreVerdict(is_core=True)
