"""Witness-walk search inside a target pattern.

A pattern arc labeled E maps onto a walk W of the target only when
every word readable along W belongs to L(E). The search determinizes
E and runs a BFS over nodes (S, v) where S is the set of DFA states
reachable by reading any word of the walk so far and v is the current
vertex. Traversing an arc labeled B sends S to the union of the exact
images of its states under words of L(B), which is deterministic, so
each walk yields one node and a walk qualifies exactly when its final
S contains only accepting states. Nodes number at most 2^d * |V| for
a d-state DFA, which bounds the length of returned walks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from collections import deque

from .automata import Dfa, Nfa, compile_nfa, determinize
from .errors import PreconditionError, SearchBudget
from .regexes import RegexAst
from .rgp import Rgp


@dataclass(frozen=True)
class WalkRelation:
    """All vertex pairs of a target joinable by a walk matching a label,
    each with one shortest witness walk (ties broken by arc index)."""

    label: RegexAst
    target: Rgp
    pairs: frozenset[tuple[str, str]]
    witnesses: dict[tuple[str, str], tuple[int, ...]]
    dfa_states: int


_relation_cache: dict[tuple[RegexAst, Rgp], WalkRelation] = {}
_relation_lock = threading.Lock()


def clear_relation_cache() -> None:
    with _relation_lock:
        _relation_cache.clear()


def walk_length_bound(q: Rgp, e: RegexAst) -> int:
    """2^d * |V(q)| where d counts the states of the label's DFA."""
    dfa = determinize(compile_nfa(e), q.alphabet)
    return (2 ** dfa.n_states) * len(q.vertices)


class _Engine:
    """Per-(target, label) search state shared by the BFS entry points."""

    def __init__(self, q: Rgp, e: RegexAst, budget: SearchBudget):
        self.q = q
        self.dfa = determinize(compile_nfa(e), q.alphabet)
        self.out: dict[str, list[tuple[int, str, int]]] = {v: [] for v in q.vertices}
        labels: dict[RegexAst, int] = {}
        self.images: list[list[frozenset[int]]] = []
        for i, arc in enumerate(q.arcs):
            if arc.label not in labels:
                labels[arc.label] = len(self.images)
                self.images.append(
                    self._label_images(compile_nfa(arc.label), budget))
            self.out[arc.src].append((i, arc.dst, labels[arc.label]))

    def _label_images(self, nfa: Nfa,
                      budget: SearchBudget) -> list[frozenset[int]]:
        """images[s] = every DFA state reachable from s by a word of the
        arc label's language, via BFS over the product automaton; one
        budget tick per DFA state."""
        result = []
        for start in range(self.dfa.n_states):
            budget.tick()
            seen = {(start, nfa.initial)}
            queue = deque(seen)
            image = set()
            while queue:
                d, b = queue.popleft()
                if b in nfa.accepting:
                    image.add(d)
                for ch, targets in nfa.trans[b].items():
                    d2 = self.dfa.step(d, ch)
                    for b2 in targets:
                        if (d2, b2) not in seen:
                            seen.add((d2, b2))
                            queue.append((d2, b2))
            result.append(frozenset(image))
        return result

    def search(
        self,
        source: str,
        stop_at: str | None,
        budget: SearchBudget,
    ) -> dict[str, tuple[int, ...]]:
        """BFS from source; returns the first qualifying walk per target
        vertex (all targets, or just stop_at when given)."""
        accepting = self.dfa.accepting
        start = (frozenset((self.dfa.initial,)), source)
        parents: dict[tuple[frozenset[int], str], tuple[tuple[frozenset[int], str], int]] = {}
        seen = {start}
        queue = deque([start])
        found: dict[str, tuple[int, ...]] = {}
        while queue:
            node = queue.popleft()
            budget.tick()
            states, vertex = node
            if node != start and vertex not in found and states <= accepting:
                found[vertex] = self._walk_to(parents, start, node)
                if stop_at is not None and vertex == stop_at:
                    return found
                if len(found) == len(self.q.vertices):
                    return found
            for arc_index, dst, label_id in self.out[vertex]:
                images = self.images[label_id]
                nxt_states = frozenset(
                    t for s in states for t in images[s])
                nxt = (nxt_states, dst)
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = (node, arc_index)
                    queue.append(nxt)
        return found

    @staticmethod
    def _walk_to(parents, start, node) -> tuple[int, ...]:
        walk: list[int] = []
        while node != start:
            node, arc_index = parents[node]
            walk.append(arc_index)
        return tuple(reversed(walk))


def find_walk(
    q: Rgp,
    u: str,
    v: str,
    e: RegexAst,
    budget: SearchBudget | None = None,
) -> tuple[int, ...] | None:
    """A shortest walk from u to v every word of which matches e, or None."""
    for vertex in (u, v):
        if vertex not in q.vertices:
            raise PreconditionError(f"vertex {vertex!r} not in target")
    use_budget = budget or SearchBudget()
    engine = _Engine(q, e, use_budget)
    found = engine.search(u, v, use_budget)
    return found.get(v)


def relation_for_label(
    q: Rgp,
    e: RegexAst,
    budget: SearchBudget | None = None,
) -> WalkRelation:
    """The full walk relation for a label over a target, memoized per
    structurally equal (label, target) pair."""
    key = (e, q)
    with _relation_lock:
        cached = _relation_cache.get(key)
    if cached is not None:
        return cached
    use_budget = budget or SearchBudget()
    engine = _Engine(q, e, use_budget)
    pairs = set()
    witnesses: dict[tuple[str, str], tuple[int, ...]] = {}
    for u in q.vertices:
        for v, walk in engine.search(u, None, use_budget).items():
            pairs.add((u, v))
            witnesses[(u, v)] = walk
    relation = WalkRelation(
        label=e,
        target=q,
        pairs=frozenset(pairs),
        witnesses=witnesses,
        dfa_states=engine.dfa.n_states,
    )
    with _relation_lock:
        _relation_cache[key] = relation
    return relation
