"""Enumeration-based oracles used to check the automata pipeline.

Everything here evaluates regex semantics directly on the AST, without
NFAs or DFAs, so agreement with the library is meaningful evidence.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterable, Iterator, Sequence

from rgphom.automata import Dfa, Nfa, compile_nfa, determinize
from rgphom.languages import concat_inclusion
from rgphom.regexes import Concat, RegexAst, Star, Sym, Union
from rgphom.rgp import Rgp


def words_of(node: RegexAst, limit: int) -> set[str]:
    """All words of L(node) no longer than limit, by direct semantics."""
    if isinstance(node, Sym):
        return {node.char} if limit >= 1 else set()
    if isinstance(node, Union):
        return words_of(node.left, limit) | words_of(node.right, limit)
    if isinstance(node, Concat):
        out = set()
        for u in words_of(node.left, limit):
            for v in words_of(node.right, limit - len(u)):
                out.add(u + v)
        return out
    if isinstance(node, Star):
        # By length: a nonempty star word of length L is a nonempty base
        # word of some length k followed by a star word of length L - k.
        base: list[set[str]] = [set() for _ in range(limit + 1)]
        for w in words_of(node.child, limit):
            base[len(w)].add(w)
        star: list[set[str]] = [{""}]
        for length in range(1, limit + 1):
            star.append({u + v for k in range(1, length + 1)
                         for u in base[k] for v in star[length - k]})
        return set().union(*star)
    raise TypeError(node)


def all_words(alphabet: Iterable[str], limit: int) -> Iterator[str]:
    alpha = sorted(alphabet)
    for length in range(limit + 1):
        for combo in product(alpha, repeat=length):
            yield "".join(combo)


def inclusion_by_enumeration(e1: RegexAst, e2: RegexAst,
                             alphabet: Iterable[str], limit: int) -> str | None:
    """Shortest word of L(e1) - L(e2) up to limit, scanning all words."""
    left = words_of(e1, limit)
    right = words_of(e2, limit)
    for word in sorted(left, key=lambda w: (len(w), w)):
        if word not in right:
            return word
    return None


def all_walks(q: Rgp, start: str, max_len: int) -> Iterator[tuple[int, ...]]:
    """Every walk from start of length 1..max_len, shortest first, ties
    in arc index order."""
    out: dict[str, list[int]] = {v: [] for v in q.vertices}
    for i, arc in enumerate(q.arcs):
        out[arc.src].append(i)
    queue: deque[tuple[str, tuple[int, ...]]] = deque([(start, ())])
    while queue:
        vertex, walk = queue.popleft()
        if walk:
            yield walk
        if len(walk) < max_len:
            for i in out[vertex]:
                queue.append((q.arcs[i].dst, walk + (i,)))


def walk_qualifies(q: Rgp, walk: Sequence[int], e: RegexAst) -> bool:
    """Whether every word readable along the walk matches e."""
    labels = [q.arcs[i].label for i in walk]
    return concat_inclusion(labels, e).holds


def reference_label_images(dfa: Dfa, nfa: Nfa) -> list[frozenset[int]]:
    """images[s] = every DFA state reachable from s by a word of L(nfa),
    by one BFS over the product automaton per start state."""
    result = []
    for start in range(dfa.n_states):
        seen = {(start, nfa.initial)}
        queue = deque(seen)
        image = set()
        while queue:
            d, b = queue.popleft()
            if b in nfa.accepting:
                image.add(d)
            for ch, targets in nfa.trans[b].items():
                d2 = dfa.step(d, ch)
                for b2 in targets:
                    if (d2, b2) not in seen:
                        seen.add((d2, b2))
                        queue.append((d2, b2))
        result.append(frozenset(image))
    return result


def reference_relation(q: Rgp, e: RegexAst) -> dict[tuple[str, str], tuple[int, ...]]:
    """Every pair joined by a walk matching e, with its first walk in BFS
    order: one BFS per source over (frozenset of DFA states, vertex)
    nodes, arcs tried in index order."""
    dfa = determinize(compile_nfa(e), q.alphabet)
    images = {}
    out: dict[str, list[tuple[int, str, RegexAst]]] = {v: [] for v in q.vertices}
    for i, arc in enumerate(q.arcs):
        if arc.label not in images:
            images[arc.label] = reference_label_images(dfa, compile_nfa(arc.label))
        out[arc.src].append((i, arc.dst, arc.label))
    relation = {}
    for source in q.vertices:
        start = (frozenset((dfa.initial,)), source)
        parents = {}
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            states, vertex = node
            if (node != start and (source, vertex) not in relation
                    and states <= dfa.accepting):
                walk = []
                back = node
                while back != start:
                    back, arc_index = parents[back]
                    walk.append(arc_index)
                relation[(source, vertex)] = tuple(reversed(walk))
            for arc_index, dst, label in out[vertex]:
                nxt = (frozenset(t for s in states for t in images[label][s]), dst)
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = (node, arc_index)
                    queue.append(nxt)
    return relation
