"""Finite automata compiled from regex ASTs.

NFAs are epsilon-free: the Thompson construction builds epsilon arcs
internally and they are eliminated (and unreachable states trimmed)
before the automaton is returned. The resulting state count is at most
twice the AST node count. DFAs come from the reachable-subset
construction and are total over their declared alphabet, with the empty
subset acting as an explicit sink when it is reachable.

Sets of NFA states are int bitmasks: bit q stands for state q. A subset
is stepped on a symbol by OR-ing the successor masks of its states
(_successor_masks, _step), the one subset kernel that determinize and
the on-the-fly inclusion search in languages both use. determinize
numbers DFA states in breadth-first discovery order, symbols taken in
sorted order, and ticks the search budget once per subset state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import TICK_BATCH, SearchBudget
from .regexes import Concat, RegexAst, Star, Sym, Union


@dataclass(frozen=True)
class Nfa:
    n_states: int
    initial: int
    accepting: frozenset[int]
    # trans[q] maps a symbol to the frozenset of successor states.
    trans: tuple[dict[str, frozenset[int]], ...]
    alphabet: tuple[str, ...]

    def successors(self, state: int, symbol: str) -> frozenset[int]:
        return self.trans[state].get(symbol, frozenset())


@dataclass(frozen=True)
class Dfa:
    n_states: int
    initial: int
    accepting: frozenset[int]
    # delta[q] maps every alphabet symbol to exactly one successor.
    delta: tuple[dict[str, int], ...]
    alphabet: tuple[str, ...]

    def step(self, state: int, symbol: str) -> int:
        return self.delta[state][symbol]


def compile_nfa(node: RegexAst) -> Nfa:
    """Build an epsilon-free NFA for the expression."""
    builder = _Builder()
    initial, accepts = builder.build(node)
    return builder.finish(initial, accepts)


class _Builder:
    def __init__(self) -> None:
        self.count = 0
        self.sym_edges: list[tuple[int, str, int]] = []
        self.eps_edges: list[tuple[int, int]] = []

    def new_state(self) -> int:
        self.count += 1
        return self.count - 1

    def build(self, node: RegexAst) -> tuple[int, list[int]]:
        if isinstance(node, Sym):
            s, t = self.new_state(), self.new_state()
            self.sym_edges.append((s, node.char, t))
            return s, [t]
        if isinstance(node, Union):
            s = self.new_state()
            li, la = self.build(node.left)
            ri, ra = self.build(node.right)
            self.eps_edges += [(s, li), (s, ri)]
            return s, la + ra
        if isinstance(node, Concat):
            li, la = self.build(node.left)
            ri, ra = self.build(node.right)
            self.eps_edges += [(a, ri) for a in la]
            return li, ra
        if isinstance(node, Star):
            s = self.new_state()
            ci, ca = self.build(node.child)
            self.eps_edges.append((s, ci))
            self.eps_edges += [(a, s) for a in ca]
            return s, [s]
        raise TypeError(f"not a regex node: {node!r}")

    def finish(self, initial: int, accepts: list[int]) -> Nfa:
        eps: list[set[int]] = [set() for _ in range(self.count)]
        for a, b in self.eps_edges:
            eps[a].add(b)
        closures = [_closure(eps, q) for q in range(self.count)]

        accepting = set(accepts)
        raw: list[dict[str, set[int]]] = [{} for _ in range(self.count)]
        by_src: list[list[tuple[str, int]]] = [[] for _ in range(self.count)]
        for s, ch, t in self.sym_edges:
            by_src[s].append((ch, t))
        new_accepting = set()
        for q in range(self.count):
            for q2 in closures[q]:
                for ch, t in by_src[q2]:
                    raw[q].setdefault(ch, set()).add(t)
            if closures[q] & accepting:
                new_accepting.add(q)

        # Trim to states reachable from the initial one, renumbering in
        # discovery order so construction is deterministic.
        order: list[int] = [initial]
        index = {initial: 0}
        pos = 0
        while pos < len(order):
            q = order[pos]
            pos += 1
            for ch in sorted(raw[q]):
                for t in sorted(raw[q][ch]):
                    if t not in index:
                        index[t] = len(order)
                        order.append(t)
        trans = tuple(
            {ch: frozenset(index[t] for t in raw[q][ch] if t in index)
             for ch in sorted(raw[q])}
            for q in order)
        alphabet = tuple(sorted({ch for d in trans for ch in d}))
        return Nfa(
            n_states=len(order),
            initial=0,
            accepting=frozenset(index[q] for q in new_accepting if q in index),
            trans=trans,
            alphabet=alphabet,
        )


def _closure(eps: list[set[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in eps[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def nfa_accepts(nfa: Nfa, word: str) -> bool:
    current = frozenset((nfa.initial,))
    for ch in word:
        current = frozenset(t for q in current for t in nfa.successors(q, ch))
        if not current:
            return False
    return bool(current & nfa.accepting)


def _successor_masks(nfa: Nfa, alphabet: Iterable[str]) -> dict[str, list[int]]:
    """masks[ch][q] = bitmask of the states that q reaches on ch."""
    return {ch: [sum(1 << t for t in nfa.successors(q, ch))
                 for q in range(nfa.n_states)]
            for ch in alphabet}


def _step(subset: int, masks: list[int]) -> int:
    """The successors of a subset on one symbol, masks being that
    symbol's entry of _successor_masks."""
    out = 0
    while subset:
        low = subset & -subset
        out |= masks[low.bit_length() - 1]
        subset ^= low
    return out


def determinize(nfa: Nfa, alphabet: tuple[str, ...] | None = None,
                budget: SearchBudget | None = None) -> Dfa:
    """Reachable-subset DFA, total over the union of the given alphabet
    and the NFA's own symbols."""
    budget = budget or SearchBudget()
    alpha = tuple(sorted(set(nfa.alphabet) | set(alphabet or ())))
    masks = _successor_masks(nfa, alpha)
    start = 1 << nfa.initial
    order: list[int] = [start]
    index: dict[int, int] = {start: 0}
    delta: list[dict[str, int]] = []
    pos = 0
    while pos < len(order):
        subset = order[pos]
        pos += 1
        if not pos % TICK_BATCH:
            budget.tick(TICK_BATCH)
        row: dict[str, int] = {}
        for ch in alpha:
            nxt = _step(subset, masks[ch])
            state = index.get(nxt)
            if state is None:
                state = index[nxt] = len(order)
                order.append(nxt)
            row[ch] = state
        delta.append(row)
    budget.tick(pos % TICK_BATCH)
    accept = sum(1 << q for q in nfa.accepting)
    accepting = frozenset(
        i for i, subset in enumerate(order) if subset & accept)
    return Dfa(
        n_states=len(order),
        initial=0,
        accepting=accepting,
        delta=tuple(delta),
        alphabet=alpha,
    )


def dfa_accepts(dfa: Dfa, word: str) -> bool:
    state = dfa.initial
    for ch in word:
        if ch not in dfa.delta[state]:
            return False
        state = dfa.delta[state][ch]
    return state in dfa.accepting


def prefix_closure(nfa: Nfa) -> Nfa:
    """The same automaton accepting every prefix of the language.

    Accepting states become those from which an accepting state is
    reachable, so the language turns into the prefix closure.
    """
    reverse: list[set[int]] = [set() for _ in range(nfa.n_states)]
    for q in range(nfa.n_states):
        for targets in nfa.trans[q].values():
            for t in targets:
                reverse[t].add(q)
    live = set(nfa.accepting)
    stack = list(live)
    while stack:
        for q in reverse[stack.pop()]:
            if q not in live:
                live.add(q)
                stack.append(q)
    return Nfa(
        n_states=nfa.n_states,
        initial=nfa.initial,
        accepting=frozenset(live),
        trans=nfa.trans,
        alphabet=nfa.alphabet,
    )
