"""Finite automata compiled from regex ASTs.

compile_nfa builds the position automaton (Glushkov 1961; McNaughton
and Yamada 1960) in one post-order pass over the AST, on an explicit
stack. The symbol occurrences are numbered 1..m from left to right; the
child that plus() shares is numbered anew at each of its two
occurrences. Each node gets nullable, first and last, with first and
last as bitmasks of positions, and follow[p] collects the positions
that can come right after p: Concat(l, r) adds first(r) to follow[p]
for p in last(l), and Star(c) adds first(c) to follow[p] for p in
last(c). State 0 is the initial state and state p is position p:
state 0 moves into first, state p moves into follow[p], and a move on
ch goes to the positions that hold ch. The accepting states are last,
plus state 0 when the expression accepts the empty word. So the NFA
has one state per symbol occurrence plus one, and no epsilon arcs.

The automaton is trim: no AST denotes the empty language, so each
symbol occurrence is read by some word of the expression, whose run
passes through its position from state 0 to an accepting state. So
every state is reachable and reaches acceptance, and the walk engine
takes a set of states from which no word is accepted to be empty.

DFAs come from the reachable-subset construction and are total over
their declared alphabet, with the empty subset acting as an explicit
sink when it is reachable.

Sets of NFA states are int bitmasks: bit q stands for state q, and an
Nfa holds its accepting states and its moves that way too. A subset
is stepped on a symbol by OR-ing the successor masks of its states
(_successor_masks, _step), the one subset kernel that determinize, the
on-the-fly inclusion search in languages and the label images of the
walk engine all use. determinize numbers DFA states in breadth-first
discovery order, symbols taken in sorted order, and ticks the search
budget once per subset state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .csp import _bits
from .errors import SearchBudget
from .regexes import Concat, RegexAst, Star, Sym, Union
from .rgp import _reach


@dataclass(frozen=True)
class Nfa:
    n_states: int
    initial: int
    accepting: int  # bit q is set when state q accepts
    # trans[q] maps each symbol q moves on to the bitmask of its
    # successors on it.
    trans: tuple[dict[str, int], ...]
    alphabet: tuple[str, ...]


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
    """Build the position automaton of the expression (module docstring)."""
    # chars[p] is the symbol at position p, and follow[p] the bitmask of
    # the positions that can come right after it; state 0 is the
    # initial state, and follow[0] ends up as first(node).
    chars = [""]
    follow = [0]
    # Post-order on an explicit stack. A composite node is pushed as its
    # class, which marks where to combine, under its children. `done`
    # holds (nullable, first, last) of each finished subexpression.
    todo: list = [node]
    done: list[tuple[bool, int, int]] = []
    while todo:
        n = todo.pop()
        kind = type(n)
        if kind is Sym:
            bit = 1 << len(chars)
            chars.append(n.char)
            follow.append(0)
            done.append((False, bit, bit))
        elif kind is Concat or kind is Union:
            todo += (kind, n.right, n.left)
        elif kind is Star:
            todo += (Star, n.child)
        elif n is Concat:
            r_null, r_first, r_last = done.pop()
            l_null, l_first, l_last = done.pop()
            for p in _bits(l_last):
                follow[p] |= r_first
            done.append((l_null and r_null,
                         l_first | r_first if l_null else l_first,
                         l_last | r_last if r_null else r_last))
        elif n is Union:
            r_null, r_first, r_last = done.pop()
            l_null, l_first, l_last = done.pop()
            done.append((l_null or r_null, l_first | r_first, l_last | r_last))
        elif n is Star:
            _, first, last = done.pop()
            for p in _bits(last):
                follow[p] |= first
            done.append((True, first, last))
        else:
            raise TypeError(f"not a regex node: {n!r}")
    nullable, follow[0], last = done.pop()

    # The move of state p on ch goes to follow[p] & at[ch].
    at: dict[str, int] = {}
    for p in range(1, len(chars)):
        at[chars[p]] = at.get(chars[p], 0) | 1 << p
    symbols = sorted(at.items())
    return Nfa(
        n_states=len(chars),
        initial=0,
        accepting=last | 1 if nullable else last,
        trans=tuple({ch: moves for ch, mask in symbols
                     if (moves := after & mask)} for after in follow),
        alphabet=tuple(ch for ch, _ in symbols),
    )


def nfa_accepts(nfa: Nfa, word: str) -> bool:
    masks = _successor_masks(nfa, set(word))
    current = 1 << nfa.initial
    for ch in word:
        current = _step(current, masks[ch])
    return bool(current & nfa.accepting)


def _successor_masks(nfa: Nfa, alphabet: Iterable[str]) -> dict[str, list[int]]:
    """masks[ch][q] = bitmask of the states that q reaches on ch."""
    return {ch: [row.get(ch, 0) for row in nfa.trans] for ch in alphabet}


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
        budget.tick()
        row: dict[str, int] = {}
        for ch in alpha:
            nxt = _step(subset, masks[ch])
            state = index.get(nxt)
            if state is None:
                state = index[nxt] = len(order)
                order.append(nxt)
            row[ch] = state
        delta.append(row)
    return Dfa(
        n_states=len(order),
        initial=0,
        accepting=frozenset(i for i, subset in enumerate(order)
                            if subset & nfa.accepting),
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
    reverse: list[list[int]] = [[] for _ in range(nfa.n_states)]
    for q, row in enumerate(nfa.trans):
        for targets in row.values():
            for t in _bits(targets):
                reverse[t].append(q)
    return Nfa(
        n_states=nfa.n_states,
        initial=nfa.initial,
        accepting=sum(1 << q for q in _reach(reverse, _bits(nfa.accepting))),
        trans=nfa.trans,
        alphabet=nfa.alphabet,
    )
