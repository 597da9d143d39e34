"""Decision procedures on regex languages: inclusion, universality,
inclusion of concatenations, and bounded word enumeration.

Inclusion L(n1) <= L(n2) is decided on the fly, without building a DFA
for the right side. A breadth-first search runs over nodes (q1, S): q1
is a state of n1, whose moves it takes as target lists (_moves), and S
is the bitmask of the n2 states reached by the same word, stepped on
demand with the subset kernel of automata and memoised per call.
Inclusion fails exactly when some node pairs an accepting q1 with an S
that holds no accepting state of n2.

The search is pruned with antichains (De Wulf, Doyen, Henzinger and
Raskin, CAV 2006). For each q1 it keeps the minimal masks reached so
far, and drops a new node (q1, T) when a kept mask M has M <= T: every
word that leads T out of L(n2) leads M out of it too. Characters and
n1 targets are taken in sorted order, so nodes are found in (length,
alphabetical) order of their words, and M was reached by a word no
greater than T's. The first counterexample found is therefore the
shortest, alphabetically first word of L(n1) - L(n2), the same word a
search over the full subset DFA returns. Nodes already queued are never
dropped. The search ticks the budget once per node it expands.

It is also pruned by simulation (Abdulla, Chen, Holik, Mayr and
Vojnar, "When simulation meets antichains", TACAS 2010). Once per call,
_simulation computes for each n1 state q1 the n2 states that simulate
it: those that accept every suffix q1 accepts, move for move. A node
(q1, S) whose S holds such a state leads to no counterexample, so
inclusion holds at once when the start node is one, and any other is
dropped before it is kept or queued. No node on the run of a
counterexample is ever dropped this way, so the first counterexample
found is still the shortest, alphabetically first word. On e <= e|b*,
with e = (a|b)*a(a|b)^18, the search ends at its root.

Concatenation inclusion chains the factors' NFAs into the target lists
of one NFA (_chain) instead of folding them into a regex, so a witness
walk of any length is checked without recursion, in memory linear in
the chain's moves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .automata import (
    _step, _successor_masks, compile_nfa, determinize, dfa_accepts, Nfa,
)
from .csp import _bits
from .errors import CapExceededError, PreconditionError, SearchBudget
from .regexes import RegexAst, sigma_star, symbols

DEFAULT_WORD_CAP = 200_000

# An NFA with state 0 initial, as _moves gives it: per state, (symbol,
# ascending successors) in symbol order; and the set of accepting states.
_Moves = tuple[list[list[tuple[str, list[int]]]], set[int]]


@dataclass(frozen=True)
class InclusionReport:
    holds: bool
    counterexample: str | None


@dataclass(frozen=True)
class TruncationReport:
    """Both sides of the bounded-concatenation equivalence.

    full_holds decides L(b1)...L(bk) <= L(a) exactly with automata;
    truncated_holds re-decides it after cutting each factor language to
    words no longer than (states of a's NFA) * (states of that factor's
    NFA). The two verdicts must always agree.
    """

    full_holds: bool
    full_counterexample: str | None
    truncated_holds: bool
    truncated_counterexample: str | None
    bounds: tuple[int, ...]

    @property
    def agree(self) -> bool:
        return self.full_holds == self.truncated_holds


@functools.lru_cache(maxsize=4096)
def _compiled(node: RegexAst) -> Nfa:
    """The NFA of a label, from a bounded cache that the walk engine
    shares."""
    return compile_nfa(node)


def language_inclusion(e1: RegexAst, e2: RegexAst,
                       budget: SearchBudget | None = None) -> InclusionReport:
    """Decide L(e1) <= L(e2); on failure report the shortest witness
    word, alphabetically first among the shortest."""
    counterexample = _missing_word(_moves(_compiled(e1)), _compiled(e2),
                                   budget or SearchBudget())
    return InclusionReport(counterexample is None, counterexample)


def _missing_word(n1: _Moves, n2: Nfa, budget: SearchBudget) -> str | None:
    """The (length, alphabetical)-least word accepted by n1, given as
    its _moves, and not by n2, if any, from the antichain search in the
    module docstring."""
    moves, final1 = n1
    alphabet = {ch for row in moves for ch, _ in row}
    masks = _successor_masks(n2, alphabet)
    # images[ch][S] memoises the step of the subset S on ch.
    images: dict[str, dict[int, int]] = {ch: {} for ch in alphabet}
    start = (0, 1 << n2.initial)
    parents: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}

    def missing(node: tuple[int, int]) -> bool:
        return node[0] in final1 and not node[1] & n2.accepting

    def word_to(node: tuple[int, int]) -> str:
        word: list[str] = []
        while node != start:
            node, ch = parents[node]
            word.append(ch)
        return "".join(reversed(word))

    if missing(start):
        return ""
    sim = _simulation(n1, n2, budget)
    if start[1] & sim[0]:
        return None
    # kept[q1]: the minimal masks reached with q1, an antichain.
    kept: list[list[int]] = [[] for _ in moves]
    kept[0].append(start[1])
    queue = [start]
    pos = 0
    while pos < len(queue):
        node = queue[pos]
        pos += 1
        budget.tick()
        q1, subset = node
        for ch, targets in moves[q1]:
            memo = images[ch]
            image = memo.get(subset)
            if image is None:
                image = memo[subset] = _step(subset, masks[ch])
            for t1 in targets:
                if image & sim[t1]:
                    continue
                antichain = kept[t1]
                if any(not m & ~image for m in antichain):
                    continue
                kept[t1] = [m for m in antichain if image & ~m]
                kept[t1].append(image)
                nxt = (t1, image)
                parents[nxt] = (node, ch)
                if missing(nxt):
                    return word_to(nxt)
                queue.append(nxt)
    return None


def _moves(nfa: Nfa) -> _Moves:
    """moves[q]: (symbol, successors of q on it, ascending) for each
    symbol q moves on, in sorted order; and the set of accepting states.
    Built once per search, so no node reads a mask as wide as the NFA.
    compile_nfa's state 0 is initial."""
    # One target, the common case, is read off without copying its mask.
    moves = [[(ch, [t.bit_length() - 1] if t.bit_count() == 1
               else list(_bits(t))) for ch, t in sorted(row.items())]
             for row in nfa.trans]
    return moves, set(_bits(nfa.accepting))


def _simulation(n1: _Moves, n2: Nfa, budget: SearchBudget) -> list[int]:
    """sim[q1]: the bitmask of the n2 states that simulate q1, n1 given
    as its _moves.

    The maximal forward simulation, as a greatest fixpoint: s simulates
    q1 when s accepts if q1 does, and each move of q1 on a symbol is
    matched by a move of s on it to a state that simulates the target.
    Refined on a worklist of n1 states; ticks the budget once per
    refinement.
    """
    moves, final1 = n1
    # preds[ch][t]: the n2 states that reach t on ch, so that stepping
    # a mask X on preds[ch] gives the states with a ch-move into X.
    preds = {ch: [0] * n2.n_states
             for ch in {*n2.alphabet, *(ch for row in moves for ch, _ in row)}}
    for s, row in enumerate(n2.trans):
        for ch, targets in row.items():
            for t in _bits(targets):
                preds[ch][t] |= 1 << s
    back: list[set[int]] = [set() for _ in moves]
    for q, row in enumerate(moves):
        for _, targets in row:
            for t in targets:
                back[t].add(q)
    everything = (1 << n2.n_states) - 1
    queue = list(range(len(moves)))
    sim = [n2.accepting if q in final1 else everything for q in queue]
    queued = [True] * len(moves)
    while queue:
        q1 = queue.pop()
        queued[q1] = False
        mask = sim[q1]
        for ch, targets in moves[q1]:
            for t1 in targets:
                if not mask:
                    break
                mask &= _step(sim[t1], preds[ch])
        if mask != sim[q1]:
            budget.tick()
            sim[q1] = mask
            for p1 in back[q1]:
                if not queued[p1]:
                    queued[p1] = True
                    queue.append(p1)
    return sim


def universality(e: RegexAst, alphabet: Iterable[str],
                 budget: SearchBudget | None = None) -> InclusionReport:
    """Decide L(e) = alphabet*; counterexamples are shortest missing words."""
    alpha = frozenset(alphabet)
    missing = symbols(e) - alpha
    if missing:
        raise PreconditionError(
            f"expression uses symbols outside the alphabet: {sorted(missing)}")
    return language_inclusion(sigma_star(alpha), e, budget)


def concat_inclusion(bs: Sequence[RegexAst], a: RegexAst,
                     budget: SearchBudget | None = None) -> InclusionReport:
    """Decide L(b1)...L(bk) <= L(a), on the chain of the factors'
    NFAs; no regex is built for the concatenation."""
    if not bs:
        raise PreconditionError("concatenation of zero expressions")
    budget = budget or SearchBudget()
    counterexample = _missing_word(_chain([_compiled(b) for b in bs], budget),
                                   _compiled(a), budget)
    return InclusionReport(counterexample is None, counterexample)


def _chain(parts: Sequence[Nfa], budget: SearchBudget) -> _Moves:
    """The _moves of one epsilon-free NFA for the concatenation of the
    parts, state 0 initial.

    Each part's states are offset past the parts before it, by adding
    the offset to each entry of its target lists. Working right to
    left, every accepting state of part i gains the moves that start the
    rest of the chain: the initial-state moves of part i + 1, which
    already include those of the parts after it where part i + 1
    accepts the empty word. It stays accepting iff the rest of the
    chain accepts the empty word. A run of factors that accept the
    empty word makes the copies quadratic in its length, so the budget
    is ticked once per move copied.
    """
    base = sum(part.n_states for part in parts)
    moves: list[list[tuple[str, list[int]]]] = [[]] * base
    final: set[int] = set()
    # entry: the moves that start the rest of the chain; rest_nullable:
    # whether the rest accepts the empty word.
    entry: list[tuple[str, list[int]]] = []
    rest_nullable = True
    for part in reversed(parts):
        base -= part.n_states
        part_moves, part_final = _moves(part)
        copies = sum(len(targets) for _, targets in entry)
        for q, row in enumerate(part_moves):
            row = [(ch, [t + base for t in targets]) for ch, targets in row]
            if q in part_final:
                budget.tick(copies)
                # The rest of the chain lies past this part, so its
                # targets follow this state's own in ascending order.
                merged = dict(row)
                for ch, targets in entry:
                    merged[ch] = merged.get(ch, []) + targets
                row = sorted(merged.items())
                if rest_nullable:
                    final.add(base + q)
            moves[base + q] = row
        entry = moves[base]
        rest_nullable = 0 in part_final and rest_nullable
    return moves, final


def truncated_words(b: RegexAst, bound: int, cap: int = DEFAULT_WORD_CAP) -> frozenset[str]:
    """All words of L(b) with length at most bound.

    Walks the NFA level by level, tracking the mask of reachable states
    per distinct word so duplicates collapse. Raises CapExceededError when
    the number of tracked words passes cap.
    """
    nfa = _compiled(b)
    masks = _successor_masks(nfa, nfa.alphabet)
    level: dict[str, int] = {"": 1 << nfa.initial}
    found: set[str] = set()
    total = len(level)
    for _ in range(bound + 1):
        found.update(word for word, states in level.items()
                     if states & nfa.accepting)
        nxt: dict[str, int] = {}
        for word, states in level.items():
            if len(word) == bound:
                continue
            for ch in nfa.alphabet:
                targets = _step(states, masks[ch])
                if targets:
                    nxt[word + ch] = targets
        total += len(nxt)
        if total > cap:
            raise CapExceededError(
                f"more than {cap} words while truncating to length {bound}")
        if not nxt:
            break
        level = nxt
    return frozenset(found)


def truncation_equivalence_check(
    a: RegexAst,
    bs: Sequence[RegexAst],
    cap: int = DEFAULT_WORD_CAP,
) -> TruncationReport:
    """Evaluate concatenation inclusion twice: exactly, and with every
    factor language truncated to its size bound. See TruncationReport."""
    if not bs:
        raise PreconditionError("need at least one concatenation factor")
    n_a = _compiled(a).n_states
    bounds = tuple(n_a * _compiled(b).n_states for b in bs)

    full = concat_inclusion(bs, a)

    alpha = tuple(sorted(set().union(*(symbols(b) for b in bs)) | symbols(a)))
    dfa = determinize(_compiled(a), alpha)
    words: set[str] = {""}
    for b, bound in zip(bs, bounds):
        factor = truncated_words(b, bound, cap)
        words = {u + w for u in words for w in factor}
        if len(words) > cap:
            raise CapExceededError(
                f"more than {cap} concatenated truncated words")
    truncated_cex = None
    for word in sorted(words, key=lambda w: (len(w), w)):
        if not dfa_accepts(dfa, word):
            truncated_cex = word
            break
    return TruncationReport(
        full_holds=full.holds,
        full_counterexample=full.counterexample,
        truncated_holds=truncated_cex is None,
        truncated_counterexample=truncated_cex,
        bounds=bounds,
    )
