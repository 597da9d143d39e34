"""Decision procedures on regex languages: inclusion, universality,
inclusion of concatenations, and bounded word enumeration.

Inclusion L(n1) <= L(n2) is decided on the fly, without building a DFA
for the right side. A breadth-first search runs over nodes (q1, S): q1
is a state of n1, and S is the bitmask of the n2 states reached by the
same word, stepped on demand with the subset kernel of automata and
memoised per call. Inclusion fails exactly when some node pairs an
accepting q1 with an S that holds no accepting state of n2.

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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .automata import (
    _step, _successor_masks, compile_nfa, determinize, dfa_accepts, Nfa,
)
from .errors import (
    TICK_BATCH, CapExceededError, PreconditionError, SearchBudget,
)
from .regexes import Concat, RegexAst, sigma_star, symbols

DEFAULT_WORD_CAP = 200_000


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
    counterexample = _missing_word(_compiled(e1), _compiled(e2),
                                   budget or SearchBudget())
    return InclusionReport(counterexample is None, counterexample)


def nfa_language_included(n1: Nfa, n2: Nfa,
                          budget: SearchBudget | None = None) -> bool:
    """Decide L(n1) <= L(n2) directly on automata.

    Lets callers test against machine-derived languages (prefix
    closures and the like) that have no expression form at hand.
    """
    return _missing_word(n1, n2, budget or SearchBudget()) is None


def _missing_word(n1: Nfa, n2: Nfa, budget: SearchBudget) -> str | None:
    """The (length, alphabetical)-least word accepted by n1 and not by
    n2, if any, from the antichain search in the module docstring."""
    masks = _successor_masks(n2, n1.alphabet)
    accepting2 = sum(1 << q for q in n2.accepting)
    # images[ch][S] memoises the step of the subset S on ch.
    images: dict[str, dict[int, int]] = {ch: {} for ch in n1.alphabet}
    moves = [[(ch, sorted(n1.trans[q][ch])) for ch in sorted(n1.trans[q])]
             for q in range(n1.n_states)]
    start = (n1.initial, 1 << n2.initial)
    parents: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}

    def missing(node: tuple[int, int]) -> bool:
        return node[0] in n1.accepting and not node[1] & accepting2

    def word_to(node: tuple[int, int]) -> str:
        word: list[str] = []
        while node != start:
            node, ch = parents[node]
            word.append(ch)
        return "".join(reversed(word))

    if missing(start):
        return ""
    # kept[q1]: the minimal masks reached with q1, an antichain.
    kept: list[list[int]] = [[] for _ in range(n1.n_states)]
    kept[n1.initial].append(start[1])
    queue = [start]
    pos = 0
    while pos < len(queue):
        node = queue[pos]
        pos += 1
        if not pos % TICK_BATCH:
            budget.tick(TICK_BATCH)
        q1, subset = node
        for ch, targets in moves[q1]:
            memo = images[ch]
            image = memo.get(subset)
            if image is None:
                image = memo[subset] = _step(subset, masks[ch])
            for t1 in targets:
                antichain = kept[t1]
                if any(not m & ~image for m in antichain):
                    continue
                kept[t1] = [m for m in antichain if image & ~m]
                kept[t1].append(image)
                nxt = (t1, image)
                parents[nxt] = (node, ch)
                if missing(nxt):
                    budget.tick(pos % TICK_BATCH)
                    return word_to(nxt)
                queue.append(nxt)
    budget.tick(pos % TICK_BATCH)
    return None


def universality(e: RegexAst, alphabet: Iterable[str],
                 budget: SearchBudget | None = None) -> InclusionReport:
    """Decide L(e) = alphabet*; counterexamples are shortest missing words."""
    alpha = frozenset(alphabet)
    missing = symbols(e) - alpha
    if missing:
        raise PreconditionError(
            f"expression uses symbols outside the alphabet: {sorted(missing)}")
    return language_inclusion(sigma_star(alpha), e, budget)


def concat_ast(parts: Sequence[RegexAst]) -> RegexAst:
    if not parts:
        raise PreconditionError("concatenation of zero expressions")
    acc = parts[0]
    for part in parts[1:]:
        acc = Concat(acc, part)
    return acc


def concat_inclusion(bs: Sequence[RegexAst], a: RegexAst) -> InclusionReport:
    """Decide L(b1)...L(bk) <= L(a)."""
    return language_inclusion(concat_ast(bs), a)


def truncated_words(b: RegexAst, bound: int, cap: int = DEFAULT_WORD_CAP) -> frozenset[str]:
    """All words of L(b) with length at most bound.

    Walks the NFA level by level, tracking the reachable state set per
    distinct word so duplicates collapse. Raises CapExceededError when
    the number of tracked words passes cap.
    """
    nfa = _compiled(b)
    level: dict[str, frozenset[int]] = {"": frozenset((nfa.initial,))}
    found: set[str] = set()
    total = len(level)
    for _ in range(bound + 1):
        for word, states in level.items():
            if states & nfa.accepting:
                found.add(word)
        nxt: dict[str, frozenset[int]] = {}
        for word, states in level.items():
            if len(word) == bound:
                continue
            for ch in nfa.alphabet:
                targets = frozenset(
                    t for q in states for t in nfa.successors(q, ch))
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
