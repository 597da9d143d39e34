"""Hardness gadgets, a brute-force reference solver, and seeded generators.

The gadget constructors turn language questions (inclusion, universality)
into tiny homomorphism or core instances; each carries its documented
equivalence as a string so test suites can check both sides through
unrelated code paths.  oracle_n_hom answers the same question as n_hom by
plain enumeration: it lists candidate walks label by label and candidate
mappings vertex by vertex, so agreement with the production solver is
meaningful evidence.  The random_* functions are pure functions of their
seed and return validated instances.
"""

from __future__ import annotations

import itertools
import random
import string
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .automata import Dfa, Nfa, compile_nfa, determinize, prefix_closure
from .csp import _bits
from .errors import CapExceededError, PreconditionError
from .nhom import NHomomorphism
from .regexes import (
    Concat,
    RegexAst,
    Star,
    Sym,
    Union,
    plus,
    serialize_regex,
    sigma_star,
    symbols,
)
from .rgp import Arc, LabelKind, Rgp

__all__ = [
    "GadgetPair",
    "OracleBudget",
    "all_a_lift",
    "concat_ast",
    "gadget_inclusion",
    "gadget_ncore",
    "gadget_universality",
    "oracle_n_hom",
    "random_regex",
    "random_rgp",
    "random_unary_pattern",
    "universal_by_enumeration",
    "word_matches",
]


# ---------------------------------------------------------------------------
# Gadgets


@dataclass(frozen=True)
class GadgetPair:
    """Two patterns plus the regular-language fact their relation encodes."""

    p1: Rgp
    p2: Rgp
    fact: str


def _single_arc(alphabet: tuple[str, ...], label: RegexAst) -> Rgp:
    return Rgp(alphabet=alphabet, vertices=("u", "v"),
               arcs=(Arc("u", "v", label),))


def gadget_inclusion(e1: RegexAst, e2: RegexAst) -> GadgetPair:
    """Inclusion as homomorphism: L(e1) <= L(e2) iff p2 maps into p1.

    Both patterns are a single arc, labeled e1 and e2.  The only nonempty
    walk in p1 is its one arc, so the mapped e2-arc qualifies exactly when
    L(e1) <= L(e2).
    """
    alpha = tuple(sorted(symbols(e1) | symbols(e2)))
    return GadgetPair(
        p1=_single_arc(alpha, e1),
        p2=_single_arc(alpha, e2),
        fact=(f"L({serialize_regex(e1)}) <= L({serialize_regex(e2)}) "
              "iff n_hom(p2, p1) exists"),
    )


def gadget_universality(e: RegexAst, alphabet) -> GadgetPair:
    """Universality as homomorphism: L(e) = Sigma* iff p1 maps into p2.

    p1 is a single e-labeled arc and p2 a single arc labeled the
    all-words expression.  Requires at least two alphabet symbols; on a
    one-letter alphabet the encoding collapses.
    """
    alpha = tuple(sorted(set(alphabet)))
    if len(alpha) < 2:
        raise PreconditionError(
            f"universality gadget needs >= 2 symbols, got {list(alpha)}")
    extra = symbols(e) - set(alpha)
    if extra:
        raise PreconditionError(
            f"expression uses symbols outside the alphabet: {sorted(extra)}")
    return GadgetPair(
        p1=_single_arc(alpha, e),
        p2=_single_arc(alpha, sigma_star(alpha)),
        fact=(f"L({serialize_regex(e)}) is all words over "
              f"{{{','.join(alpha)}}} iff n_hom(p1, p2) exists"),
    )


_FRESH_POOL = string.ascii_lowercase + string.ascii_uppercase + string.digits


def gadget_ncore(e1: RegexAst, e2: RegexAst) -> Rgp:
    """A 3-vertex pattern that is NOT a core exactly when L(e1) <= L(e2).

    Vertices x, y, z with arcs (x, y) labeled e1 and (x, z) labeled X|e2,
    where X is a fresh symbol minted as the lexicographically first
    character outside the shared alphabet.  Folding z onto y succeeds iff
    the e1-arc's language fits inside L(e2) (the X branch is unreachable
    since no other label mentions X).
    """
    shared = symbols(e1) | symbols(e2)
    fresh = next((c for c in _FRESH_POOL if c not in shared), None)
    if fresh is None:
        raise PreconditionError("no unused symbol left to mint")
    alpha = tuple(sorted(shared | {fresh}))
    return Rgp(
        alphabet=alpha,
        vertices=("x", "y", "z"),
        arcs=(Arc("x", "y", e1), Arc("x", "z", Union(Sym(fresh), e2))),
    )


def all_a_lift(vertices, edges) -> Rgp:
    """Lift an undirected graph to a pattern with an 'a'-arc each way.

    edges are unordered pairs; a loop contributes a single arc.  Plain
    graph homomorphism to/from the lift coincides with n_hom, which is
    what makes undirected questions expressible here.
    """
    verts = tuple(vertices)
    arcs: list[Arc] = []
    seen: set[tuple[str, str]] = set()
    for u, v in edges:
        for src, dst in ((u, v), (v, u)):
            if (src, dst) not in seen:
                seen.add((src, dst))
                arcs.append(Arc(src, dst, Sym("a")))
    return Rgp(alphabet=("a",), vertices=verts, arcs=tuple(arcs))


# ---------------------------------------------------------------------------
# Word-level checks (no automata in the decision path)


def word_matches(e: RegexAst, word: str) -> bool:
    """Word membership by structural induction over the expression, in
    post-order on an explicit stack, so neither the depth of e nor the
    length of the word is bounded by the interpreter's recursion limit.

    ends[(id(node), i)] is the bit mask of the positions j with
    word[i:j] in L(node); only the (node, i) pairs the root needs are
    computed, each once its children's are.  A star peels a nonempty
    prefix: j = i, or word[i:k] in L(child) with k > i and word[k:j]
    in L(star) again; a k that is already an end adds nothing, since
    L(star) is closed under concatenation.  Nodes are keyed by
    identity, since the structural hash of a deep expression recurses.
    """
    n = len(word)
    ends: dict[tuple[int, int], int] = {}
    missing: list[tuple[RegexAst, int]] = []

    def need(child: RegexAst, k: int) -> int:
        got = ends.get((id(child), k))
        if got is None:
            missing.append((child, k))
            return 0
        return got

    stack = [(e, 0)]
    while stack:
        node, i = stack[-1]
        if (id(node), i) in ends:
            stack.pop()
            continue
        if isinstance(node, Sym):
            out = 1 << (i + 1) if i < n and word[i] == node.char else 0
        elif isinstance(node, Union):
            out = need(node.left, i) | need(node.right, i)
        elif isinstance(node, Concat):
            out = 0
            for k in _bits(need(node.left, i)):
                out |= need(node.right, k)
        else:
            out = 1 << i
            todo = need(node.child, i) >> (i + 1) << (i + 1)
            while todo:
                k = (todo & -todo).bit_length() - 1
                out |= need(node, k)
                todo &= ~(out | 1 << k)
        if missing:
            stack += missing
            missing.clear()
        else:
            ends[id(node), i] = out
            stack.pop()
    return bool(ends[id(e), 0] >> n & 1)


_ENUM_CAP = 100_000


def universal_by_enumeration(e: RegexAst, alphabet,
                             budget: "OracleBudget | None" = None) -> bool:
    """Decide L(e) = Sigma* by checking every word up to the DFA size.

    A missed word, if any, is shorter than the number of DFA states, so
    the enumeration is exact.  Membership goes through word_matches, not
    the automaton, so this is an independent cross-check.
    """
    budget = budget or OracleBudget()
    alpha = tuple(sorted(set(alphabet)))
    extra = symbols(e) - set(alpha)
    if extra:
        raise PreconditionError(
            f"expression uses symbols outside the alphabet: {sorted(extra)}")
    bound = determinize(compile_nfa(e), alpha).n_states
    if bound > budget.max_word_length:
        raise CapExceededError(
            f"universality check needs words up to length {bound}, "
            f"budget allows {budget.max_word_length}")
    total = 0
    for k in range(bound + 1):
        total += len(alpha) ** k
        if total > _ENUM_CAP:
            raise CapExceededError(
                f"more than {_ENUM_CAP} words to enumerate")
        for tup in itertools.product(alpha, repeat=k):
            if not word_matches(e, "".join(tup)):
                return False
    return True


# ---------------------------------------------------------------------------
# Brute-force reference solver


@dataclass(frozen=True)
class OracleBudget:
    """Size limits for the exhaustive solver.

    The oracle is exact within its limits and raises CapExceededError
    when an instance needs more, so a cap hit can never read as "no".
    Defaults fit instances with up to ~5 vertices per side.
    """

    max_walk_length: int = 256
    max_word_length: int = 12
    max_mapping_count: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("max_walk_length", "max_word_length",
                     "max_mapping_count"):
            if getattr(self, name) < 1:
                raise PreconditionError(f"{name} must be positive")


_STATE_CAP = 200_000


def _reachable_from(q: Rgp, source: str) -> frozenset[str]:
    """Vertices at the end of at least one nonempty walk from source."""
    out: dict[str, list[str]] = {v: [] for v in q.vertices}
    for arc in q.arcs:
        out[arc.src].append(arc.dst)
    seen: set[str] = set()
    frontier = list(out[source])
    while frontier:
        v = frontier.pop()
        if v in seen:
            continue
        seen.add(v)
        frontier.extend(out[v])
    return frozenset(seen)


def concat_ast(parts: Sequence[RegexAst]) -> RegexAst:
    """The left-nested Concat of the parts, for the oracles here; the
    library's concat_inclusion chains NFAs instead."""
    if not parts:
        raise PreconditionError("concatenation of zero expressions")
    acc = parts[0]
    for part in parts[1:]:
        acc = Concat(acc, part)
    return acc


def _within(nfa: Nfa, dfa: Dfa) -> bool:
    """L(nfa) <= L(dfa), by a plain breadth-first search over the product
    of the NFA and the full DFA, kept apart from the inclusion search in
    languages on purpose."""
    start = (nfa.initial, dfa.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        q1, q2 = queue.popleft()
        if nfa.accepting >> q1 & 1 and q2 not in dfa.accepting:
            return False
        for ch, targets in nfa.trans[q1].items():
            t2 = dfa.step(q2, ch)
            for t1 in _bits(targets):
                if (t1, t2) not in seen:
                    seen.add((t1, t2))
                    queue.append((t1, t2))
    return True


def _walk_table(q: Rgp, e: RegexAst,
                budget: OracleBudget) -> dict[tuple[str, str], tuple[int, ...]]:
    """One qualifying walk per realizable pair, by breadth-first listing.

    States are (label sequence, endpoint); sequences whose language
    escapes the prefix closure of L(e) can never be extended into a
    qualifying walk and are dropped.  Exact when the frontier dies, every
    any-walk-reachable endpoint is covered, or the depth reaches the
    2^d * |V| witness bound; raises CapExceededError otherwise.
    """
    accept = determinize(compile_nfa(e), q.alphabet)
    prefixes = determinize(prefix_closure(compile_nfa(e)), q.alphabet)
    bound = (2 ** accept.n_states) * len(q.vertices)
    limit = min(bound, budget.max_walk_length)

    out: dict[str, list[tuple[int, str, RegexAst]]] = {v: [] for v in q.vertices}
    for i, arc in enumerate(q.arcs):
        out[arc.src].append((i, arc.dst, arc.label))

    viable: dict[tuple[RegexAst, ...], bool] = {}
    qualifies: dict[tuple[RegexAst, ...], bool] = {}

    def check(sigma: tuple[RegexAst, ...]) -> bool:
        if sigma not in viable:
            nfa = compile_nfa(concat_ast(sigma))
            viable[sigma] = _within(nfa, prefixes)
            qualifies[sigma] = viable[sigma] and _within(nfa, accept)
        return viable[sigma]

    table: dict[tuple[str, str], tuple[int, ...]] = {}
    for source in q.vertices:
        reach = _reachable_from(q, source)
        found: set[str] = set()
        # sigma -> endpoint -> one witness walk (arc indices)
        frontier: dict[tuple[RegexAst, ...], dict[str, tuple[int, ...]]] = {
            (): {source: ()}}
        states = 0
        for _depth in range(limit):
            if not frontier or found == reach:
                break
            nxt: dict[tuple[RegexAst, ...], dict[str, tuple[int, ...]]] = {}
            for sigma, ends in frontier.items():
                for v, walk in ends.items():
                    for i, dst, label in out[v]:
                        longer = sigma + (label,)
                        if not check(longer):
                            continue
                        slot = nxt.setdefault(longer, {})
                        if dst not in slot:
                            slot[dst] = walk + (i,)
                            states += 1
            if states > _STATE_CAP:
                raise CapExceededError(
                    f"walk listing for label {serialize_regex(e)} passed "
                    f"{_STATE_CAP} states")
            for sigma, ends in nxt.items():
                if qualifies[sigma]:
                    for v, walk in ends.items():
                        if v not in found:
                            found.add(v)
                            table[(source, v)] = walk
            frontier = nxt
        else:
            if frontier and found != reach and limit < bound:
                raise CapExceededError(
                    f"walk bound {bound} for label {serialize_regex(e)} "
                    f"exceeds budget {budget.max_walk_length}")
    return table


def oracle_n_hom(p: Rgp, q: Rgp,
                 budget: OracleBudget | None = None) -> NHomomorphism | None:
    """Exhaustive solver: try every vertex mapping against listed walks.

    Exact within budget; raises CapExceededError instead of guessing
    when a limit is hit.  Intended as the reference the production
    solver is measured against, so it shares only the automaton
    construction with it, none of the search machinery.
    """
    budget = budget or OracleBudget()
    if not p.vertices:
        return NHomomorphism({}, {})
    if not q.vertices:
        return None
    count = len(q.vertices) ** len(p.vertices)
    if count > budget.max_mapping_count:
        raise CapExceededError(
            f"{count} candidate mappings exceed {budget.max_mapping_count}")
    labels: list[RegexAst] = []
    for arc in p.arcs:
        if arc.label not in labels:
            labels.append(arc.label)
    tables = {e: _walk_table(q, e, budget) for e in labels}
    order = tuple(sorted(q.vertices))
    for image in itertools.product(order, repeat=len(p.vertices)):
        mapping = dict(zip(p.vertices, image))
        witnesses: dict[int, tuple[int, ...]] = {}
        for i, arc in enumerate(p.arcs):
            walk = tables[arc.label].get((mapping[arc.src], mapping[arc.dst]))
            if walk is None:
                break
            witnesses[i] = walk
        else:
            return NHomomorphism(mapping, witnesses)
    return None


# ---------------------------------------------------------------------------
# Seeded generators


def _rng_of(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_regex(seed, size: int, alphabet) -> RegexAst:
    """A random expression with at most size AST nodes."""
    alpha = tuple(alphabet)
    if not alpha:
        raise PreconditionError("alphabet must be nonempty")
    if size < 1:
        raise PreconditionError("size must be positive")
    rng = _rng_of(seed)

    def build(n: int) -> RegexAst:
        if n <= 1:
            return Sym(rng.choice(alpha))
        if n == 2:
            if rng.random() < 0.5:
                return Star(Sym(rng.choice(alpha)))
            return Sym(rng.choice(alpha))
        roll = rng.random()
        if roll < 0.15:
            return Sym(rng.choice(alpha))
        if roll < 0.40:
            return Star(build(n - 1))
        k = rng.randint(1, n - 2)
        left = build(k)
        right = build(n - 1 - k)
        return Union(left, right) if roll < 0.70 else Concat(left, right)

    return build(size)


def _coerce_kind(kind) -> LabelKind:
    if isinstance(kind, LabelKind):
        return kind
    try:
        return LabelKind(kind)
    except ValueError:
        raise PreconditionError(f"unknown label kind {kind!r}") from None


def random_rgp(seed, n_vertices: int, n_arcs: int,
               kind=LabelKind.GENERAL, alphabet=("a", "b"),
               max_label_size: int = 4) -> Rgp:
    """A random pattern with the requested label shape."""
    if n_vertices < 1 or n_arcs < 0:
        raise PreconditionError("need at least one vertex and >= 0 arcs")
    kind = _coerce_kind(kind)
    alpha = tuple(sorted(set(alphabet)))
    rng = _rng_of(seed)
    verts = tuple(f"v{i}" for i in range(n_vertices))
    base = alpha[0]
    arcs: list[Arc] = []
    for _ in range(n_arcs):
        src = rng.choice(verts)
        dst = rng.choice(verts)
        if kind is LabelKind.GENERAL:
            label = random_regex(rng, rng.randint(1, max_label_size), alpha)
        elif kind is LabelKind.ALL_SINGLE_A:
            label = Sym(base)
        else:
            label = plus(Sym(base)) if rng.random() < 0.5 else Sym(base)
        arcs.append(Arc(src, dst, label))
    used = alpha if kind is LabelKind.GENERAL else (base,)
    return Rgp(alphabet=used, vertices=verts, arcs=tuple(arcs))


def random_unary_pattern(seed, n_vertices: int, n_arcs: int,
                         undirected: bool = False) -> Rgp:
    """A random {a, a+} pattern, optionally with arcs mirrored in pairs.

    Mirrored instances satisfy is_undirected, so they feed the
    undirected template machinery directly.
    """
    if n_vertices < 1 or n_arcs < 0:
        raise PreconditionError("need at least one vertex and >= 0 arcs")
    rng = _rng_of(seed)
    verts = tuple(f"v{i}" for i in range(n_vertices))
    arcs: list[Arc] = []
    seen: set[tuple[str, str]] = set()
    for _ in range(n_arcs):
        src = rng.choice(verts)
        dst = rng.choice(verts)
        label = plus(Sym("a")) if rng.random() < 0.5 else Sym("a")
        if undirected:
            for s, d in ((src, dst), (dst, src)):
                if (s, d) not in seen:
                    seen.add((s, d))
                    arcs.append(Arc(s, d, label))
        else:
            arcs.append(Arc(src, dst, label))
    return Rgp(alphabet=("a",), vertices=verts, arcs=tuple(arcs))
