"""Enumeration-based oracles used to check the automata pipeline.

Everything here evaluates regex semantics directly on the AST, without
NFAs or DFAs, so agreement with the library is meaningful evidence.
reference_csp is the plain value-list AC-3 and backtracking that the
bitset constraint search is compared against; it shares no code with it.
reference_determinize and reference_inclusion are the frozenset subset
construction and the breadth-first search over the full DFA product
that the bitmask determinize and the on-the-fly inclusion search
replaced; they return the same DFA and the same counterexample word.
reference_simulation is the maximal forward simulation between two
NFAs as a fixpoint over explicit state pairs, apart from the worklist
over bitmasks that prunes the inclusion search.
reference_antichain_images is the walk engine's label images over
antichains of NFA-state sets, by unpruned product searches and
pairwise minimisation.
reference_compile_nfa and reference_parse_regex are the Thompson
construction with epsilon elimination and the recursive-descent parser
that the position automaton and the loop parser replaced; they return
equal NFAs, and equal ASTs or the same parse errors.
union_find_components is the union-find that connectivity checks are
compared against; it shares no search with the library.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterable, Iterator, Sequence

from rgphom.automata import Dfa, Nfa, compile_nfa, determinize
from rgphom.errors import RegexParseError
from rgphom.languages import concat_inclusion
from rgphom.regexes import _META, Concat, RegexAst, Star, Sym, Union, plus
from rgphom.rgp import Arc, Rgp, _reach


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


def reference_determinize(nfa: Nfa, alphabet: Iterable[str] = ()) -> Dfa:
    """Reachable-subset DFA over frozensets of NFA states, numbered in
    breadth-first discovery order with symbols in sorted order."""
    alpha = tuple(sorted(set(nfa.alphabet) | set(alphabet)))
    start = frozenset((nfa.initial,))
    order = [start]
    index = {start: 0}
    delta = []
    pos = 0
    while pos < len(order):
        subset = order[pos]
        pos += 1
        row = {}
        for ch in alpha:
            nxt = frozenset(t for q in subset for t in nfa.successors(q, ch))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row[ch] = index[nxt]
        delta.append(row)
    accepting = frozenset(
        i for i, subset in enumerate(order) if subset & nfa.accepting)
    return Dfa(n_states=len(order), initial=0, accepting=accepting,
               delta=tuple(delta), alphabet=alpha)


def reference_inclusion(e1: RegexAst, e2: RegexAst) -> str | None:
    """Shortest, then alphabetically first, word of L(e1) - L(e2), by a
    breadth-first search over the product of e1's NFA and the full DFA
    of e2, characters and targets in sorted order; None on inclusion."""
    n1 = compile_nfa(e1)
    d2 = reference_determinize(compile_nfa(e2), n1.alphabet)
    start = (n1.initial, d2.initial)
    parents = {}
    seen = {start}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        q1, q2 = pair
        if q1 in n1.accepting and q2 not in d2.accepting:
            word = []
            while pair != start:
                pair, ch = parents[pair]
                word.append(ch)
            return "".join(reversed(word))
        for ch in sorted(n1.trans[q1]):
            t2 = d2.step(q2, ch)
            for t1 in sorted(n1.trans[q1][ch]):
                nxt = (t1, t2)
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = (pair, ch)
                    queue.append(nxt)
    return None


def reference_simulation(n1: Nfa, n2: Nfa) -> list[int]:
    """Per state q1 of n1, the bitmask of the n2 states that simulate it.

    Starts from every pair (q1, s) where s accepts if q1 does, and
    drops a pair while some move of q1 to t1 on a symbol has no move of
    s on that symbol to a t2 with (t1, t2) still kept.
    """
    pairs = {(q1, s) for q1 in range(n1.n_states) for s in range(n2.n_states)
             if q1 not in n1.accepting or s in n2.accepting}
    changed = True
    while changed:
        changed = False
        for q1, s in sorted(pairs):
            for ch, targets in n1.trans[q1].items():
                if any(all((t1, t2) not in pairs
                           for t2 in n2.successors(s, ch))
                       for t1 in targets):
                    pairs.discard((q1, s))
                    changed = True
                    break
    return [sum(1 << s for s in range(n2.n_states) if (q1, s) in pairs)
            for q1 in range(n1.n_states)]


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


def reference_antichain_images(
    nfa: Nfa, arc_nfa: Nfa, antichains: Iterable[frozenset[frozenset[int]]],
) -> list[frozenset[frozenset[int]] | None]:
    """images[i] = the inclusion-minimal sets of nfa states that words of
    L(arc_nfa) lead the sets of antichains[i] to, or None when one of
    those sets holds no state that reaches an accepting one. Each set
    runs its own BFS over (frozenset of nfa states, arc_nfa state)
    pairs with no pruning, and the sets reached at accepting arc_nfa
    states are minimised by comparing every two."""
    live = set(nfa.accepting)
    grew = True
    while grew:
        grew = False
        for s in range(nfa.n_states):
            if s not in live and any(t in live for targets in nfa.trans[s].values()
                                     for t in targets):
                live.add(s)
                grew = True
    result: list[frozenset[frozenset[int]] | None] = []
    for antichain in antichains:
        reached: set[frozenset[int]] = set()
        for start in antichain:
            seen = {(start, arc_nfa.initial)}
            queue = deque(seen)
            while queue:
                states, b = queue.popleft()
                if b in arc_nfa.accepting:
                    reached.add(states)
                for ch, targets in arc_nfa.trans[b].items():
                    stepped = frozenset(t for s in states
                                        for t in nfa.successors(s, ch))
                    for b2 in targets:
                        if (stepped, b2) not in seen:
                            seen.add((stepped, b2))
                            queue.append((stepped, b2))
        if any(not states & live for states in reached):
            result.append(None)
        else:
            result.append(frozenset(
                states for states in reached
                if not any(other < states for other in reached)))
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


def reference_csp(variables: Sequence[str],
                  domains: dict[str, Sequence],
                  constraints: Sequence[tuple[str, str, frozenset]]) -> Iterator[dict]:
    """Every solution of a binary constraint network, in the order the
    solver promises, by plain AC-3 and backtracking over value lists.

    constraints holds (x, y, allowed pairs) triples. Arc consistency
    runs after every assignment, the variable with the fewest values
    goes first (ties by variable order), and values are tried in sorted
    order. Each ordered pair of every constraint is revised on its own,
    with no bit masks and no merging of mirrored constraints.
    """
    order = {v: i for i, v in enumerate(variables)}
    work = {v: list(dict.fromkeys(domains[v])) for v in variables}
    incident: dict[str, list[tuple[str, str, frozenset]]] = {
        v: [] for v in variables}
    for c in constraints:
        x, y, allowed = c
        if x == y:
            work[x] = [a for a in work[x] if (a, a) in allowed]
        else:
            incident[x].append(c)
            incident[y].append(c)

    def revise(c, target) -> bool:
        x, y, allowed = c
        if target == x:
            keep = [a for a in work[x] if any((a, b) in allowed for b in work[y])]
        else:
            keep = [b for b in work[y] if any((a, b) in allowed for a in work[x])]
        changed = len(keep) != len(work[target])
        work[target] = keep
        return changed

    def propagate(dirty) -> bool:
        queue = deque((c, end) for v in dirty for c in incident[v]
                      for end in c[:2] if end != v)
        while queue:
            c, target = queue.popleft()
            if revise(c, target):
                if not work[target]:
                    return False
                for c2 in incident[target]:
                    neighbor = c2[1] if c2[0] == target else c2[0]
                    queue.append((c2, neighbor))
        return True

    def search(assignment: dict) -> Iterator[dict]:
        if len(assignment) == len(variables):
            yield dict(assignment)
            return
        free = [v for v in variables if v not in assignment]
        var = min(free, key=lambda v: (len(work[v]), order[v]))
        for value in sorted(work[var]):
            saved = {v: list(work[v]) for v in free}
            work[var] = [value]
            assignment[var] = value
            if propagate([var]):
                yield from search(assignment)
            del assignment[var]
            work.update(saved)

    if propagate(list(variables)):
        yield from search({})


def reference_compile_nfa(node: RegexAst) -> Nfa:
    """The epsilon-free NFA of the expression by the Thompson
    construction: epsilon closures, then a trim renumbered in
    breadth-first discovery order, symbols sorted and targets
    ascending."""
    builder = _Thompson()
    initial, accepts = builder.build(node)
    return builder.finish(initial, accepts)


class _Thompson:
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
        closures = [_reach(eps, (q,)) for q in range(self.count)]

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


class _RecursiveParser:
    """Recursive descent; union and concatenation fold left."""

    def __init__(self, text: str, alphabet: frozenset[str]):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def error(self, message: str) -> RegexParseError:
        return RegexParseError(f"{message} at position {self.pos} in {self.text!r}")

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self) -> RegexAst:
        if not self.text:
            raise self.error("empty expression")
        node = self.union()
        if self.pos != len(self.text):
            raise self.error("unexpected character")
        return node

    def union(self) -> RegexAst:
        node = self.concat()
        while self.peek() == "|":
            self.pos += 1
            node = Union(node, self.concat())
        return node

    def concat(self) -> RegexAst:
        node = self.postfix()
        while True:
            ch = self.peek()
            if ch == ".":
                self.pos += 1
                node = Concat(node, self.postfix())
            elif ch is not None and ch not in "|)*+.":
                node = Concat(node, self.postfix())
            else:
                return node

    def postfix(self) -> RegexAst:
        node = self.atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = Star(node)
            elif ch == "+":
                self.pos += 1
                node = plus(node)
            else:
                return node

    def atom(self) -> RegexAst:
        ch = self.peek()
        if ch is None:
            raise self.error("expected a symbol or group")
        if ch == "(":
            self.pos += 1
            node = self.union()
            if self.peek() != ")":
                raise self.error("unbalanced parenthesis")
            self.pos += 1
            return node
        if ch in _META:
            raise self.error(f"operator {ch!r} has no operand")
        if ch not in self.alphabet:
            raise self.error(f"symbol {ch!r} not in alphabet")
        self.pos += 1
        return Sym(ch)


def reference_parse_regex(text: str, alphabet: Iterable[str]) -> RegexAst:
    """parse_regex by recursive descent, with the same ASTs and the same
    error messages and positions."""
    alpha = frozenset(alphabet)
    bad = sorted(c for c in alpha if len(c) != 1 or c in _META)
    if bad:
        raise RegexParseError(f"invalid alphabet entries: {bad}")
    return _RecursiveParser(text, alpha).parse()


def union_find_components(vertices: Sequence[str],
                          edges: Iterable[tuple[str, str]]) -> list[list[str]]:
    """The connected components of the undirected graph on vertices with
    the given edges, by union-find with path halving: each component in
    vertices order, the components ordered by their first member."""
    parent = {v: v for v in vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    components: dict[str, list[str]] = {}
    for v in vertices:
        components.setdefault(find(v), []).append(v)
    return list(components.values())


def shuffle_names(p: Rgp, rng) -> Rgp:
    """p with its vertices renamed by a random permutation of their
    names and declared in a random order."""
    names = list(p.vertices)
    rng.shuffle(names)
    rename = dict(zip(p.vertices, names))
    order = list(names)
    rng.shuffle(order)
    return Rgp(p.alphabet, tuple(order),
               tuple(Arc(rename[a.src], rename[a.dst], a.label)
                     for a in p.arcs))
