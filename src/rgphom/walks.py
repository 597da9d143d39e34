"""Witness-walk search inside a target pattern.

A pattern arc labeled E maps onto a walk W of the target only when
every word readable along W belongs to L(E). The engine determinizes
E into a d-state DFA and searches nodes (S, v), where S is the set of
DFA states reachable by reading any word of the walk so far and v is
the current vertex. Traversing an arc labeled B sends S to the union
of the exact images of its states under words of L(B), which is
deterministic, so each walk yields one node, and a walk qualifies
exactly when its final S contains only accepting states. Nodes number
at most 2^d * |V|, which bounds the length of shortest witnesses.

Everything runs on bitsets. Vertices are indexed in sorted-name order,
a set of DFA states is an int bitmask, and the node (S, v) is the int
S * |V| + v.

Both passes below condense a product graph with Tarjan's algorithm
(_condense): one iterative depth-first search enters each reachable
node once and returns its strongly connected components sinks first.
A fold over that component DAG (Nuutila's transitive-closure scheme)
then gives every node's reach in one visit per node and arc.

- Label images. For each distinct target arc label B, images[s] is the
  bitmask of DFA states reachable from s by a word of L(B). The product
  of the DFA with B's NFA is condensed from every (s, initial) at once,
  the DFA states of its accepting nodes are folded sinks first, and
  images[s] is the fold at (s, initial). The image of a whole state set
  is memoised per label.
- Relation rows from every source at once. The walk graph is condensed
  from the successors of every start node (initial, u), so only
  nonempty walks count. A sinks-first fold gives each component the
  vertex bits v of the nodes (S, v) it reaches whose S is
  all-accepting, and rows[u] is the OR of the folds at the successors
  of (initial, u). A forward fold in topological order pushes each
  source's bit from those successors down the component DAG, and
  cols[v] is the OR of the source bits arriving at the all-accepting
  nodes (S, v). The engine's vertex order is the relation's, so the
  CSP takes rows and cols as they come.
- Witnesses on demand. WalkRelation.witness(u, v) runs a BFS from u
  that stops at v, which gives a shortest walk with ties broken by arc
  index, and memoises it; only the arcs of a final map need one.

Every pass ticks the budget once per product node, in batches, and
determinizing the label ticks it once per DFA state.
"""

from __future__ import annotations

from collections.abc import (Callable, Iterable, Iterator, Mapping, Sequence,
                             Set)
from dataclasses import dataclass, field

from .automata import Nfa, compile_nfa, determinize
from .csp import Rows, _bits
from .errors import TICK_BATCH, PreconditionError, SearchBudget
from .regexes import RegexAst
from .rgp import Rgp


def _condense(starts: Iterable[int],
              successors: Callable[[int], list[int]],
              budget: SearchBudget,
              ) -> tuple[list[list[int]], dict[int, int], dict[int, list[int]]]:
    """Tarjan's strongly connected components of the nodes reachable from
    starts, by an iterative depth-first search that visits each node
    once and ticks the budget once per node.

    Returns the components sinks first, so every arc that leaves a
    component enters an earlier one; the component index of each node;
    and each node's successor list."""
    # low[x] starts as x's depth on the component stack; a node is on
    # that stack exactly while it is in low but not yet in comp.
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    succ: dict[int, list[int]] = {}
    components: list[list[int]] = []
    stack: list[int] = []
    # work holds (node, its depth, its unexplored successors) along the
    # current search path; nxt is the node to enter next, or -1.
    work: list[tuple[int, int, Iterator[int]]] = []
    for nxt in starts:
        if nxt in low:
            continue
        while True:
            if nxt >= 0:
                depth = len(stack)
                low[nxt] = depth
                if not len(low) % TICK_BATCH:
                    budget.tick(TICK_BATCH)
                out = succ[nxt] = successors(nxt)
                stack.append(nxt)
                work.append((nxt, depth, iter(out)))
            node, depth, rest = work[-1]
            nxt = -1
            for y in rest:
                if y not in low:
                    nxt = y
                    break
                if y not in comp and low[y] < low[node]:
                    low[node] = low[y]
            else:
                work.pop()
                if low[node] == depth:
                    if stack[-1] == node:
                        members = [stack.pop()]
                    else:
                        members = stack[depth:]
                        del stack[depth:]
                    for x in members:
                        comp[x] = len(components)
                    components.append(members)
                    if not work:
                        break
                elif low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    budget.tick(len(low) % TICK_BATCH)
    return components, comp, succ


def _fold(components: list[list[int]], comp: dict[int, int],
          succ: dict[int, list[int]], own: Callable[[int], int]) -> list[int]:
    """masks[c] = the OR of own(x) over every node x reachable from
    component c, read off the components sinks first."""
    masks = [0] * len(components)
    for c, members in enumerate(components):
        mask = 0
        for x in members:
            mask |= own(x)
            for y in succ[x]:
                mask |= masks[comp[y]]
        masks[c] = mask
    return masks


class _Engine:
    """Per-(target, label) search state: the label's DFA, the target's
    out-arcs by vertex index, and for each distinct target arc label
    the images of DFA states and of state sets."""

    def __init__(self, q: Rgp, e: RegexAst, budget: SearchBudget):
        self.n = len(q.vertices)
        self.names = tuple(sorted(q.vertices))
        self.index = {v: i for i, v in enumerate(self.names)}
        self.dfa = determinize(compile_nfa(e), q.alphabet, budget)
        self.initial = 1 << self.dfa.initial
        self.accepting = sum(1 << s for s in self.dfa.accepting)
        # dead: the DFA states from which no accepting state is reachable.
        # A state set holding one never turns all-accepting, so the
        # searches drop its nodes.
        into: list[set[int]] = [set() for _ in range(self.dfa.n_states)]
        for d, row in enumerate(self.dfa.delta):
            for d2 in row.values():
                into[d2].add(d)
        live = set(self.dfa.accepting)
        stack = list(live)
        while stack:
            for d in into[stack.pop()] - live:
                live.add(d)
                stack.append(d)
        self.dead = sum(1 << s for s in range(self.dfa.n_states)
                        if s not in live)
        # out[v] lists (arc index, dst index, label id) in arc order.
        self.out: list[list[tuple[int, int, int]]] = [[] for _ in q.vertices]
        self.label_ids: dict[RegexAst, int] = {}
        self.images: list[list[int]] = []
        for i, arc in enumerate(q.arcs):
            if arc.label not in self.label_ids:
                self.label_ids[arc.label] = len(self.images)
                self.images.append(self._label_images(
                    compile_nfa(arc.label), budget))
            self.out[self.index[arc.src]].append(
                (i, self.index[arc.dst], self.label_ids[arc.label]))
        self._set_images: list[dict[int, int]] = [{} for _ in self.images]

    def _label_images(self, nfa: Nfa, budget: SearchBudget) -> list[int]:
        """images[s] = bitmask of the DFA states reachable from s by a
        word of the arc label's language. The product of the DFA and the
        label's NFA, whose node (d, b) is the int d * |NFA| + b, is
        condensed from every (s, initial) at once, and the DFA states of
        its accepting nodes are folded sinks first."""
        delta = self.dfa.delta
        trans = nfa.trans
        accepting = nfa.accepting
        width = nfa.n_states

        def successors(node: int) -> list[int]:
            d, b = divmod(node, width)
            row = delta[d]
            return [row[ch] * width + b2
                    for ch, targets in trans[b].items() for b2 in targets]

        def own(node: int) -> int:
            d, b = divmod(node, width)
            return 1 << d if b in accepting else 0

        starts = [s * width + nfa.initial for s in range(self.dfa.n_states)]
        components, comp, succ = _condense(starts, successors, budget)
        masks = _fold(components, comp, succ, own)
        return [masks[comp[x]] for x in starts]

    def step(self, label_id: int, states: int) -> int:
        """The image of a state set under a target arc label."""
        memo = self._set_images[label_id]
        image = memo.get(states)
        if image is None:
            images = self.images[label_id]
            image = 0
            for s in _bits(states):
                image |= images[s]
            memo[states] = image
        return image

    def rows(self, budget: SearchBudget) -> tuple[list[int], list[int]]:
        """(rows, cols): bit v of rows[u], and bit u of cols[v], is set
        when a qualifying nonempty walk leads from u to v. The product
        graph is condensed from the successors of every (initial, u);
        rows fold the vertex bits of all-accepting nodes sinks first,
        cols fold the source bits forward in topological order."""
        n = self.n
        # Parallel arcs with one label lead to the same node.
        out = [sorted({(dst, label) for _, dst, label in arcs})
               for arcs in self.out]
        dead = self.dead
        step = self.step

        def successors(node: int) -> list[int]:
            states, v = divmod(node, n)
            return [image * n + dst for dst, label in out[v]
                    if not (image := step(label, states)) & dead]

        # Each source starts on the successors of its start node, so the
        # empty walk counts for no pair.
        firsts = [successors(self.initial * n + u) for u in range(n)]
        components, comp, succ = _condense(
            (x for first in firsts for x in first), successors, budget)
        rejecting = ~self.accepting

        def own(x: int) -> int:
            return 0 if x // n & rejecting else 1 << x % n

        masks = _fold(components, comp, succ, own)
        rows = [0] * n
        seeds = [0] * len(components)
        for u, first in enumerate(firsts):
            for x in first:
                c = comp[x]
                rows[u] |= masks[c]
                seeds[c] |= 1 << u
        cols = [0] * n
        for c in reversed(range(len(components))):
            sources = seeds[c]
            if not sources:
                continue
            for x in components[c]:
                if not x // n & rejecting:
                    cols[x % n] |= sources
                for y in succ[x]:
                    seeds[comp[y]] |= sources
        return rows, cols

    def walk(self, source: int, target: int,
             budget: SearchBudget) -> tuple[int, ...] | None:
        """BFS from source that stops at the first qualifying walk to
        target: a shortest one, ties broken by arc index. The queue
        starts at the empty walk, -1, which is never a node."""
        n = self.n
        dead = self.dead
        rejecting = ~self.accepting
        parents: dict[int, tuple[int, int]] = {}
        queue = [-1]
        pos = 0
        while pos < len(queue):
            node = queue[pos]
            pos += 1
            if not pos % TICK_BATCH:
                budget.tick(TICK_BATCH)
            states, v = divmod(node, n) if node >= 0 else (self.initial, source)
            for arc_index, dst, label in self.out[v]:
                image = self.step(label, states)
                nxt = image * n + dst
                if image & dead or nxt in parents:
                    continue
                parents[nxt] = (node, arc_index)
                if dst == target and not nxt // n & rejecting:
                    budget.tick(pos % TICK_BATCH)
                    return self._walk_to(parents, nxt)
                queue.append(nxt)
        budget.tick(pos % TICK_BATCH)
        return None

    @staticmethod
    def _walk_to(parents: dict[int, tuple[int, int]],
                 node: int) -> tuple[int, ...]:
        walk: list[int] = []
        while node >= 0:
            node, arc_index = parents[node]
            walk.append(arc_index)
        return tuple(reversed(walk))


@dataclass(frozen=True)
class WalkRelation(Rows):
    """All vertex pairs of a target joinable by a walk matching a label.

    names is the target's vertices in sorted-name order, and the
    relation is the Rows of the joinable pairs over it: bit j of rows[i]
    is set when (names[i], names[j]) is joinable, and cols is the
    transpose. The CSP takes it as it is; pairs is a read-only set view
    of the same pairs.

    witness(u, v) gives one shortest witness walk per pair (ties broken
    by arc index), found on first request and memoised; witnesses is a
    read-only mapping from every pair to that walk.
    """

    label: RegexAst
    target: Rgp
    names: tuple[str, ...]
    dfa_states: int
    _engine: _Engine = field(repr=False, compare=False)
    _position: dict[str, int] = field(repr=False, compare=False)
    _walks: dict[tuple[str, str], tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def pairs(self) -> Set[tuple[str, str]]:
        return _Pairs(self)

    @property
    def witnesses(self) -> Mapping[tuple[str, str], tuple[int, ...]]:
        return _Witnesses(self)

    def holds(self, u: str, v: str) -> bool:
        """Whether (u, v) is a pair of the relation."""
        i = self._position.get(u)
        j = self._position.get(v)
        return i is not None and j is not None and bool(self.rows[i] >> j & 1)

    def witness(self, u: str, v: str,
                budget: SearchBudget | None = None) -> tuple[int, ...]:
        """The witness walk for (u, v), a pair of the relation; a first
        request searches for it and ticks the budget."""
        pair = (u, v)
        walk = self._walks.get(pair)
        if walk is None:
            if not self.holds(u, v):
                raise KeyError(pair)
            index = self._engine.index
            walk = self._engine.walk(index[u], index[v],
                                     budget or SearchBudget())
            self._walks[pair] = walk
        return walk


def _is_pair(item: object) -> bool:
    return isinstance(item, tuple) and len(item) == 2


class _Pairs(Set):
    """WalkRelation.pairs: the pairs, read off the row masks."""

    def __init__(self, relation: WalkRelation):
        self._relation = relation

    def __contains__(self, pair: object) -> bool:
        return _is_pair(pair) and self._relation.holds(*pair)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        names = self._relation.names
        for i, row in enumerate(self._relation.rows):
            for j in _bits(row):
                yield names[i], names[j]

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._relation.rows)


class _Witnesses(Mapping):
    """WalkRelation.witnesses: pairs to witness walks, each searched for
    on first lookup."""

    def __init__(self, relation: WalkRelation):
        self._relation = relation

    def __getitem__(self, pair: tuple[str, str]) -> tuple[int, ...]:
        if not _is_pair(pair):
            raise KeyError(pair)
        return self._relation.witness(*pair)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._relation.pairs)

    def __len__(self) -> int:
        return len(self._relation.pairs)


_relation_cache: dict[tuple[RegexAst, Rgp], WalkRelation] = {}


def clear_relation_cache() -> None:
    _relation_cache.clear()


def walk_length_bound(q: Rgp, e: RegexAst,
                      budget: SearchBudget | None = None) -> int:
    """2^d * |V(q)| where d counts the states of the label's DFA;
    determinizing the label ticks the budget."""
    dfa = determinize(compile_nfa(e), q.alphabet, budget)
    return (2 ** dfa.n_states) * len(q.vertices)


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
    return engine.walk(engine.index[u], engine.index[v], use_budget)


def relation_for_label(
    q: Rgp,
    e: RegexAst,
    budget: SearchBudget | None = None,
) -> WalkRelation:
    """The full walk relation for a label over a target, memoized per
    structurally equal (label, target) pair."""
    key = (e, q)
    cached = _relation_cache.get(key)
    if cached is not None:
        return cached
    use_budget = budget or SearchBudget()
    engine = _Engine(q, e, use_budget)
    rows, cols = engine.rows(use_budget)
    relation = WalkRelation(label=e, target=q, names=engine.names,
                            rows=tuple(rows), cols=tuple(cols),
                            dfa_states=engine.dfa.n_states, _engine=engine,
                            _position=engine.index)
    _relation_cache[key] = relation
    return relation


def witness_walks(
    p: Rgp,
    mapping: Mapping[str, str],
    relations: Sequence[WalkRelation],
    budget: SearchBudget | None = None,
) -> dict[int, tuple[int, ...]]:
    """One witness walk per arc of p under a vertex map: entry i is the
    walk for pattern arc i, from relations[i], the relation of its label."""
    return {
        i: relation.witness(mapping[arc.src], mapping[arc.dst], budget)
        for i, (arc, relation) in enumerate(zip(p.arcs, relations))
    }
