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

Everything runs on bitsets. Vertices are indexed in q.vertices order,
a set of DFA states is an int bitmask, and the node (S, v) is the int
S * |V| + v.

- Label images. For each distinct target arc label B, images[s] is the
  bitmask of DFA states reachable from s by a word of L(B). One forward
  pass walks the product of the DFA with B's NFA from every (s,
  initial) at once; a backward pass then pushes the DFA state of each
  reachable accepting node back along reversed edges until nothing
  changes, and images[s] is what arrives at (s, initial). The image of
  a whole state set is memoised per label.
- Relation rows from every source at once. relation_for_label puts
  each source's bit on the successors of its out-arcs, so only
  nonempty walks count, and a worklist forwards newly arrived source
  bits through the product graph until nothing changes. rows[v], the
  OR of the masks at the nodes (S, v) whose S is all-accepting, holds
  every source joined to v. relation_for_label renumbers these by
  vertex name into the relation's column masks, and fills the row
  masks in the same pass, so the CSP takes the relation as it is.
- Witnesses on demand. WalkRelation.witness(u, v) runs a BFS from u
  that stops at v, which gives a shortest walk with ties broken by arc
  index, and memoises it; only the arcs of a final map need one.

Every pass ticks the budget once per product node, in batches.
"""

from __future__ import annotations

from collections.abc import (Callable, Iterable, Iterator, Mapping, Sequence,
                             Set)
from dataclasses import dataclass, field

from .automata import Nfa, compile_nfa, determinize
from .csp import Rows, _bits
from .errors import PreconditionError, SearchBudget
from .regexes import RegexAst
from .rgp import Rgp

# Budget ticks are taken this many product nodes at a time.
TICK_BATCH = 256


def _flood(seeds: dict[int, int], successors: Callable[[int], Iterable[int]],
           budget: SearchBudget) -> dict[int, int]:
    """masks[x] = the OR of seeds[y] over every seed y from which node x
    is reachable, x itself included. A worklist forwards only the bits
    that are new at a node, and ticks the budget once per node taken."""
    masks = dict(seeds)
    # pending[x] holds the bits that reached x and were not forwarded
    # yet; x is queued exactly while it has some.
    pending = dict(seeds)
    queue = list(seeds)
    pos = 0
    while pos < len(queue):
        node = queue[pos]
        pos += 1
        if not pos % TICK_BATCH:
            budget.tick(TICK_BATCH)
        new = pending.pop(node)
        for nxt in successors(node):
            old = masks.get(nxt, 0)
            add = new & ~old
            if add:
                masks[nxt] = old | add
                if nxt in pending:
                    pending[nxt] |= add
                else:
                    pending[nxt] = add
                    queue.append(nxt)
    budget.tick(pos % TICK_BATCH)
    return masks


class _Engine:
    """Per-(target, label) search state: the label's DFA, the target's
    out-arcs by vertex index, and for each distinct target arc label
    the images of DFA states and of state sets."""

    def __init__(self, q: Rgp, e: RegexAst, budget: SearchBudget):
        self.n = len(q.vertices)
        self.index = {v: i for i, v in enumerate(q.vertices)}
        self.dfa = determinize(compile_nfa(e), q.alphabet)
        self.initial = 1 << self.dfa.initial
        self.accepting = sum(1 << s for s in self.dfa.accepting)
        # dfa_into[d2][ch] lists the DFA states d with step(d, ch) = d2.
        dfa_into: list[dict[str, list[int]]] = [
            {} for _ in range(self.dfa.n_states)]
        for d, row in enumerate(self.dfa.delta):
            for ch, d2 in row.items():
                dfa_into[d2].setdefault(ch, []).append(d)
        # dead: the DFA states from which no accepting state is reachable.
        # A state set holding one never turns all-accepting, so the
        # searches drop its nodes.
        live = set(self.dfa.accepting)
        stack = list(live)
        while stack:
            for sources in dfa_into[stack.pop()].values():
                for d in sources:
                    if d not in live:
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
                    compile_nfa(arc.label), dfa_into, budget))
            self.out[self.index[arc.src]].append(
                (i, self.index[arc.dst], self.label_ids[arc.label]))
        self._set_images: list[dict[int, int]] = [{} for _ in self.images]

    def _label_images(self, nfa: Nfa, dfa_into: list[dict[str, list[int]]],
                      budget: SearchBudget) -> list[int]:
        """images[s] = bitmask of the DFA states reachable from s by a
        word of the arc label's language, from one forward and one
        backward pass over the product of the DFA and the label's NFA,
        whose node (d, b) is the int d * |NFA| + b."""
        delta = self.dfa.delta
        width = nfa.n_states
        # Forward: every product node reachable from some (s, initial).
        order = [s * width + nfa.initial for s in range(self.dfa.n_states)]
        seen = set(order)
        pos = 0
        while pos < len(order):
            node = order[pos]
            pos += 1
            if not pos % TICK_BATCH:
                budget.tick(TICK_BATCH)
            d, b = divmod(node, width)
            for ch, targets in nfa.trans[b].items():
                base = delta[d][ch] * width
                for b2 in targets:
                    if base + b2 not in seen:
                        seen.add(base + b2)
                        order.append(base + b2)
        budget.tick(pos % TICK_BATCH)

        # Backward: reach[x] collects the DFA state of every accepting
        # node reachable from x, pushed back along reversed edges.
        nfa_into: list[dict[str, list[int]]] = [{} for _ in range(width)]
        for b in range(width):
            for ch, targets in nfa.trans[b].items():
                for b2 in targets:
                    nfa_into[b2].setdefault(ch, []).append(b)

        def into(node: int) -> Iterator[int]:
            d2, b2 = divmod(node, width)
            for ch, sources in nfa_into[b2].items():
                for d in dfa_into[d2].get(ch, ()):
                    for b in sources:
                        if d * width + b in seen:
                            yield d * width + b

        reach = _flood({node: 1 << (node // width) for node in reversed(order)
                        if node % width in nfa.accepting}, into, budget)
        return [reach.get(s * width + nfa.initial, 0)
                for s in range(self.dfa.n_states)]

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

    def rows(self, budget: SearchBudget) -> list[int]:
        """rows[v] = bitmask of the sources u with a qualifying nonempty
        walk from u to v, from one worklist pass over all sources."""
        n = self.n
        # Parallel arcs with one label lead to the same node.
        succ = [sorted({(dst, label) for _, dst, label in arcs})
                for arcs in self.out]
        dead = self.dead

        def successors(node: int) -> Iterator[int]:
            states, v = divmod(node, n)
            for dst, label in succ[v]:
                image = self.step(label, states)
                if not image & dead:
                    yield image * n + dst

        # Each source's bit starts on the successors of its start node, so
        # the empty walk counts for no pair.
        seeds: dict[int, int] = {}
        for u in range(n):
            for node in successors(self.initial * n + u):
                seeds[node] = seeds.get(node, 0) | 1 << u
        masks = _flood(seeds, successors, budget)
        rows = [0] * n
        rejecting = ~self.accepting
        for node, mask in masks.items():
            states, v = divmod(node, n)
            if not states & rejecting:
                rows[v] |= mask
        return rows

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


def walk_length_bound(q: Rgp, e: RegexAst) -> int:
    """2^d * |V(q)| where d counts the states of the label's DFA."""
    dfa = determinize(compile_nfa(e), q.alphabet)
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
    names = tuple(sorted(q.vertices))
    position = {v: i for i, v in enumerate(names)}
    # The engine numbers vertices in q.vertices order, and its rows[v]
    # holds the sources joined to v: renumbered by name, those are the
    # columns. One pass over the pairs fills the rows as well.
    renumber = [position[v] for v in q.vertices]
    rows = [0] * len(names)
    cols = [0] * len(names)
    for v, sources in enumerate(engine.rows(use_budget)):
        j = renumber[v]
        bit = 1 << j
        for u in _bits(sources):
            i = renumber[u]
            cols[j] |= 1 << i
            rows[i] |= bit
    relation = WalkRelation(label=e, target=q, names=names,
                            rows=tuple(rows), cols=tuple(cols),
                            dfa_states=engine.dfa.n_states, _engine=engine,
                            _position=position)
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
