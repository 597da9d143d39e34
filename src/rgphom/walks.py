"""Witness-walk search inside a target pattern.

A pattern arc labeled E maps onto a walk W of the target only when
every word readable along W belongs to L(E). The engine runs on E's
NFA and builds no DFA. Reading a word from the initial state reaches
a mask, the bitmask of the NFA states that word leads to, and the
words readable along a walk reach a set of masks. A walk qualifies
exactly when every such mask holds an accepting state, and it can
never be extended to one that qualifies once some mask is empty, as
every state of E's position automaton reaches an accepting one
(automata); such a set is dead.

Both tests, and the step of a mask on a symbol, are monotone under
inclusion, so only the minimal masks matter: the engine keeps the
antichain of them, as languages._missing_word does (De Wulf, Doyen,
Henzinger and Raskin, CAV 2006). Antichains are interned to ints, and
the node (A, v), for the antichain A and the current vertex v, is the
int A * |V| + v, vertices indexed in sorted-name order. Taking minimal
masks commutes with the step and with both tests, so this quotient of
the subset-DFA search qualifies the same walks and finds the same
first walk in BFS order. It only merges nodes, so it keeps the worst
case of 2^d * |V| nodes for the d states of E's DFA (walk_length_bound)
and cuts the nodes actually reached.

- Label images, on demand. The image of a mask M under a target arc
  label B is the antichain of minimal masks that words of L(B) lead M
  to. A BFS over the pairs (mask, state of B's NFA), started at
  (M, initial), steps masks with automata._step and drops a pair when
  a mask kept at the same NFA state is a subset of its own; the masks
  kept at B's accepting states, minimised, are the image. An empty
  mask there makes the image dead and ends the search. Images are memoised
  per (arc label, mask), and the image of an antichain, the minimal
  masks of its masks' images, per (arc label, antichain).
- Relation rows from every source at once. The walk graph is
  condensed with Tarjan's algorithm (_condense): one iterative
  depth-first search enters each reachable node once and returns its
  strongly connected components sinks first, and a fold over that
  component DAG (Nuutila's transitive-closure scheme) gives every
  node's reach in one visit per node and arc. The search starts from
  the successors of every start node (initial, u), so only nonempty
  walks count. A sinks-first fold gives each component the vertex
  bits v of the qualifying nodes (A, v) it reaches, and rows[u] is the
  OR of the folds at the successors of (initial, u). A forward fold in
  topological order pushes each source's bit from those successors
  down the component DAG, and cols[v] is the OR of the source bits
  arriving at the qualifying nodes (A, v). The engine's vertex order
  is the relation's, so the CSP takes rows and cols as they come.
- Witnesses on demand. WalkRelation.witness(u, v) runs a BFS from u
  that stops at v, which gives a shortest walk with ties broken by arc
  index, and memoises it; only the arcs of a final map need one.

Every search ticks the budget of the call that runs it once per
product node: an image search once per (mask, NFA state) pair, the
walk passes once per node (A, v). The label and arc-label NFAs come
from the bounded cache of languages, and the relation cache keeps the
latest 1024 relations.
"""

from __future__ import annotations

from collections.abc import (Callable, Iterable, Iterator, Mapping, Sequence,
                             Set)
from dataclasses import dataclass, field

from .automata import _step, _successor_masks, determinize
from .csp import Rows, _bits
from .errors import PreconditionError, SearchBudget
from .languages import _compiled, _moves
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
                budget.tick()
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
    """Per-(target, label) search state: the label's successor masks
    and accepting states, the target's out-arcs by vertex index, the
    interned antichains, and per distinct target arc label its NFA's
    moves and the memoised images of masks and of antichains.

    Images are computed on first use and tick the budget passed to the
    call that needs them, so an engine holds no budget of its own."""

    def __init__(self, q: Rgp, e: RegexAst):
        self.n = len(q.vertices)
        self.names = tuple(sorted(q.vertices))
        self.index = {v: i for i, v in enumerate(self.names)}
        nfa = _compiled(e)
        self.masks = _successor_masks(nfa, q.alphabet)
        self.accepting = nfa.accepting
        # antichains[k] is the antichain with id k, its masks sorted;
        # rejecting[k] tells whether one of them holds no accepting state.
        self.ids: dict[tuple[int, ...], int] = {}
        self.antichains: list[tuple[int, ...]] = []
        self.rejecting: list[bool] = []
        self._intern((1 << nfa.initial,))
        # out[v] lists (arc index, dst index, label id) in arc order.
        self.out: list[list[tuple[int, int, int]]] = [[] for _ in q.vertices]
        # arc_moves[k] is the _moves of the NFA of arc label k.
        self.label_ids: dict[RegexAst, int] = {}
        self.arc_moves: list[tuple[list, set[int]]] = []
        for i, arc in enumerate(q.arcs):
            if arc.label not in self.label_ids:
                self.label_ids[arc.label] = len(self.arc_moves)
                self.arc_moves.append(_moves(_compiled(arc.label)))
            self.out[self.index[arc.src]].append(
                (i, self.index[arc.dst], self.label_ids[arc.label]))
        # _mask_images[k][M] is the image of the mask M under arc label k,
        # images[k][A] that of the antichain with id A; None or -1 when
        # the image holds a dead mask.
        self._mask_images: list[dict[int, tuple[int, ...] | None]] = [
            {} for _ in self.arc_moves]
        self.images: list[dict[int, int]] = [{} for _ in self.arc_moves]

    def _intern(self, antichain: tuple[int, ...]) -> int:
        k = self.ids.get(antichain)
        if k is None:
            k = self.ids[antichain] = len(self.antichains)
            self.antichains.append(antichain)
            self.rejecting.append(
                any(not m & self.accepting for m in antichain))
        return k

    def _mask_image(self, label_id: int, mask: int,
                    budget: SearchBudget) -> tuple[int, ...] | None:
        """The minimal masks that words of the arc label's language lead
        mask to, or None when one of them is dead, that is empty. A BFS
        over the nodes (M, b), b a state of the arc label's NFA, steps M
        on each symbol b reads, and drops a node when a mask kept at b
        is a subset of its own: every mask that node leads to contains
        one the kept node leads to. The masks kept at the NFA's
        accepting states are therefore the image, up to minimisation."""
        moves, accepting = self.arc_moves[label_id]
        masks = self.masks
        # State 0 is the initial state of a position automaton.
        kept: list[list[int]] = [[mask]] + [[] for _ in moves[1:]]
        queue = [(mask, 0)]
        pos = 0
        while pos < len(queue):
            subset, b = queue[pos]
            pos += 1
            budget.tick()
            for ch, targets in moves[b]:
                image = _step(subset, masks[ch])
                for b2 in targets:
                    antichain = kept[b2]
                    if any(not m & ~image for m in antichain):
                        continue
                    kept[b2] = [m for m in antichain if image & ~m]
                    kept[b2].append(image)
                    if not image and b2 in accepting:
                        return None
                    queue.append((image, b2))
        return _minimal([m for b in accepting for m in kept[b]])

    def step(self, label_id: int, antichain: int,
             budget: SearchBudget) -> int:
        """The id of the image of an antichain under a target arc label,
        or -1 when that image holds a dead mask."""
        memo = self.images[label_id]
        image = memo.get(antichain)
        if image is None:
            mask_memo = self._mask_images[label_id]
            union: list[int] = []
            for mask in self.antichains[antichain]:
                if mask not in mask_memo:
                    mask_memo[mask] = self._mask_image(label_id, mask, budget)
                part = mask_memo[mask]
                if part is None:
                    image = -1
                    break
                union.extend(part)
            else:
                image = self._intern(_minimal(union))
            memo[antichain] = image
        return image

    def rows(self, budget: SearchBudget) -> tuple[list[int], list[int]]:
        """(rows, cols): bit v of rows[u], and bit u of cols[v], is set
        when a qualifying nonempty walk leads from u to v. The product
        graph is condensed from the successors of every (initial, u);
        rows fold the vertex bits of qualifying nodes sinks first, cols
        fold the source bits forward in topological order."""
        n = self.n
        # Parallel arcs with one label lead to the same node.
        out = [sorted({(dst, label) for _, dst, label in arcs})
               for arcs in self.out]
        step = self.step

        def successors(node: int) -> list[int]:
            antichain, v = divmod(node, n)
            return [image * n + dst for dst, label in out[v]
                    if (image := step(label, antichain, budget)) >= 0]

        # Each source starts on the successors of its start node, the
        # initial antichain (id 0) at u, so the empty walk counts for no
        # pair.
        firsts = [successors(u) for u in range(n)]
        components, comp, succ = _condense(
            (x for first in firsts for x in first), successors, budget)
        rejecting = self.rejecting

        def own(x: int) -> int:
            return 0 if rejecting[x // n] else 1 << x % n

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
                if not rejecting[x // n]:
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
        rejecting = self.rejecting
        parents: dict[int, tuple[int, int]] = {}
        queue = [-1]
        pos = 0
        while pos < len(queue):
            node = queue[pos]
            pos += 1
            budget.tick()
            antichain, v = divmod(node, n) if node >= 0 else (0, source)
            for arc_index, dst, label in self.out[v]:
                image = self.step(label, antichain, budget)
                nxt = image * n + dst
                if image < 0 or nxt in parents:
                    continue
                parents[nxt] = (node, arc_index)
                if dst == target and not rejecting[image]:
                    return self._walk_to(parents, nxt)
                queue.append(nxt)
        return None

    @staticmethod
    def _walk_to(parents: dict[int, tuple[int, int]],
                 node: int) -> tuple[int, ...]:
        walk: list[int] = []
        while node >= 0:
            node, arc_index = parents[node]
            walk.append(arc_index)
        return tuple(reversed(walk))


def _minimal(masks: list[int]) -> tuple[int, ...]:
    """The antichain of the inclusion-minimal masks, sorted."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(k & ~m for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class WalkRelation(Rows):
    """All vertex pairs of a target joinable by a walk matching a label.

    names is the target's vertices in sorted-name order, and the
    relation is the Rows of the joinable pairs over it: bit j of rows[i]
    is set when (names[i], names[j]) is joinable, and cols is the
    transpose. The CSP takes it as it is; pairs is a read-only set view
    of the same pairs. antichains counts the distinct antichains of the
    label's NFA-state masks that the search interned.

    witness(u, v) gives one shortest witness walk per pair (ties broken
    by arc index), found on first request and memoised; witnesses is a
    read-only mapping from every pair to that walk.
    """

    label: RegexAst
    target: Rgp
    names: tuple[str, ...]
    antichains: int
    _engine: _Engine = field(repr=False, compare=False)
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
        index = self._engine.index
        i = index.get(u)
        j = index.get(v)
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


_RELATION_CACHE_SIZE = 1024
_relation_cache: dict[tuple[RegexAst, Rgp], WalkRelation] = {}


def clear_relation_cache() -> None:
    _relation_cache.clear()


def walk_length_bound(q: Rgp, e: RegexAst,
                      budget: SearchBudget | None = None) -> int:
    """2^d * |V(q)| where d counts the states of the label's DFA;
    determinizing the label ticks the budget. The engine's antichain
    nodes only merge the nodes (set of DFA states, vertex) of the
    subset search, so this bounds the length of the shortest witness
    walks it finds."""
    dfa = determinize(_compiled(e), q.alphabet, budget)
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
    engine = _Engine(q, e)
    return engine.walk(engine.index[u], engine.index[v],
                       budget or SearchBudget())


def relation_for_label(
    q: Rgp,
    e: RegexAst,
    budget: SearchBudget | None = None,
) -> WalkRelation:
    """The full walk relation for a label over a target, memoized per
    structurally equal (label, target) pair; the memo keeps the latest
    1024 relations and evicts the oldest first."""
    key = (e, q)
    cached = _relation_cache.get(key)
    if cached is not None:
        return cached
    engine = _Engine(q, e)
    rows, cols = engine.rows(budget or SearchBudget())
    relation = WalkRelation(label=e, target=q, names=engine.names,
                            rows=tuple(rows), cols=tuple(cols),
                            antichains=len(engine.antichains),
                            _engine=engine)
    if len(_relation_cache) >= _RELATION_CACHE_SIZE:
        del _relation_cache[next(iter(_relation_cache))]
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
