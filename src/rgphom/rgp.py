"""Regular graph patterns: digraphs whose arcs carry regex labels.

A graph database is the special case where every label is a single
symbol. Vertices are strings; arcs are ordered and may be parallel or
looping. Walks are nonempty sequences of consecutive arcs, named by
arc index.

An arc is a named tuple (src, dst, label), so it hashes and compares in
C and equals the plain tuple of its fields; keep the two apart in sets
and dict keys. With one `Sym` per character (see regexes), comparing
two loads of one graph database never leaves C. parse_rgp builds each
arc with tuple.__new__(Arc, fields): the same object Arc(...) returns,
made in C, without the Python-level __new__ that NamedTuple generates,
which takes two to three times as long on every arc of every load.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from collections import Counter, deque
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from .errors import PreconditionError, RgpSchemaError
from .regexes import (
    RegexAst, Sym, is_plus, parse_regex, serialize_regex, symbols,
)


class Arc(NamedTuple):
    src: str
    dst: str
    label: RegexAst


@dataclass(frozen=True)
class Rgp:
    alphabet: tuple[str, ...]
    vertices: tuple[str, ...]
    arcs: tuple[Arc, ...]
    # The hash, computed on the first __hash__ call: hashing walks every
    # arc, 4.8 us on an 80-vertex, 160-arc graph database against 0.2 us
    # cached. A target is hashed on each relation cache lookup, while
    # most patterns are never hashed at all.
    _hash: int | None = field(default=None, compare=False, repr=False,
                              init=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.alphabet, self.vertices, self.arcs)))
        return self._hash  # type: ignore[return-value]

    def __post_init__(self) -> None:
        if len(set(self.alphabet)) != len(self.alphabet):
            raise RgpSchemaError("duplicate alphabet symbols")
        if any(not v or not isinstance(v, str) for v in self.vertices):
            raise RgpSchemaError("vertex ids must be nonempty strings")
        if len(set(self.vertices)) != len(self.vertices):
            raise RgpSchemaError("duplicate vertex ids")
        declared = set(self.vertices)
        alpha = set(self.alphabet)
        # Equal labels are checked once.
        checked: set[RegexAst] = set()
        for i, arc in enumerate(self.arcs):
            if arc.src not in declared or arc.dst not in declared:
                raise RgpSchemaError(
                    f"arc {i} references an undeclared vertex")
            if arc.label in checked:
                continue
            extra = symbols(arc.label) - alpha
            if extra:
                raise RgpSchemaError(
                    f"arc {i} label uses symbols outside the alphabet: "
                    f"{sorted(extra)}")
            checked.add(arc.label)


def make_rgp(
    alphabet: Iterable[str],
    vertices: Sequence[str],
    arcs: Iterable[tuple[str, str, "RegexAst | str"]],
) -> Rgp:
    """Convenience constructor accepting surface-syntax labels; each
    distinct label string is parsed once."""
    alpha = tuple(sorted(set(alphabet)))
    parsed: dict[str, RegexAst] = {}
    built = []
    for src, dst, label in arcs:
        if isinstance(label, str):
            text = label
            label = parsed.get(text)
            if label is None:
                label = parsed[text] = parse_regex(text, alpha)
        built.append(Arc(src, dst, label))
    return Rgp(alphabet=alpha, vertices=tuple(vertices), arcs=tuple(built))


def parse_rgp(doc: "str | Mapping") -> Rgp:
    """Parse the JSON document format into an Rgp.

    Format: {"alphabet": ["a"], "vertices": ["u", "v"],
             "arcs": [{"from": "u", "to": "v", "label": "a+"}]}
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise RgpSchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise RgpSchemaError("document must be a JSON object")
    for key in ("alphabet", "vertices", "arcs"):
        if key not in doc:
            raise RgpSchemaError(f"missing required key {key!r}")
    alphabet = doc["alphabet"]
    if (not isinstance(alphabet, list)
            or any(not isinstance(c, str) or len(c) != 1 for c in alphabet)):
        raise RgpSchemaError("alphabet must be a list of single characters")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or any(not isinstance(v, str) for v in vertices):
        raise RgpSchemaError("vertices must be a list of strings")
    if not isinstance(doc["arcs"], list):
        raise RgpSchemaError("arcs must be a list")
    alpha = tuple(sorted(set(alphabet)))
    # Each distinct label string is parsed once, against the alphabet;
    # a bad one fails at the first arc that carries it. Rgp's own checks
    # (vertex ids, then endpoints) run after every label has parsed.
    parsed: dict[str, RegexAst] = {}
    arcs = []
    for i, entry in enumerate(doc["arcs"]):
        # dict comes first: an isinstance check against the Mapping ABC
        # alone runs Python code on every arc.
        if not isinstance(entry, (dict, Mapping)):
            raise RgpSchemaError(f"arc {i} must be an object")
        src, dst, text = entry.get("from"), entry.get("to"), entry.get("label")
        if not (isinstance(src, str) and isinstance(dst, str)
                and isinstance(text, str)):
            key = next(k for k in ("from", "to", "label")
                       if not isinstance(entry.get(k), str))
            raise RgpSchemaError(f"arc {i} needs string field {key!r}")
        label = parsed.get(text)
        if label is None:
            try:
                label = parsed[text] = parse_regex(text, alpha)
            except ValueError as exc:
                raise RgpSchemaError(f"arc {i} label: {exc}") from exc
        arcs.append(tuple.__new__(Arc, (src, dst, label)))
    return Rgp(alpha, tuple(vertices), tuple(arcs))


def serialize_rgp(p: Rgp) -> dict:
    """Inverse of parse_rgp, with labels in canonical surface syntax."""
    return {
        "alphabet": list(p.alphabet),
        "vertices": list(p.vertices),
        "arcs": [
            {"from": a.src, "to": a.dst, "label": serialize_regex(a.label)}
            for a in p.arcs
        ],
    }


def is_graph_database(p: Rgp) -> bool:
    return all(isinstance(a.label, Sym) for a in p.arcs)


class LabelKind(enum.Enum):
    ALL_SINGLE_A = "all_single_a"
    UNARY_A_APLUS = "unary_a_aplus"
    GENERAL = "general"


@dataclass(frozen=True)
class LabelClass:
    kind: LabelKind
    symbol: str | None


def label_class(p: Rgp) -> LabelClass:
    """Classify the labels by shape: all one symbol a, all in {a, a+}
    for one symbol a, or anything else."""
    symbol: str | None = None
    saw_plus = False
    for arc in p.arcs:
        node = arc.label
        if isinstance(node, Sym):
            ch = node.char
        elif is_plus(node) and isinstance(node.left, Sym):  # type: ignore[union-attr]
            ch = node.left.char  # type: ignore[union-attr]
            saw_plus = True
        else:
            return LabelClass(LabelKind.GENERAL, None)
        if symbol is None:
            symbol = ch
        elif symbol != ch:
            return LabelClass(LabelKind.GENERAL, None)
    kind = LabelKind.UNARY_A_APLUS if saw_plus else LabelKind.ALL_SINGLE_A
    return LabelClass(kind, symbol)


def directed_path_order(p: Rgp) -> tuple[str, ...] | None:
    """The unique source-to-sink vertex order if the digraph is a
    directed path (labels ignored), else None."""
    n = len(p.vertices)
    if len(p.arcs) != n - 1 and not (n == 0 and not p.arcs):
        return None
    if n == 0:
        return ()
    succ: dict[str, str] = {}
    indeg: dict[str, int] = {v: 0 for v in p.vertices}
    for arc in p.arcs:
        if arc.src in succ or arc.src == arc.dst:
            return None
        succ[arc.src] = arc.dst
        indeg[arc.dst] += 1
    starts = [v for v in p.vertices if indeg[v] == 0]
    if len(starts) != 1 or any(d > 1 for d in indeg.values()):
        return None
    order = [starts[0]]
    while order[-1] in succ:
        order.append(succ[order[-1]])
        if len(order) > n:
            return None
    return tuple(order) if len(order) == n else None


def is_undirected(p: Rgp) -> bool:
    """True when arcs pair up symmetrically with equal labels (loops
    are their own reverse)."""
    forward = Counter(p.arcs)
    backward = Counter((a.dst, a.src, a.label) for a in p.arcs)
    return forward == backward


def is_connected(p: Rgp) -> bool:
    neighbors: dict[str, set[str]] = {v: set() for v in p.vertices}
    for arc in p.arcs:
        neighbors[arc.src].add(arc.dst)
        neighbors[arc.dst].add(arc.src)
    return len(_reach(neighbors, p.vertices[:1])) == len(p.vertices)


def _reach(successors, starts) -> set:
    """Every node reachable from starts, the starts included;
    successors[x] lists the successors of x."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for y in successors[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _is_acyclic(p: Rgp) -> bool:
    out: dict[str, list[str]] = {v: [] for v in p.vertices}
    indeg = {v: 0 for v in p.vertices}
    for arc in p.arcs:
        out[arc.src].append(arc.dst)
        indeg[arc.dst] += 1
    queue = deque(v for v in p.vertices if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(p.vertices)


def _leveling(p: Rgp) -> tuple[dict[str, int] | None, tuple[tuple[int, int], ...] | None]:
    """Assign levels by propagating +1 along arcs and -1 against them.

    A consistent assignment exists exactly when every closed undirected
    walk has signed length zero, which also rules out directed cycles.
    On conflict the two discovery paths plus the conflicting arc form a
    verifiable nonzero closed walk.

    Returns (levels, None), levels 1-based in each component with
    level(head) = level(tail) + 1 on every arc, or (None, witness), the
    closed walk as (arc index, +1 forward or -1 backward) steps.
    """
    incident: dict[str, list[tuple[int, int, str]]] = {v: [] for v in p.vertices}
    for i, arc in enumerate(p.arcs):
        incident[arc.src].append((i, +1, arc.dst))
        incident[arc.dst].append((i, -1, arc.src))

    level: dict[str, int] = {}
    parent: dict[str, tuple[str, int, int] | None] = {}
    components: list[list[str]] = []
    for root in p.vertices:
        if root in level:
            continue
        level[root] = 0
        parent[root] = None
        component = [root]
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for arc_index, direction, w in incident[u]:
                expected = level[u] + direction
                if w not in level:
                    level[w] = expected
                    parent[w] = (u, arc_index, direction)
                    component.append(w)
                    queue.append(w)
                elif level[w] != expected:
                    return None, _conflict_walk(parent, u, w, arc_index, direction)
        components.append(component)

    for component in components:
        base = min(level[v] for v in component)
        for v in component:
            level[v] = level[v] - base + 1
    return level, None


def _path_to_root(parent, v) -> list[tuple[int, int]]:
    steps = []
    while parent[v] is not None:
        u, arc_index, direction = parent[v]
        steps.append((arc_index, direction))
        v = u
    return steps


def _conflict_walk(parent, u, w, arc_index, direction) -> tuple[tuple[int, int], ...]:
    # root -> u, the conflicting arc u -> w, then w -> root.
    to_u = list(reversed(_path_to_root(parent, u)))
    from_w = [(i, -d) for i, d in _path_to_root(parent, w)]
    return tuple(to_u + [(arc_index, direction)] + from_w)


def signed_walk_sum(p: Rgp, walk: Sequence[tuple[int, int]]) -> int:
    """Signed length of an undirected closed walk; also validates it."""
    if not walk:
        raise PreconditionError("empty walk")
    total = 0
    position = None
    for arc_index, direction in walk:
        arc = p.arcs[arc_index]
        tail, head = (arc.src, arc.dst) if direction == 1 else (arc.dst, arc.src)
        if position is not None and position != tail:
            raise PreconditionError("walk steps do not chain")
        position = head
        total += direction
    return total


def is_walk(p: Rgp, walk: Sequence[int]) -> bool:
    """Nonempty, consecutive arcs chained head to tail."""
    if not walk:
        return False
    if any(i < 0 or i >= len(p.arcs) for i in walk):
        return False
    return all(p.arcs[walk[k]].dst == p.arcs[walk[k + 1]].src
               for k in range(len(walk) - 1))


def walk_endpoints(p: Rgp, walk: Sequence[int]) -> tuple[str, str]:
    if not is_walk(p, walk):
        raise PreconditionError(f"not a walk: {list(walk)}")
    return p.arcs[walk[0]].src, p.arcs[walk[-1]].dst


def delete_arc(p: Rgp, index: int) -> Rgp:
    return Rgp(p.alphabet, p.vertices,
               p.arcs[:index] + p.arcs[index + 1:])


def delete_vertex(p: Rgp, vertex: str) -> Rgp:
    return Rgp(
        p.alphabet,
        tuple(v for v in p.vertices if v != vertex),
        tuple(a for a in p.arcs if vertex not in (a.src, a.dst)),
    )


def export_dot(p: Rgp) -> str:
    """Graphviz rendering with arc labels in surface syntax."""
    lines = ["digraph rgp {"]
    for v in p.vertices:
        lines.append(f'  {_dot_quote(v)};')
    for arc in p.arcs:
        label = _dot_escape(serialize_regex(arc.label))
        lines.append(
            f'  {_dot_quote(arc.src)} -> {_dot_quote(arc.dst)} '
            f'[label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
