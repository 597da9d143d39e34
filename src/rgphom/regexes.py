"""Regular expression ASTs over single-character alphabets.

Surface syntax: `|` for union, juxtaposition (or an explicit `.`) for
concatenation, postfix `*` and `+`, parentheses for grouping. Postfix
binds tighter than concatenation, which binds tighter than union.
There are no empty-language or empty-word literals, so every AST
denotes a nonempty language. `x+` is sugar for `x.x*` and is expanded
at parse time.

parse_regex reads the text in one loop with no recursion, so nesting
depth is bounded only by memory. It keeps the union and the
concatenation read so far in the innermost open group, and saves those
of the enclosing groups on a stack when a parenthesis opens. Postfix
operators apply to the operand just read; union and concatenation
fold left. A group adds no node of its own: `((a))` parses to `a`.
Runs of plain symbols, of opening parentheses and of closing ones that
end groups holding nothing else are each taken in one step.

There is one `Sym` object per character: `Sym("a") is Sym("a")`, and a
`Sym` compares and hashes by identity, in C. The table of `Sym`s is a
plain dict keyed by character, so it holds at most one entry per
character ever used; it is never cleared.

`Union`, `Concat` and `Star` are tuples of their children followed by
a structural hash, computed from the children's hashes when the node is
built, so hashing a node costs the same at any depth. Equality is
structural: it runs on an explicit stack and stops at identical nodes,
at nodes of different types and at nodes with different hashes. So no
hash and no comparison recurses, however deep the expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Union as TUnion

from .errors import RegexParseError


_SYMS: dict[str, "Sym"] = {}


@dataclass(frozen=True, eq=False)
class Sym:
    """A single alphabet character; the one object for that character."""

    char: str

    def __new__(cls, char: str) -> "Sym":
        sym = _SYMS.get(char)
        if sym is None:
            # setdefault is atomic, so racing threads get the same Sym.
            sym = _SYMS.setdefault(char, super().__new__(cls))
        return sym

    def __reduce__(self):
        # Copies and unpickled objects go through __new__, so they keep
        # the identity of their character's Sym.
        return Sym, (self.char,)


_new = tuple.__new__


class _Node(tuple):
    """A composite node: its children, then its structural hash."""

    __slots__ = ()

    def __hash__(self) -> int:
        return self[-1]

    def __eq__(self, other: object) -> bool:
        return _equal(self, other)

    def __ne__(self, other: object) -> bool:
        return not _equal(self, other)

    def _unordered(self, other: object):
        return NotImplemented

    # Tuples are ordered; nodes are not.
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __reduce__(self):
        # Rebuilt from the children, so the hash is computed anew: a
        # Sym's hash, and so every hash above it, differs per process.
        return type(self), self[:-1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({serialize_regex(self)!r})"


class Union(_Node):
    __slots__ = ()
    left = property(itemgetter(0))
    right = property(itemgetter(1))

    def __new__(cls, left: "RegexAst", right: "RegexAst") -> "Union":
        return _new(cls, (left, right, hash((Union, hash(left), hash(right)))))


class Concat(_Node):
    __slots__ = ()
    left = property(itemgetter(0))
    right = property(itemgetter(1))

    def __new__(cls, left: "RegexAst", right: "RegexAst") -> "Concat":
        return _new(cls, (left, right, hash((Concat, hash(left), hash(right)))))


class Star(_Node):
    __slots__ = ()
    child = property(itemgetter(0))

    def __new__(cls, child: "RegexAst") -> "Star":
        return _new(cls, (child, hash((Star, hash(child)))))


RegexAst = TUnion[Sym, Union, Concat, Star]


def _equal(a: _Node, b: object) -> bool:
    """Structural equality of a composite node with anything, on an
    explicit stack of node pairs still to compare."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        # Distinct Syms are distinct characters.
        if type(x) is not type(y) or type(x) is Sym or x[-1] != y[-1]:
            return False
        stack += zip(x[:-1], y[:-1])
    return True


_META = set("|()*+.")
# Runs that parse_regex takes in one step.
_SYMBOLS = re.compile(r"[^|()*+.]+")
_OPENS = re.compile(r"\(+")


def plus(child: RegexAst) -> RegexAst:
    """One-or-more repetitions, expanded to child.child*."""
    return Concat(child, Star(child))


def is_plus(node: RegexAst) -> bool:
    """True if node is what plus() builds: a Concat whose right side is
    the Star of the very object on its left."""
    return (type(node) is Concat and type(node.right) is Star
            and node.right.child is node.left)


def symbols(node: RegexAst) -> frozenset[str]:
    """The set of alphabet characters mentioned by the expression."""
    if isinstance(node, Sym):
        return frozenset((node.char,))
    # Each distinct node once: plus() shares its operand, so a tree walk
    # doubles with every nested `+`.
    chars: set[str] = set()
    seen: set[int] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            chars.add(node.char)
        elif id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Star):
                stack.append(node.child)
            else:
                stack += (node.left, node.right)
    return frozenset(chars)


def node_count(node: RegexAst) -> int:
    """The number of nodes of the expression as a tree."""
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, Star):
            stack.append(node.child)
        elif not isinstance(node, Sym):
            stack += (node.left, node.right)
    return count


def sigma_star(alphabet: Iterable[str]) -> RegexAst:
    """An expression denoting all words over the given alphabet."""
    syms = sorted(set(alphabet))
    if not syms:
        raise RegexParseError("alphabet must be nonempty")
    acc: RegexAst = Sym(syms[0])
    for ch in syms[1:]:
        acc = Union(acc, Sym(ch))
    return Star(acc)


def parse_regex(text: str, alphabet: Iterable[str]) -> RegexAst:
    """Parse a surface expression whose symbols must come from alphabet."""
    alpha = frozenset(alphabet)
    bad = sorted(c for c in alpha if len(c) != 1 or c in _META)
    if bad:
        raise RegexParseError(f"invalid alphabet entries: {bad}")
    # Each symbol's Sym is then read straight from the table.
    for c in alpha - _SYMS.keys():
        Sym(c)
    syms = _SYMS

    def error(message: str) -> RegexParseError:
        return RegexParseError(f"{message} at position {pos} in {text!r}")

    end = len(text)
    pos = 0
    if not end:
        raise error("empty expression")
    # The union and the concatenation read so far in the innermost open
    # group, and those of the groups around it, outermost first.
    union: RegexAst | None = None
    concat: RegexAst | None = None
    groups: list[tuple[RegexAst | None, RegexAst | None]] = []
    while True:
        # An operand: a symbol, or the opening of a group.
        ch = text[pos] if pos < end else None
        if ch == "(":
            groups.append((union, concat))
            union = concat = None
            pos += 1
            if pos < end and text[pos] == "(":
                # The rest of a run of them: each opens inside an empty
                # group.
                stop = _OPENS.match(text, pos).end()
                groups += [(None, None)] * (stop - pos)
                pos = stop
            continue
        if ch is None:
            raise error("expected a symbol or group")
        if ch in _META:
            raise error(f"operator {ch!r} has no operand")
        if ch not in alpha:
            raise error(f"symbol {ch!r} not in alphabet")
        node: RegexAst = syms[ch]
        pos += 1
        if pos < end and text[pos] not in _META:
            # A run of symbols: all but the last are concatenated here,
            # each hash built from the one before as Concat() builds it,
            # and the last is the operand, which postfix operators may
            # follow.
            stop = _SYMBOLS.match(text, pos).end()
            run = text[pos:stop]
            if not alpha.issuperset(run):
                pos += next(i for i, c in enumerate(run) if c not in alpha)
                raise error(f"symbol {text[pos]!r} not in alphabet")
            concat = node if concat is None else Concat(concat, node)
            h = hash(concat)
            for c in run[:-1]:
                node = syms[c]
                h = hash((Concat, h, hash(node)))
                concat = _new(Concat, (concat, node, h))
            node = syms[run[-1]]
            pos = stop
        # After an operand: its postfix operators, then what follows it.
        while True:
            while pos < end and text[pos] in "*+":
                node = Star(node) if text[pos] == "*" else plus(node)
                pos += 1
            concat = node if concat is None else Concat(concat, node)
            ch = text[pos] if pos < end else None
            if ch == ".":
                pos += 1
                break
            if ch is not None and ch not in "|)":
                break
            union = concat if union is None else Union(union, concat)
            concat = None
            if ch == "|":
                pos += 1
                break
            if ch is None:
                if groups:
                    raise error("unbalanced parenthesis")
                return union
            if not groups:
                raise error("unexpected character")
            # ch closes the innermost group, whose union is the operand;
            # so do the parentheses right after it that close groups
            # holding nothing else.
            pos += 1
            node = union
            union, concat = groups.pop()
            while (union is None and concat is None and groups
                   and pos < end and text[pos] == ")"):
                pos += 1
                union, concat = groups.pop()


# Precedence levels used when re-rendering: union < concat < postfix.
_UNION, _CONCAT, _POSTFIX = 0, 1, 2


def serialize_regex(node: RegexAst) -> str:
    """Render an AST so that parsing the result rebuilds it exactly."""
    if isinstance(node, Sym):
        return node.char
    # Left to right with no recursion: todo holds, last first, what is
    # still to be written, each a literal or a node with the lowest level
    # it may take without parentheses. A plus renders its operand once;
    # left-associated concatenations render bare, while a right-nested
    # concat or a union operand needs parentheses to parse back
    # identically.
    out: list[str] = []
    todo: list[tuple[RegexAst | str, int]] = [(node, _UNION)]
    while todo:
        item, least = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if isinstance(item, Sym):
            out.append(item.char)
            continue
        if is_plus(item):
            level, parts = _POSTFIX, [(item.left, _POSTFIX), ("+", 0)]
        elif isinstance(item, Star):
            level, parts = _POSTFIX, [(item.child, _POSTFIX), ("*", 0)]
        elif isinstance(item, Concat):
            level, parts = _CONCAT, [(item.left, _CONCAT), (item.right, _POSTFIX)]
        elif isinstance(item, Union):
            level, parts = _UNION, [(item.left, _UNION), ("|", 0),
                                    (item.right, _CONCAT)]
        else:
            raise TypeError(f"not a regex node: {item!r}")
        if level < least:
            parts = [("(", 0), *parts, (")", 0)]
        todo += reversed(parts)
    return "".join(out)
