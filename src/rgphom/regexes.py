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

There is one `Sym` object per character: `Sym("a") is Sym("a")`, and a
`Sym` compares and hashes by identity, in C. Equality of `Union`,
`Concat` and `Star` stays structural, and stops at identical `Sym`s.
The table of `Sym`s is a plain dict keyed by character, so it holds at
most one entry per character ever used; it is never cleared.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Union:
    left: "RegexAst"
    right: "RegexAst"


@dataclass(frozen=True)
class Concat:
    left: "RegexAst"
    right: "RegexAst"


@dataclass(frozen=True)
class Star:
    child: "RegexAst"


RegexAst = TUnion[Sym, Union, Concat, Star]

_META = set("|()*+.")


def plus(child: RegexAst) -> RegexAst:
    """One-or-more repetitions, expanded to child.child*."""
    return Concat(child, Star(child))


def is_plus(node: RegexAst) -> bool:
    """True if node has the shape produced by plus()."""
    return (isinstance(node, Concat) and isinstance(node.right, Star)
            and node.right.child == node.left)


def symbols(node: RegexAst) -> frozenset[str]:
    """The set of alphabet characters mentioned by the expression."""
    if isinstance(node, Sym):
        return frozenset((node.char,))
    if isinstance(node, Star):
        return symbols(node.child)
    return symbols(node.left) | symbols(node.right)


def node_count(node: RegexAst) -> int:
    if isinstance(node, Sym):
        return 1
    if isinstance(node, Star):
        return 1 + node_count(node.child)
    return 1 + node_count(node.left) + node_count(node.right)


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
            continue
        if ch is None:
            raise error("expected a symbol or group")
        if ch in _META:
            raise error(f"operator {ch!r} has no operand")
        if ch not in alpha:
            raise error(f"symbol {ch!r} not in alphabet")
        pos += 1
        node: RegexAst = Sym(ch)
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
            # ch closes the innermost group, whose union is the operand.
            pos += 1
            node = union
            union, concat = groups.pop()


# Precedence levels used when re-rendering: union < concat < postfix/atom.
_UNION, _CONCAT, _POSTFIX, _ATOM = 0, 1, 2, 3


def serialize_regex(node: RegexAst) -> str:
    """Render an AST so that parsing the result rebuilds it exactly."""
    text, _ = _render(node)
    return text


def _render(node: RegexAst) -> tuple[str, int]:
    if isinstance(node, Sym):
        return node.char, _ATOM
    if is_plus(node):
        assert isinstance(node, Concat)
        return _wrap(node.left, _POSTFIX) + "+", _POSTFIX
    if isinstance(node, Star):
        return _wrap(node.child, _POSTFIX) + "*", _POSTFIX
    if isinstance(node, Concat):
        # Left-associated chains render bare; a right-nested concat or a
        # union child needs parentheses to parse back identically.
        return _wrap(node.left, _CONCAT) + _wrap(node.right, _POSTFIX), _CONCAT
    if isinstance(node, Union):
        return _wrap(node.left, _UNION) + "|" + _wrap(node.right, _CONCAT), _UNION
    raise TypeError(f"not a regex node: {node!r}")


def _wrap(node: RegexAst, min_level: int) -> str:
    text, level = _render(node)
    return f"({text})" if level < min_level else text
