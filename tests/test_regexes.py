from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import rgphom
from rgphom.automata import compile_nfa
from rgphom.errors import RegexParseError
from rgphom.regexes import (
    Concat, Star, Sym, Union,
    is_plus, node_count, parse_regex, plus, serialize_regex, sigma_star,
    symbols,
)

from helpers import reference_parse_regex


def test_parse_single_symbol():
    assert parse_regex("a", "ab") == Sym("a")


def test_one_sym_object_per_character():
    assert Sym("a") is Sym("a")
    assert Sym("a") is not Sym("b")
    assert Sym(char="a") is Sym("a")
    node = parse_regex("ab|a", "ab")
    assert node.left.left is node.right is Sym("a")
    assert parse_regex("a", "ab") is parse_regex("a", "a") is Sym("a")


_PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    *[lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
      for p in _PROTOCOLS],
], ids=["copy", "deepcopy", *[f"pickle{p}" for p in _PROTOCOLS]])
def test_copies_and_pickles_keep_the_sym(clone):
    sym = Sym("a")
    assert clone(sym) is sym
    node = parse_regex("(ab)*|b+", "ab")
    copied = clone(node)
    assert copied == node
    assert hash(copied) == hash(node)
    assert copied.left.child.left is sym


def test_sym_stays_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        Sym("a").char = "b"
    assert Sym("a").char == "a"


def test_parse_union_binds_looser_than_star():
    assert parse_regex("a|b*", "ab") == Union(Sym("a"), Star(Sym("b")))


def test_parse_plus_expands_to_concat_star():
    assert parse_regex("a+", "a") == Concat(Sym("a"), Star(Sym("a")))


def test_parse_explicit_dot_concat():
    assert parse_regex("a.b", "ab") == parse_regex("ab", "ab")


def test_parse_groups():
    assert parse_regex("(a|b)c", "abc") == Concat(Union(Sym("a"), Sym("b")), Sym("c"))


def test_parse_left_associative():
    assert parse_regex("abc", "abc") == Concat(Concat(Sym("a"), Sym("b")), Sym("c"))
    assert parse_regex("a|b|c", "abc") == Union(Union(Sym("a"), Sym("b")), Sym("c"))


def test_parse_stacked_postfix():
    assert parse_regex("a*+", "a") == plus(Star(Sym("a")))


@pytest.mark.parametrize("bad", ["(a", "a||b", "+", "", "a)"])
def test_parse_errors(bad):
    with pytest.raises(RegexParseError):
        parse_regex(bad, "ab")


@pytest.mark.parametrize("text, message", [
    ("", "empty expression at position 0 in ''"),
    ("(a", "unbalanced parenthesis at position 2 in '(a'"),
    ("a)", "unexpected character at position 1 in 'a)'"),
    ("a||b", "operator '|' has no operand at position 2 in 'a||b'"),
    ("a.", "expected a symbol or group at position 2 in 'a.'"),
    ("ac", "symbol 'c' not in alphabet at position 1 in 'ac'"),
    ("()", "operator ')' has no operand at position 1 in '()'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(RegexParseError) as caught:
        parse_regex(text, "ab")
    assert str(caught.value) == message


def _parse_outcome(parse, text):
    try:
        return parse(text, "ab")
    except RegexParseError as exc:
        return str(exc)


def test_parse_matches_recursive_descent():
    # The same AST, or the same error at the same position, on seeded
    # strings of which most are malformed; c is outside the alphabet.
    rng = random.Random(3)
    for _ in range(100_000):
        text = "".join(rng.choice("ab()|*+.c")
                       for _ in range(rng.randint(0, 12)))
        assert (_parse_outcome(parse_regex, text)
                == _parse_outcome(reference_parse_regex, text)), text


def test_parse_matches_recursive_descent_on_runs():
    # Strings strung from runs of one character, which parse_regex reads
    # in one step: symbols, opening and closing parentheses.
    rng = random.Random(5)
    for _ in range(20_000):
        text = "".join(rng.choice("ab()|*+.c") * rng.randint(1, 4)
                       for _ in range(rng.randint(1, 6)))
        assert (_parse_outcome(parse_regex, text)
                == _parse_outcome(reference_parse_regex, text)), text


@pytest.mark.parametrize("label", ["(" * 3000 + "a" + ")" * 3000, "a" * 5000],
                         ids=["nested", "long"])
def test_deep_labels_parse_and_compile_without_recursion(label):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        nfa = compile_nfa(parse_regex(label, "a"))
    finally:
        sys.setrecursionlimit(limit)
    assert nfa.n_states == label.count("a") + 1
    assert nfa.accepting == 1 << (nfa.n_states - 1)


def test_separately_built_equal_trees_are_equal_and_hash_equal():
    for text in ("a", "ab|b*", "(ab)+a", "((a|b)*a)*|b+"):
        first, second = parse_regex(text, "ab"), parse_regex(text, "ab")
        assert first == second and not first != second
        assert hash(first) == hash(second)
    x, y = Sym("a"), Star(Sym("b"))
    assert Union(x, y) == Union(x, Star(Sym("b")))
    assert Union(x, y) != Concat(x, y) and not Union(x, y) == Concat(x, y)
    assert Union(x, y) != Union(y, x)
    assert Star(x) != Star(Sym("b")) and Star(x) != x
    # A node is a tuple underneath, but equals no plain tuple.
    assert Concat(x, y) != tuple(Concat(x, y))
    with pytest.raises(TypeError):
        Concat(x, y) < Concat(x, x)


# Run in a child process: a hash or a comparison that recursed in C
# would overflow the stack and kill the process, and pytest with it.
DEEP_INPUTS = """
from rgphom.cli import main
from rgphom.regexes import parse_regex, serialize_regex
n = 100_000
shapes = {
    "word": "a" * (2 * n),
    "nested": "(" * n + "a" + ")" * n,
    "stars": "(" * n + "a" + ")*" * n,
    "right_concat": "a(" * n + "a" + ")" * n,
    "right_union": "a|(" * n + "a" + ")" * n,
}
for name, text in shapes.items():
    first, second = parse_regex(text, "ab"), parse_regex(text, "ab")
    assert first == second and hash(first) == hash(second), name
    assert first != parse_regex(text + "a", "ab"), name
    assert parse_regex(serialize_regex(first), "ab") == first, name
for text in (shapes["word"], shapes["nested"]):
    assert main(["include", text, "(a|b)*", "--alphabet", "ab"]) == 0
    assert main(["include", text, "b", "--alphabet", "ab"]) == 1
print("done")
"""


def test_deep_inputs_parse_hash_compare_and_round_trip_in_a_child():
    src = str(Path(rgphom.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", DEEP_INPUTS],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("done\n")


def test_parse_symbol_outside_alphabet():
    with pytest.raises(RegexParseError):
        parse_regex("c", "ab")


def test_parse_rejects_metacharacter_alphabet():
    with pytest.raises(RegexParseError):
        parse_regex("a", ["a", "*"])


def test_serialize_examples():
    assert serialize_regex(Union(Sym("a"), Star(Sym("b")))) == "a|b*"
    assert serialize_regex(plus(Sym("a"))) == "a+"
    assert serialize_regex(Star(Union(Sym("a"), Sym("b")))) == "(a|b)*"
    assert serialize_regex(plus(Concat(Sym("a"), Sym("b")))) == "(ab)+"


def test_sigma_star_shape():
    assert sigma_star("a") == Star(Sym("a"))
    assert sigma_star("ba") == Star(Union(Sym("a"), Sym("b")))


def test_is_plus():
    assert is_plus(plus(Sym("a")))
    assert is_plus(parse_regex("(ab)+", "ab"))
    assert not is_plus(Concat(Sym("a"), Star(Sym("b"))))


def test_is_plus_asks_for_the_shared_operand():
    # plus() puts one object on both sides. An equal copy on the right
    # makes a concatenation, which renders as one and parses back equal.
    twice = Concat(parse_regex("ab", "ab"), Star(parse_regex("ab", "ab")))
    assert not is_plus(twice)
    assert serialize_regex(twice) == "ab(ab)*"
    assert parse_regex("ab(ab)*", "ab") == twice


def test_symbols_and_node_count():
    ast = parse_regex("(a|b)*a", "ab")
    assert symbols(ast) == frozenset("ab")
    assert node_count(ast) == 6


@pytest.mark.parametrize("text, nodes", [
    ("a" * 5000, 9999), ("a" + "*" * 5000, 5001),
    ("a(" * 1999 + "aa" + ")" * 1999, 4001),
    ("a|(" * 1999 + "a|a" + ")" * 1999, 4001),
], ids=("word", "stars", "right_concat", "right_union"))
def test_walks_over_deep_expressions_do_not_recurse(text, nodes):
    ast = parse_regex(text, "a")
    assert symbols(ast) == frozenset("a")
    assert node_count(ast) == nodes
    assert serialize_regex(ast) == text


def ast_strategy(alphabet: str = "ab"):
    leaves = st.sampled_from([Sym(c) for c in alphabet])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Union(*t)),
            st.tuples(inner, inner).map(lambda t: Concat(*t)),
            inner.map(Star),
            inner.map(plus),
        ),
        max_leaves=8,
    )


@given(ast_strategy())
def test_serialize_parse_round_trip(ast):
    assert parse_regex(serialize_regex(ast), "ab") == ast
