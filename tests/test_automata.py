from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from rgphom.automata import (
    compile_nfa, determinize, dfa_accepts, nfa_accepts, prefix_closure,
)
from rgphom.errors import BudgetExceededError, RegexParseError, SearchBudget
from rgphom.regexes import Star, Sym, node_count, parse_regex, plus
from rgphom.testkit import random_regex

from helpers import (
    all_words, reference_compile_nfa, reference_determinize, words_of,
)
from test_regexes import ast_strategy


def test_compile_single_symbol():
    nfa = compile_nfa(Sym("a"))
    assert nfa.n_states == 2
    assert nfa_accepts(nfa, "a")
    assert not nfa_accepts(nfa, "")
    assert not nfa_accepts(nfa, "aa")
    assert not nfa_accepts(nfa, "b")


def test_compile_star_initial_accepts():
    nfa = compile_nfa(Star(Sym("a")))
    assert nfa.initial in nfa.accepting
    assert nfa_accepts(nfa, "")


def test_compile_plus_rejects_empty_word():
    nfa = compile_nfa(plus(Sym("a")))
    for n in range(7):
        assert nfa_accepts(nfa, "a" * n) == (n >= 1)


def test_compile_counts_one_state_per_symbol_occurrence():
    # plus() shares its child, and each of the two occurrences gets its
    # own positions: 1 + 2 + 2 states for (ab)+.
    node = parse_regex("(ab)+", "ab")
    assert node.left is node.right.child
    nfa = compile_nfa(node)
    assert nfa.n_states == 5
    assert nfa == reference_compile_nfa(node)


def test_compile_matches_the_thompson_construction():
    # Same states, numbering, moves and accepting set as the Thompson
    # NFA after epsilon elimination and trimming: on random ASTs, and on
    # parsed strings whose + shares a child between two occurrences.
    rng = random.Random(11)
    for k in range(5000):
        alpha = ("a", "ab", "abc")[k % 3]
        node = random_regex(rng, rng.randint(1, 24), alpha)
        assert compile_nfa(node) == reference_compile_nfa(node)
    parsed = 0
    while parsed < 5000:
        text = "".join(rng.choice("ab()|*+.")
                       for _ in range(rng.randint(1, 16)))
        try:
            node = parse_regex(text, "ab")
        except RegexParseError:
            continue
        parsed += 1
        assert compile_nfa(node) == reference_compile_nfa(node), text


def test_determinize_single_symbol_has_explicit_sink():
    dfa = determinize(compile_nfa(Sym("a")))
    assert dfa.n_states == 3
    # Total: every state has a move on every alphabet symbol.
    assert all("a" in row for row in dfa.delta)


def test_determinize_union_membership():
    dfa = determinize(compile_nfa(parse_regex("a|aa", "a")))
    for n in range(5):
        assert dfa_accepts(dfa, "a" * n) == (n in (1, 2))


def test_determinize_star_initial_accepting():
    dfa = determinize(compile_nfa(parse_regex("(a|b)*", "ab")))
    assert dfa.initial in dfa.accepting


def test_determinize_extra_alphabet_symbols_reach_sink():
    dfa = determinize(compile_nfa(Sym("a")), ("a", "b"))
    assert dfa.alphabet == ("a", "b")
    assert not dfa_accepts(dfa, "b")
    assert dfa_accepts(dfa, "a")


def test_determinize_matches_the_frozenset_construction():
    # Same states, numbering, transitions and accepting set, on random
    # expressions and on one 4 097-state DFA.
    rng = random.Random(7)
    for k in range(300):
        alpha = ("a", "ab", "abc")[k % 3]
        nfa = compile_nfa(random_regex(rng, rng.randint(1, 14), alpha))
        assert determinize(nfa, alpha) == reference_determinize(nfa, alpha)
    nfa = compile_nfa(parse_regex("(a|b)*a" + "(a|b)" * 11, "ab"))
    dfa = determinize(nfa)
    assert dfa.n_states == 4097
    assert dfa == reference_determinize(nfa)


def test_determinize_ticks_once_per_subset_state():
    nfa = compile_nfa(parse_regex("(a|b)*a" + "(a|b)" * 9, "ab"))
    budget = SearchBudget()
    dfa = determinize(nfa, budget=budget)
    assert budget.nodes == dfa.n_states == 1025
    with pytest.raises(BudgetExceededError):
        determinize(nfa, budget=SearchBudget(max_nodes=300))


@given(ast_strategy())
def test_nfa_state_count_at_most_twice_node_count(ast):
    assert compile_nfa(ast).n_states <= 2 * node_count(ast)


@given(ast_strategy())
def test_nfa_language_is_nonempty(ast):
    nfa = compile_nfa(ast)
    # Some accepting state is reachable since no AST denotes the empty
    # language; witness by enumerating short words.
    assert any(nfa_accepts(nfa, w) for w in all_words("ab", nfa.n_states))


@given(ast_strategy())
def test_nfa_and_dfa_agree_with_semantic_enumeration(ast):
    nfa = compile_nfa(ast)
    dfa = determinize(nfa, ("a", "b"))
    expected = words_of(ast, 5)
    for word in all_words("ab", 5):
        assert nfa_accepts(nfa, word) == (word in expected)
        assert dfa_accepts(dfa, word) == (word in expected)


@settings(deadline=None)
@given(ast_strategy())
def test_prefix_closure_accepts_exactly_prefixes(ast):
    nfa = compile_nfa(ast)
    if nfa.n_states > 8:
        return
    closed = prefix_closure(nfa)
    # w is a prefix of some word of L iff it extends to one within
    # n_states more symbols.
    for word in all_words("ab", 2):
        horizon = words_of(ast, len(word) + nfa.n_states)
        expected = any(w.startswith(word) for w in horizon)
        assert nfa_accepts(closed, word) == expected
