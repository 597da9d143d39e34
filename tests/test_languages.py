from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rgphom.automata import compile_nfa
from rgphom.errors import (
    BudgetExceededError, CapExceededError, PreconditionError, SearchBudget,
)
from rgphom.languages import (
    _missing_word, _moves, _simulation, _word, concat_inclusion,
    language_inclusion, truncated_words, truncation_equivalence_check,
    universality,
)
from rgphom.regexes import Concat, Sym, parse_regex, plus
from rgphom.testkit import concat_ast, random_regex

from helpers import (
    inclusion_by_enumeration, reference_inclusion, reference_simulation,
    words_of,
)
from test_regexes import ast_strategy


def rx(text, alphabet="ab"):
    return parse_regex(text, alphabet)


def test_inclusion_reflexive():
    report = language_inclusion(rx("a*"), rx("a*"))
    assert report.holds and report.counterexample is None


def test_inclusion_symbol_in_union():
    assert language_inclusion(rx("a"), rx("a|b")).holds


def test_inclusion_failure_has_shortest_counterexample():
    report = language_inclusion(rx("(a|b)*"), rx("a*"))
    assert not report.holds
    assert report.counterexample == "b"


def test_inclusion_between_different_alphabets():
    assert not language_inclusion(rx("ab"), rx("a+", "a")).holds
    assert language_inclusion(rx("a", "a"), rx("a|b")).holds


def ends_with_at(n, sym="a"):
    """(a|b)*s(a|b)^n, whose minimal DFA has 2^(n+1) states."""
    return "(a|b)*" + sym + "(a|b)" * n


def test_inclusion_matches_the_full_dfa_search_on_random_pairs():
    # Verdict and counterexample word both; the pair count is high
    # because a search that drops queued nodes differs on about one
    # pair in a hundred.
    rng = random.Random(2024)
    inclusions = 0
    for k in range(3000):
        alpha = ("a", "ab", "abc")[k % 3]
        e1 = random_regex(rng, rng.randint(1, 10), alpha)
        e2 = random_regex(rng, rng.randint(1, 14), alpha)
        expected = reference_inclusion(e1, e2)
        report = language_inclusion(e1, e2)
        assert report.counterexample == expected, (k, e1, e2)
        assert report.holds == (expected is None)
        inclusions += report.holds
    assert 500 < inclusions < 2500


def test_inclusion_matches_the_full_dfa_search_on_exponential_families():
    cases = []
    for n in (8, 9, 10):
        cases.append(("(a|b)*aa" + "(a|b)" * n, ends_with_at(n + 1), "ab"))
        cases.append((ends_with_at(n, "b"), ends_with_at(n), "ab"))
        cases.append(("(a|b)+", ends_with_at(n), "ab"))
    for length in (18, 23):
        cases.append(("a+", "|".join("a" * k for k in range(1, length))
                      + "|" + "a" * (length + 1) + "a*", "a"))
    for left, right, alpha in cases:
        e1, e2 = rx(left, alpha), rx(right, alpha)
        assert language_inclusion(e1, e2).counterexample == \
            reference_inclusion(e1, e2), (left, right)


def _random_word_ast(rng, word):
    """The Concat of word's symbols under a random bracketing."""
    parts = [Sym(ch) for ch in word]
    while len(parts) > 1:
        k = rng.randrange(len(parts) - 1)
        parts[k:k + 2] = [Concat(parts[k], parts[k + 1])]
    return parts[0]


def test_one_word_inclusion_matches_the_general_search():
    # A left side of Sym and Concat nodes only is decided by stepping
    # e2's NFA over its word; the search over e1's NFA must give the
    # same verdict and the same counterexample, the word itself.
    rng = random.Random(27)
    inclusions = 0
    for k in range(2000):
        alpha = ("a", "ab", "abc")[k % 3]
        word = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 12)))
        e1 = _random_word_ast(rng, word)
        e2 = random_regex(rng, rng.randint(1, 14), alpha)
        assert _word(e1) == word
        expected = _missing_word(_moves(compile_nfa(e1)), compile_nfa(e2),
                                 SearchBudget())
        report = language_inclusion(e1, e2)
        assert report.counterexample == expected, (word, e2)
        assert report.holds == (expected is None)
        inclusions += report.holds
    assert 100 < inclusions < 1900


def test_only_sym_and_concat_nodes_make_a_word():
    assert _word(rx("a(ba)b")) == "abab"
    for text in ("a*", "ab|b", "a+b", "ab(a|b)", "(ab)*b"):
        assert _word(rx(text)) is None


def test_counterexample_empty_word_needs_no_subset_construction():
    # The right side's DFA has 2^17 states; the empty word is missing
    # from it, and the search finds that before expanding any node.
    report = language_inclusion(rx("(a|b)*"), rx(ends_with_at(16)),
                                SearchBudget(max_nodes=10))
    assert report.counterexample == ""


def test_inclusion_runs_out_of_a_tiny_budget():
    e1 = rx("(a|b)*aa" + "(a|b)" * 10)
    e2 = rx(ends_with_at(11))
    with pytest.raises(BudgetExceededError):
        language_inclusion(e1, e2, SearchBudget(max_nodes=5))
    budget = SearchBudget()
    assert language_inclusion(e1, e2, budget).holds
    assert 5 < budget.nodes < 10_000


def test_simulation_matches_the_pairwise_fixpoint_on_random_pairs():
    rng = random.Random(2010)
    related = 0
    for k in range(500):
        alpha = ("a", "ab", "abc")[k % 3]
        n1 = compile_nfa(random_regex(rng, rng.randint(1, 10), alpha))
        n2 = compile_nfa(random_regex(rng, rng.randint(1, 14), alpha))
        sim = _simulation(_moves(n1), n2, SearchBudget())
        assert sim == reference_simulation(n1, n2), (k, n1, n2)
        related += bool(sim[n1.initial] & 1 << n2.initial)
    # Neither side of the comparison is trivial: the initial states are
    # related on some pairs and not on others.
    assert 50 < related < 450


def test_a_syntactic_inclusion_ends_at_the_root():
    # The right side's DFA has 2^19 states, and the search over it once
    # took 524 309 nodes; its initial state simulates the left one's.
    e = ends_with_at(18)
    budget = SearchBudget(max_nodes=100)
    assert language_inclusion(rx(e), rx(e + "|b*"), budget).holds
    assert budget.nodes > 0


def test_the_simulation_ticks_the_budget():
    e = ends_with_at(18)
    with pytest.raises(BudgetExceededError):
        language_inclusion(rx(e), rx(e + "|b*"), SearchBudget(max_nodes=5))


def test_universality_unary_star():
    assert universality(rx("a*", "a"), "a").holds


def test_universality_binary():
    assert universality(rx("(a|b)*"), "ab").holds
    report = universality(rx("a*b*"), "ab")
    assert not report.holds
    assert report.counterexample == "ba"


def test_universality_requires_covering_alphabet():
    with pytest.raises(PreconditionError):
        universality(rx("a|b"), "a")


def test_a_chain_of_nullable_factors_spends_the_budget():
    # Each accepting state of a run of a* factors gets the entry moves of
    # every later factor, so the chain grows quadratically in the run.
    factors = [rx("a*")] * 1000
    with pytest.raises(BudgetExceededError):
        concat_inclusion(factors, rx("a*"), SearchBudget(max_nodes=10_000))
    budget = SearchBudget()
    assert concat_inclusion(factors[:100], rx("a*"), budget).holds
    assert budget.nodes >= 100 * 99 // 2


def test_a_chain_takes_memory_linear_in_its_moves():
    # Each part's targets are offset entry by entry, not as masks as
    # wide as the chain, so four times the parts take about four times
    # the memory; masks shifted to their offsets took about seven.
    def peak(n):
        tracemalloc.start()
        try:
            assert concat_inclusion([Sym("a")] * n, plus(Sym("a"))).holds
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    assert peak(8000) <= 5 * peak(2000)


def test_concat_inclusion_examples():
    assert concat_inclusion([rx("a"), rx("a*")], rx("a*")).holds
    assert concat_inclusion([rx("a"), rx("a")], rx("(aa)*")).holds
    report = concat_inclusion([rx("a"), rx("aa")], rx("(aa)*"))
    assert not report.holds
    assert report.counterexample == "aaa"


def test_chained_concatenation_matches_the_folded_regex():
    # Verdict and word both, against one NFA compiled from the
    # left-nested Concat; short factors are often nullable, which
    # carries a part's accepting states past the next part.
    rng = random.Random(1995)
    holds = 0
    for k in range(1000):
        alpha = ("a", "ab", "abc")[k % 3]
        bs = [random_regex(rng, rng.randint(1, 5), alpha)
              for _ in range(rng.randint(1, 4))]
        a = random_regex(rng, rng.randint(1, 10), alpha)
        report = concat_inclusion(bs, a)
        assert report == language_inclusion(concat_ast(bs), a), (k, bs, a)
        holds += report.holds
    assert 50 < holds < 950
    with pytest.raises(PreconditionError):
        concat_inclusion([], rx("a"))


def test_truncated_words_examples():
    assert truncated_words(rx("a*"), 2) == {"", "a", "aa"}
    assert truncated_words(rx("a+"), 0) == frozenset()
    assert truncated_words(rx("(a|b)b"), 2) == {"ab", "bb"}


def test_truncated_words_cap():
    with pytest.raises(CapExceededError):
        truncated_words(rx("(a|b)*"), 30, cap=100)


def test_truncation_check_positive():
    report = truncation_equivalence_check(rx("a*", "a"), [rx("a", "a")])
    assert report.full_holds and report.truncated_holds and report.agree
    assert report.bounds == tuple(
        compile_nfa(rx("a*", "a")).n_states * compile_nfa(rx("a", "a")).n_states
        for _ in range(1))


def test_truncation_check_negative():
    report = truncation_equivalence_check(
        rx("(aa)*", "a"), [rx("a", "a"), rx("aa", "a")])
    assert not report.full_holds
    assert not report.truncated_holds
    assert report.agree
    assert report.truncated_counterexample == "aaa"


@given(ast_strategy(), ast_strategy())
def test_inclusion_agrees_with_word_enumeration(e1, e2):
    # Exhaustive cross-check is only affordable when the counterexample
    # length bound m * 2^n stays tiny.
    m = compile_nfa(e1).n_states
    n = compile_nfa(e2).n_states
    bound = m * 2 ** n
    if bound > 12:
        return
    report = language_inclusion(e1, e2)
    expected = inclusion_by_enumeration(e1, e2, "ab", bound)
    assert report.holds == (expected is None)
    if not report.holds:
        cex = report.counterexample
        assert cex is not None and len(cex) < bound
        assert len(cex) == len(expected)
        assert cex in words_of(e1, len(cex))
        assert cex not in words_of(e2, len(cex))


@settings(max_examples=60)
@given(ast_strategy("a"), st.lists(ast_strategy("a"), min_size=1, max_size=3))
def test_truncation_equivalence_unary_property(a, bs):
    report = truncation_equivalence_check(a, bs, cap=500_000)
    assert report.agree
