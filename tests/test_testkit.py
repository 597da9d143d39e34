from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from rgphom.automata import compile_nfa, nfa_accepts
from rgphom.errors import CapExceededError, PreconditionError
from rgphom.languages import language_inclusion, universality
from rgphom.nhom import NHomomorphism, is_n_core, n_hom, verify_n_hom
from rgphom.regexes import Sym, node_count, parse_regex, serialize_regex
from rgphom.rgp import LabelKind, is_undirected, label_class, make_rgp, serialize_rgp
from rgphom.testkit import (
    OracleBudget,
    all_a_lift,
    gadget_inclusion,
    gadget_ncore,
    gadget_universality,
    oracle_n_hom,
    random_regex,
    random_rgp,
    random_unary_pattern,
    universal_by_enumeration,
    word_matches,
)

from fixtures import mycielski_fixture, two_label_pair
from helpers import all_words, reference_word_matches
from test_regexes import ast_strategy


def rx(text, alphabet="ab"):
    return parse_regex(text, alphabet)


# ---------------------------------------------------------------------------
# Gadgets


def test_inclusion_gadget_on_known_pairs():
    cases = [("a", "a|b", True), ("a*", "a", False), ("(a|b)*", "(a|b)*", True),
             ("ab", "a(b|a)", True), ("a|b", "a", False)]
    for left, right, expected in cases:
        pair = gadget_inclusion(rx(left), rx(right))
        lang_side = language_inclusion(rx(left), rx(right)).holds
        hom_side = n_hom(pair.p2, pair.p1) is not None
        assert lang_side == expected
        assert hom_side == expected


def test_inclusion_gadget_fact_mentions_both_expressions():
    pair = gadget_inclusion(rx("a"), rx("a|b"))
    assert "a" in pair.fact and "a|b" in pair.fact


def test_universality_gadget_on_known_expressions():
    cases = [("(a|b)*", True), ("a*b*", False), ("(a|b)(a|b)*", False)]
    for text, expected in cases:
        pair = gadget_universality(rx(text), "ab")
        assert (n_hom(pair.p1, pair.p2) is not None) == expected
        assert universal_by_enumeration(rx(text), "ab") == expected


def test_universality_gadget_needs_two_symbols():
    with pytest.raises(PreconditionError):
        gadget_universality(rx("a", "a"), "a")
    with pytest.raises(PreconditionError):
        gadget_universality(rx("a|b"), "a")


def test_ncore_gadget_on_known_pairs():
    cases = [("a", "a|b", True), ("a*", "a", False), ("ab", "ab", True)]
    for left, right, included in cases:
        body = gadget_ncore(rx(left), rx(right))
        assert is_n_core(body).is_core == (not included)


def test_ncore_gadget_mints_first_free_symbol():
    assert "c" in gadget_ncore(rx("a"), rx("b")).alphabet
    body = gadget_ncore(rx("a", "ac"), rx("c", "ac"))
    assert "b" in body.alphabet


def test_all_a_lift_shapes():
    tri = all_a_lift(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
    assert len(tri.arcs) == 6
    loop = all_a_lift(["v"], [("v", "v")])
    assert len(loop.arcs) == 1
    edge = all_a_lift(["u", "v"], [("u", "v")])
    assert {(a.src, a.dst) for a in edge.arcs} == {("u", "v"), ("v", "u")}


def test_all_a_lift_matches_big_fixture_component():
    outer = [(f"x{i}", f"x{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"y{i}", f"x{(i - 1) % 5}") for i in range(5)]
    spokes += [(f"y{i}", f"x{(i + 1) % 5}") for i in range(5)]
    hub = [("hub", f"y{i}") for i in range(5)]
    vertices = [f"x{i}" for i in range(5)] + [f"y{i}" for i in range(5)] + ["hub"]
    lifted = all_a_lift(vertices, outer + spokes + hub)
    fixture = mycielski_fixture()
    inside = set(vertices)
    expected = {(a.src, a.dst) for a in fixture.arcs
                if a.label == Sym("a") and a.src in inside and a.dst in inside}
    assert {(a.src, a.dst) for a in lifted.arcs} == expected


# ---------------------------------------------------------------------------
# Word-level checks


@settings(max_examples=60)
@given(ast_strategy())
def test_word_matches_agrees_with_nfa(ast):
    nfa = compile_nfa(ast)
    for word in all_words("ab", 4):
        assert word_matches(ast, word) == nfa_accepts(nfa, word)


def test_word_matches_agrees_with_the_recursive_reference():
    rng = random.Random(20261019)
    for seed in range(300):
        e = random_regex(seed, rng.randint(1, 10), "ab")
        for _ in range(5):
            word = "".join(rng.choice("ab")
                           for _ in range(rng.randint(0, 14)))
            assert word_matches(e, word) == reference_word_matches(e, word), (
                serialize_regex(e), word)


@pytest.mark.parametrize("text, word, expected", [
    ("a*", "a" * 5000, True),
    ("(a*)*", "a" * 5000, True),
    ("a" * 5000, "a" * 5000, True),
    ("a" * 5000, "a" * 4999, False),
    ("(a|aa)*b", "a" * 4999 + "b", True),
    ("(a|aa)*b", "a" * 5000, False),
], ids=["star", "star-of-star", "word", "word-too-short", "ends-in-b",
        "no-b"])
def test_word_matches_takes_a_5000_symbol_word(text, word, expected):
    assert word_matches(parse_regex(text, "ab"), word) is expected


def test_universal_by_enumeration_agrees_with_inclusion_check():
    for seed in range(60):
        e = random_regex(seed, 6, "ab")
        try:
            slow = universal_by_enumeration(e, "ab")
        except CapExceededError:
            continue
        assert slow == universality(e, "ab").holds, serialize_regex(e)


def test_universal_by_enumeration_budget_is_loud():
    e = rx("(a|b)(a|b)(a|b)(a|b)(a|b)")
    with pytest.raises(CapExceededError):
        universal_by_enumeration(e, "ab", OracleBudget(max_word_length=2))


# ---------------------------------------------------------------------------
# The exhaustive reference solver


def test_oracle_two_label_pair_has_no_hom_either_way():
    p, q = two_label_pair()
    assert oracle_n_hom(p, q) is None
    assert oracle_n_hom(q, p) is None


def test_oracle_identity_succeeds_and_verifies():
    p, _ = two_label_pair()
    h = oracle_n_hom(p, p)
    assert h is not None
    assert verify_n_hom(p, p, h)


def test_oracle_empty_edges():
    empty = make_rgp("a", [], [])
    one = make_rgp("a", ["v"], [])
    assert oracle_n_hom(empty, one) == NHomomorphism({}, {})
    assert oracle_n_hom(one, empty) is None


def test_oracle_matches_solver_on_seeded_instances():
    for seed in range(80):
        rng = random.Random(seed)
        p = random_rgp(rng, rng.randint(1, 4), rng.randint(0, 5))
        q = random_rgp(rng, rng.randint(1, 4), rng.randint(0, 5))
        try:
            slow = oracle_n_hom(p, q)
        except CapExceededError:
            continue
        fast = n_hom(p, q)
        assert (slow is None) == (fast is None), seed
        if slow is not None:
            assert verify_n_hom(p, q, slow)


def test_oracle_mapping_cap_is_loud():
    p = make_rgp("a", ["x", "y"], [("x", "y", "a")])
    q = make_rgp("a", ["u", "v"], [("u", "v", "a")])
    with pytest.raises(CapExceededError):
        oracle_n_hom(p, q, OracleBudget(max_mapping_count=3))


def test_oracle_walk_cap_is_loud():
    p = make_rgp("a", ["x", "y"], [("x", "y", "aa")])
    q = make_rgp("a", ["u", "m", "v"], [("u", "m", "a"), ("m", "v", "a")])
    with pytest.raises(CapExceededError):
        oracle_n_hom(p, q, OracleBudget(max_walk_length=1))
    # the same instance is decided once walks may grow long enough
    assert oracle_n_hom(p, q) is not None


def test_oracle_budget_monotone():
    small = OracleBudget(max_walk_length=8, max_mapping_count=10_000)
    for seed in range(40):
        rng = random.Random(9000 + seed)
        p = random_rgp(rng, rng.randint(1, 3), rng.randint(0, 4))
        q = random_rgp(rng, rng.randint(1, 3), rng.randint(0, 4))
        try:
            first = oracle_n_hom(p, q, small)
        except CapExceededError:
            continue
        second = oracle_n_hom(p, q, OracleBudget())
        assert (first is None) == (second is None)


def test_oracle_budget_validation():
    with pytest.raises(PreconditionError):
        OracleBudget(max_walk_length=0)
    with pytest.raises(PreconditionError):
        OracleBudget(max_mapping_count=-5)


# ---------------------------------------------------------------------------
# Generators


def test_random_regex_is_deterministic_and_bounded():
    for seed in range(30):
        first = random_regex(seed, 6, "ab")
        second = random_regex(seed, 6, "ab")
        assert first == second
        assert node_count(first) <= 6


def test_random_regex_validates_arguments():
    with pytest.raises(PreconditionError):
        random_regex(0, 0, "ab")
    with pytest.raises(PreconditionError):
        random_regex(0, 3, "")


def test_random_rgp_is_deterministic():
    blobs = {json.dumps(serialize_rgp(random_rgp(4, 4, 6)), sort_keys=True)
             for _ in range(3)}
    assert len(blobs) == 1


def test_random_rgp_label_kinds():
    general = random_rgp(1, 3, 5, LabelKind.GENERAL)
    single = random_rgp(1, 3, 5, LabelKind.ALL_SINGLE_A)
    unary = random_rgp(1, 3, 12, "unary_a_aplus")
    assert label_class(single).kind is LabelKind.ALL_SINGLE_A
    assert label_class(unary).kind in (LabelKind.ALL_SINGLE_A,
                                       LabelKind.UNARY_A_APLUS)
    assert general.alphabet == ("a", "b")
    with pytest.raises(PreconditionError):
        random_rgp(1, 3, 5, "no_such_kind")
    with pytest.raises(PreconditionError):
        random_rgp(1, 0, 5)


def test_random_unary_pattern_shapes():
    p = random_unary_pattern(3, 4, 6)
    assert label_class(p).symbol == "a"
    mirrored = random_unary_pattern(3, 4, 6, undirected=True)
    assert is_undirected(mirrored)
    assert random_unary_pattern(5, 3, 4) == random_unary_pattern(5, 3, 4)
