from __future__ import annotations

import random

import pytest

import rgphom.nhom
from rgphom.errors import BudgetExceededError, PreconditionError, SearchBudget
from rgphom.nhom import (
    NHomomorphism,
    compose_n_hom,
    is_n_core,
    n_hom,
    verify_n_hom,
)
from rgphom.rgp import delete_vertex, make_rgp
from rgphom.testkit import random_rgp
from rgphom.walks import clear_relation_cache

from fixtures import (
    a_path,
    alternating_path,
    chord_chain,
    core_tree,
    glued_cycles,
    plus_cycle,
    two_label_pair,
)


def test_two_label_pair_has_no_hom_either_way():
    p, q = two_label_pair()
    assert n_hom(p, q) is None
    assert n_hom(q, p) is None


def test_identity_hom_exists_and_verifies():
    p, _ = two_label_pair()
    h = n_hom(p, p)
    assert h is not None
    assert verify_n_hom(p, p, h)


def test_single_a_arc_cannot_ride_a_plus_arc():
    # The walk's label language must fit inside the arc's language,
    # so an a+ arc (infinitely many words) never witnesses plain a.
    p = make_rgp("a", ["x", "y"], [("x", "y", "a")])
    q = make_rgp("a", ["u", "v"], [("u", "v", "a+")])
    assert n_hom(p, q) is None
    assert n_hom(q, p) is not None


def test_a_plus_arc_rides_a_chain():
    p = make_rgp("a", ["x", "y"], [("x", "y", "a+")])
    q = make_rgp("a", ["u", "m", "v"], [("u", "m", "a"), ("m", "v", "a")])
    h = n_hom(p, q)
    assert h is not None
    assert verify_n_hom(p, q, h)
    # some witness must span two arcs
    assert any(len(w) == 2 for w in h.witnesses.values()) or \
        all(len(w) == 1 for w in h.witnesses.values())


def test_empty_pattern_maps_into_anything():
    p = make_rgp("a", [], [])
    q = make_rgp("a", ["u"], [])
    h = n_hom(p, q)
    assert h == NHomomorphism({}, {})


def test_nonempty_pattern_into_empty_target_fails():
    p = make_rgp("a", ["x"], [])
    q = make_rgp("a", [], [])
    assert n_hom(p, q) is None


def test_certificates_verify_on_random_instances():
    hits = 0
    for seed in range(60):
        rng = random.Random(seed)
        p = random_rgp(rng, rng.randint(1, 4), rng.randint(0, 4))
        q = random_rgp(rng, rng.randint(1, 4), rng.randint(0, 4))
        h = n_hom(p, q)
        if h is not None:
            hits += 1
            assert verify_n_hom(p, q, h)
    assert hits > 5


def test_verify_rejects_wrong_mapping():
    p = make_rgp("a", ["x", "y"], [("x", "y", "a")])
    q = make_rgp("a", ["u", "v"], [("u", "v", "a")])
    good = n_hom(p, q)
    assert verify_n_hom(p, q, good)
    bad = NHomomorphism({"x": "v", "y": "u"}, dict(good.witnesses))
    assert not verify_n_hom(p, q, bad)


def test_verify_rejects_empty_witness_walk():
    p = make_rgp("a", ["x"], [("x", "x", "a+")])
    q = make_rgp("a", ["u"], [("u", "u", "a")])
    h = n_hom(p, q)
    assert h is not None and len(h.witnesses[0]) >= 1
    broken = NHomomorphism(dict(h.mapping), {0: ()})
    assert not verify_n_hom(p, q, broken)


@pytest.mark.parametrize("extra", ["map key", "arc index", "negative index"])
def test_verify_rejects_extra_keys(extra):
    p = make_rgp("a", ["x", "y"], [("x", "y", "a+")])
    q = make_rgp("a", ["u", "m", "v"], [("u", "m", "a"), ("m", "v", "a")])
    h = n_hom(p, q)
    assert verify_n_hom(p, q, h)
    mapping, witnesses = dict(h.mapping), dict(h.witnesses)
    if extra == "map key":
        mapping["z"] = "u"
    else:
        witnesses[1 if extra == "arc index" else -1] = witnesses[0]
    assert not verify_n_hom(p, q, NHomomorphism(mapping, witnesses))


def chord_chain_certificate(n: int) -> NHomomorphism:
    """chord_chain(n) onto a_path(n + 1), vertex by vertex."""
    return NHomomorphism({f"p{i}": f"q{i}" for i in range(n + 1)},
                         {**{i: (i,) for i in range(n)}, n: tuple(range(n))})


@pytest.mark.parametrize("n", [600, 5000])
def test_certificates_with_long_witness_walks_verify(n):
    # Folding a witness's labels into one nested Concat overflowed the
    # recursion limit from 499 arcs on.
    p, q = chord_chain(n), a_path(n + 1)
    h = chord_chain_certificate(n)
    assert verify_n_hom(p, q, h)
    walk = list(h.witnesses[n])
    walk[n // 2] += 1
    h.witnesses[n] = tuple(walk)
    assert not verify_n_hom(p, q, h)


def test_verification_spends_the_budget():
    p, q = chord_chain(600), a_path(601)
    h = chord_chain_certificate(600)
    with pytest.raises(BudgetExceededError):
        verify_n_hom(p, q, h, SearchBudget(max_nodes=1))
    budget = SearchBudget()
    assert verify_n_hom(p, q, h, budget)
    assert budget.nodes > 1


def test_verification_decides_each_distinct_inclusion_once(monkeypatch):
    calls = []
    decide = rgphom.nhom.concat_inclusion

    def counted(bs, a, budget=None):
        calls.append((tuple(bs), a))
        return decide(bs, a, budget)

    monkeypatch.setattr(rgphom.nhom, "concat_inclusion", counted)
    p, q = chord_chain(600), a_path(601)
    assert verify_n_hom(p, q, chord_chain_certificate(600))
    # 600 arcs check a <= a, and the a+ arc its 600-factor chain.
    assert len(calls) == len(set(calls)) == 2


def test_verification_keys_each_inclusion_on_the_arc_label_too():
    p = make_rgp("ab", ["x", "y"], [("x", "y", "a"), ("x", "y", "b")])
    q = make_rgp("ab", ["u", "v"], [("u", "v", "a")])
    h = NHomomorphism({"x": "u", "y": "v"}, {0: (0,), 1: (0,)})
    assert not verify_n_hom(p, q, h)


def test_certificates_carry_exactly_the_pattern_keys():
    p = make_rgp("a", ["x", "y"], [("x", "y", "a+")])
    q = make_rgp("a", ["u", "m", "v"], [("u", "m", "a"), ("m", "v", "a")])
    r = make_rgp("a", ["s"], [("s", "s", "a")])
    g = glued_cycles()
    verdict = is_n_core(g)
    for pattern, h in [(p, n_hom(p, q)),
                       (p, compose_n_hom(n_hom(p, q), n_hom(q, r))),
                       (g, verdict.retraction)]:
        assert list(h.mapping) == list(pattern.vertices)
        assert sorted(h.witnesses) == list(range(len(pattern.arcs)))


def test_composition_verifies():
    p = make_rgp("a", ["x", "y"], [("x", "y", "a+")])
    q = make_rgp("a", ["u", "m", "v"], [("u", "m", "a"), ("m", "v", "a")])
    r = make_rgp("a", ["s"], [("s", "s", "a")])
    h1 = n_hom(p, q)
    h2 = n_hom(q, r)
    assert h1 and h2
    assert verify_n_hom(p, r, compose_n_hom(h1, h2))


def test_plus_cycles_are_equivalent():
    p, q = plus_cycle(2), plus_cycle(3, "d")
    there, back = n_hom(p, q), n_hom(q, p)
    assert there and verify_n_hom(p, q, there)
    assert back and verify_n_hom(q, p, back)


def test_budget_exhaustion_raises():
    # Relations that earlier tests left in the cache cost no nodes.
    clear_relation_cache()
    p = random_rgp(0, 5, 6)
    q = random_rgp(1, 5, 6)
    with pytest.raises(BudgetExceededError):
        n_hom(p, q, SearchBudget(max_nodes=1))


def test_json_roundtrip_and_malformed_rejection():
    p, _ = two_label_pair()
    h = n_hom(p, p)
    again = NHomomorphism.from_json(h.to_json())
    assert again == h
    with pytest.raises(PreconditionError):
        NHomomorphism.from_json({"map": {"x": "y"}})
    with pytest.raises(PreconditionError):
        NHomomorphism.from_json({"map": "nope", "witnesses": {}})


# core checking


def test_single_vertex_is_core():
    assert is_n_core(make_rgp("a", ["v"], [])).is_core


def test_a_plus_self_loop_is_core():
    assert is_n_core(make_rgp("a", ["v"], [("v", "v", "a+")])).is_core


def test_duplicate_isolated_vertex_is_not_core():
    verdict = is_n_core(make_rgp("a", ["u", "v"], []))
    assert not verdict.is_core
    assert verdict.removed_vertex is not None
    assert verify_n_hom(make_rgp("a", ["u", "v"], []), verdict.sub,
                        verdict.retraction)


def test_glued_cycles_not_core_and_retraction_verifies():
    g = glued_cycles()
    verdict = is_n_core(g)
    assert not verdict.is_core
    assert verdict.removed_arc is not None
    assert verify_n_hom(g, verdict.sub, verdict.retraction)


def test_glued_cycles_retract_onto_each_cycle():
    g = glued_cycles()
    two = delete_vertex(delete_vertex(g, "w1"), "w2")
    three = delete_vertex(g, "u1")
    for sub in (two, three):
        h = n_hom(g, sub)
        assert h is not None
        assert verify_n_hom(g, sub, h)


def test_core_tree_is_core():
    assert is_n_core(core_tree()).is_core


def test_alternating_path_is_core():
    assert is_n_core(alternating_path()).is_core


def test_deterministic_certificate():
    p = random_rgp(5, 3, 4)
    q = random_rgp(6, 3, 4)
    first = n_hom(p, q)
    assert all(n_hom(p, q) == first for _ in range(3))
