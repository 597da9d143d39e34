"""Acceptance suite: one test per shipped guarantee.

Each test is a single pass/fail line under pytest -v. Fixture-based
checks are exact; randomized checks are seeded and demand zero
disagreements, resampling only when a reference tool reports its own
cap (never on a wrong answer).
"""

from __future__ import annotations

import itertools
import random
import time

from rgphom.errors import CapExceededError
from rgphom.languages import language_inclusion, truncation_equivalence_check
from rgphom.nhom import is_n_core, n_hom, verify_n_hom
from rgphom.regexes import Sym, is_plus
from rgphom.rgp import make_rgp
from rgphom.testkit import (
    gadget_inclusion,
    gadget_ncore,
    gadget_universality,
    oracle_n_hom,
    random_regex,
    random_rgp,
    random_unary_pattern,
    universal_by_enumeration,
)
from rgphom.unary import (
    TemplateKind,
    audit_undirected_ncore,
    classify_undirected_template,
    collapse_levels,
    d_of_q,
    hom_two_labeled,
    is_majority_polymorphism,
    median_polymorphism,
    prune_plus_arcs,
    reduce_to_hom,
    solve_path_template,
    to_scheduling,
)
from rgphom.walks import find_walk, walk_length_bound

from fixtures import (
    a_path,
    alternating_path,
    core_tree,
    glued_cycles,
    mixed_path,
    mycielski_fixture,
    plus_cycle,
    three_component_pattern,
    two_label_pair,
)


def test_two_label_fixture_has_no_hom_in_either_direction():
    p, q = two_label_pair()
    assert n_hom(p, q) is None
    assert n_hom(q, p) is None


def test_alternating_path_dq_is_exactly_two_a_arcs_and_ten_t_arcs():
    d = d_of_q(alternating_path())
    assert d.a_arcs == {("d", "c"), ("b", "a")}
    later = {("e", "d"), ("e", "c"), ("e", "b"), ("e", "a"), ("d", "c"),
             ("d", "b"), ("d", "a"), ("c", "b"), ("c", "a"), ("b", "a")}
    assert d.t_arcs == later
    assert len(d.t_arcs) == 10


def test_big_undirected_fixture_is_a_clean_hard_core():
    start = time.monotonic()
    q = mycielski_fixture()
    assert is_n_core(q).is_core
    assert audit_undirected_ncore(q) == []
    template = classify_undirected_template(q)
    assert template.kind is TemplateKind.NP_COMPLETE
    cycle = template.odd_cycle
    assert cycle is not None and len(cycle) % 2 == 1
    a_edges = {(a.src, a.dst) for a in q.arcs if a.label == Sym("a")}
    for i, u in enumerate(cycle):
        assert (u, cycle[(i + 1) % len(cycle)]) in a_edges
    assert time.monotonic() - start < 60


def test_nine_vertex_tree_is_a_core():
    assert is_n_core(core_tree()).is_core


def test_glued_plus_cycles_retract_and_stay_interchangeable():
    c2, c3 = plus_cycle(2), plus_cycle(3, "d")
    assert n_hom(c2, c3) is not None
    assert n_hom(c3, c2) is not None

    glued = glued_cycles()
    assert not is_n_core(glued).is_core
    two_cycle = make_rgp("a", ["g", "u1"], [("g", "u1", "a+"), ("u1", "g", "a+")])
    three_cycle = make_rgp("a", ["g", "w1", "w2"],
                           [("g", "w1", "a+"), ("w1", "w2", "a+"),
                            ("w2", "g", "a+")])
    for cycle in (two_cycle, three_cycle):
        retraction = n_hom(glued, cycle)
        assert retraction is not None
        assert verify_n_hom(glued, cycle, retraction)

    # a pattern and its retract answer every instance the same way
    core = two_cycle
    for seed in range(20):
        t = random_unary_pattern(seed, 3, 4)
        assert (n_hom(glued, t) is None) == (n_hom(core, t) is None)
        assert (n_hom(t, glued) is None) == (n_hom(t, core) is None)


def test_solver_matches_brute_force_on_300_seeded_instances():
    done, seed = 0, 0
    while done < 300:
        assert seed < 3000, "too many reference-solver cap hits"
        rng = random.Random(seed)
        seed += 1
        p = random_rgp(rng, rng.randint(1, 4), rng.randint(0, 5))
        q = random_rgp(rng, rng.randint(1, 4), rng.randint(0, 5))
        try:
            slow = oracle_n_hom(p, q)
        except CapExceededError:
            continue
        fast = n_hom(p, q)
        assert (fast is None) == (slow is None), seed - 1
        if fast is not None:
            assert verify_n_hom(p, q, fast)
        done += 1


def test_gadget_iffs_hold_on_200_seeded_pairs_each():
    inclusion = universal = ncore = 0
    seed = 0
    while min(inclusion, universal, ncore) < 200:
        assert seed < 3000, "too many enumeration cap hits"
        rng = random.Random(seed)
        seed += 1
        e1 = random_regex(rng, rng.randint(1, 6), "ab")
        e2 = random_regex(rng, rng.randint(1, 6), "ab")

        if inclusion < 200:
            pair = gadget_inclusion(e1, e2)
            lang = language_inclusion(e1, e2).holds
            assert (n_hom(pair.p2, pair.p1) is not None) == lang
            inclusion += 1

        if ncore < 200:
            body = gadget_ncore(e1, e2)
            lang = language_inclusion(e1, e2).holds
            assert is_n_core(body).is_core == (not lang)
            ncore += 1

        if universal < 200:
            try:
                by_words = universal_by_enumeration(e1, "ab")
            except CapExceededError:
                continue
            pair = gadget_universality(e1, "ab")
            assert (n_hom(pair.p1, pair.p2) is not None) == by_words
            universal += 1


def test_truncated_inclusion_agrees_with_exact_on_100_seeded_instances():
    done, seed = 0, 0
    while done < 100:
        assert seed < 2000, "too many truncation cap hits"
        rng = random.Random(seed)
        seed += 1
        alphabet = "a" if seed % 3 else "ab"
        size = 4 if alphabet == "a" else 3
        a = random_regex(rng, rng.randint(1, size), alphabet)
        bs = [random_regex(rng, rng.randint(1, size), alphabet)
              for _ in range(rng.randint(1, 3))]
        try:
            report = truncation_equivalence_check(a, bs)
        except CapExceededError:
            continue
        assert report.full_holds == report.truncated_holds, seed - 1
        done += 1


def test_unary_reduction_matches_solver_on_200_pairs():
    for seed in range(200):
        rng = random.Random(seed)
        p = random_unary_pattern(rng, rng.randint(1, 5), rng.randint(0, 7))
        q = random_unary_pattern(rng, rng.randint(1, 5), rng.randint(0, 7))
        direct = n_hom(p, q)
        classical = hom_two_labeled(*reduce_to_hom(p, q))
        assert (direct is None) == (classical is None), seed


def test_path_pipeline_agrees_and_median_is_majority():
    # seeded patterns against short path templates, three solvers agreeing
    done, seed = 0, 0
    while done < 200:
        assert seed < 2000, "too many reference-solver cap hits"
        rng = random.Random(seed)
        seed += 1
        length = rng.randint(1, 6)
        labels = ("." * length if done % 2
                  else "".join(rng.choice(".+") for _ in range(length)))
        q = mixed_path(labels)
        p = random_unary_pattern(rng, rng.randint(1, 4), rng.randint(0, 5))
        try:
            slow = oracle_n_hom(p, q)
        except CapExceededError:
            continue
        fast = n_hom(p, q)
        routed = solve_path_template(p, q)
        assert (routed is None) == (fast is None) == (slow is None), seed - 1
        if routed is not None:
            assert verify_n_hom(p, q, routed)
        done += 1

    # the worked three-component pattern collapses to the known shape
    collapsed = collapse_levels(three_component_pattern())
    assert sum(is_plus(a.label) for a in collapsed.rgp.arcs) == 5
    pruned = prune_plus_arcs(collapsed)
    assert pruned is not None
    assert sum(is_plus(a.label) for a in pruned.arcs) == 3
    inst = to_scheduling(pruned, 6)
    assert sorted(inst.durations.values()) == [1, 3, 3]
    assert len(inst.jobs) == 3

    # the median is a majority polymorphism on every short path template
    start = time.monotonic()
    for length in range(7):
        for mask in itertools.product(".+", repeat=length):
            q = mixed_path("".join(mask))
            assert is_majority_polymorphism(d_of_q(q), median_polymorphism(q))
    assert time.monotonic() - start < 10


def test_witness_walks_respect_the_state_bound():
    corpus = [alternating_path(), mycielski_fixture(), core_tree(),
              glued_cycles(), three_component_pattern(), a_path(5)]
    corpus.extend(two_label_pair())
    for seed in range(40):
        rng = random.Random(seed)
        corpus.append(random_rgp(rng, rng.randint(1, 4), rng.randint(1, 6)))

    checked = 0
    for q in corpus:
        labels = {a.label for a in q.arcs}
        pairs = list(itertools.product(q.vertices, repeat=2))[:30]
        for e in labels:
            bound = walk_length_bound(q, e)
            for u, v in pairs:
                walk = find_walk(q, u, v, e)
                if walk is not None:
                    assert len(walk) <= bound, (u, v)
                    checked += 1
    assert checked > 200
