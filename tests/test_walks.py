from __future__ import annotations

import random
from itertools import product

import pytest

from rgphom.automata import compile_nfa, determinize
from rgphom.errors import BudgetExceededError, PreconditionError, SearchBudget
from rgphom import walks
from rgphom.languages import language_inclusion
from rgphom.nhom import is_n_core
from rgphom.regexes import parse_regex
from rgphom.rgp import make_rgp, parse_rgp, walk_endpoints
from rgphom.testkit import gadget_ncore
from rgphom.walks import (
    _bits, _Engine, clear_relation_cache, find_walk,
    relation_for_label, walk_length_bound,
)

from helpers import (
    all_walks, reference_antichain_images, reference_relation, walk_qualifies,
)


def rx(text, alphabet="ab"):
    return parse_regex(text, alphabet)


def test_find_walk_single_arc_under_plus():
    q = make_rgp("a", ["u", "v"], [("u", "v", "a")])
    assert find_walk(q, "u", "v", rx("a+", "a")) == (0,)


def test_find_walk_two_arcs_for_exact_word():
    q = make_rgp("a", ["x", "y", "z"], [("x", "y", "a"), ("y", "z", "a")])
    assert find_walk(q, "x", "z", rx("aa", "a")) == (0, 1)
    assert find_walk(q, "x", "y", rx("aa", "a")) is None


def test_find_walk_label_mismatch_is_none():
    q = make_rgp("ab", ["u", "v"], [("u", "v", "b")])
    assert find_walk(q, "u", "v", rx("a")) is None


def test_find_walk_rejects_empty_walk():
    # Same source and target: only cycles count, never the empty walk.
    q = make_rgp("a", ["u", "v"], [("u", "v", "a")])
    assert find_walk(q, "u", "u", rx("a*", "a")) is None


def test_find_walk_unknown_vertex():
    q = make_rgp("a", ["u"], [])
    with pytest.raises(PreconditionError):
        find_walk(q, "u", "w", rx("a", "a"))


def test_relation_two_cycle_all_pairs():
    q = make_rgp("a", ["u", "v"], [("u", "v", "a+"), ("v", "u", "a+")])
    relation = relation_for_label(q, rx("a+", "a"))
    assert relation.pairs == {("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")}
    for pair, walk in relation.witnesses.items():
        assert walk_endpoints(q, walk) == pair
        assert walk_qualifies(q, walk, rx("a+", "a"))


def test_relation_empty_when_no_label_fits():
    q = make_rgp("ab", ["v", "u"], [("v", "u", "a")])
    assert relation_for_label(q, rx("b")).pairs == frozenset()


def test_an_image_dies_by_emptying():
    # Every state of a*'s NFA reaches acceptance, so the only dead mask
    # is the empty one: a b arc steps {initial} to it, and the image is
    # dead, for the mask and for the antichain.
    q = make_rgp("ab", ["u", "v"], [("u", "v", "b")])
    clear_relation_cache()
    relation = relation_for_label(q, rx("a*"))
    assert relation.rows == (0, 0) and relation.pairs == frozenset()
    engine = relation._engine
    label = engine.label_ids[rx("b")]
    assert engine._mask_images[label] == {1: None}
    assert engine.images[label] == {0: -1}
    assert find_walk(q, "u", "v", rx("a*")) is None


def test_relation_under_sigma_star():
    q = make_rgp("ab", ["v", "u"], [("v", "u", "a")])
    relation = relation_for_label(q, rx("(a|b)*"))
    assert ("v", "u") in relation.pairs


def test_walks_are_deterministic():
    q = make_rgp("a", ["u", "v", "w"],
                 [("u", "v", "a"), ("u", "v", "a"), ("v", "w", "a"),
                  ("v", "u", "a+")])
    first = relation_for_label(q, rx("a+", "a"))
    clear_relation_cache()
    second = relation_for_label(q, rx("a+", "a"))
    assert first.pairs == second.pairs
    assert first.witnesses == second.witnesses
    # Parallel arcs tie on length; the smaller arc index wins.
    assert first.witnesses[("u", "v")] == (0,)


def test_equal_targets_hash_once_and_share_one_relation():
    doc = {"alphabet": ["a", "b"], "vertices": ["u", "v", "w"],
           "arcs": [{"from": "u", "to": "v", "label": "a"},
                    {"from": "v", "to": "w", "label": "b+"}]}
    first, second = parse_rgp(doc), parse_rgp(doc)
    # the hash is computed on first use, not when the pattern is built
    assert first._hash is None and second._hash is None
    assert hash(first) == hash(second)
    assert first._hash == second._hash == hash(first)
    clear_relation_cache()
    assert relation_for_label(first, rx("ab+")) is relation_for_label(
        second, rx("ab+"))


def _random_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    vertices = [f"v{i}" for i in range(n)]
    label_pool = ["a", "b", "a+", "ab", "a|b", "(ab)*", "a*b", "b+"]
    arcs = []
    for _ in range(rng.randint(1, 5)):
        arcs.append((rng.choice(vertices), rng.choice(vertices),
                     rng.choice(label_pool)))
    return make_rgp("ab", vertices, arcs), rx(rng.choice(label_pool))


@pytest.mark.parametrize("seed", range(60))
def test_find_walk_sound_and_complete_at_desk_scale(seed):
    q, e = _random_instance(seed)
    bound = walk_length_bound(q, e)
    # Exhaustive ground truth: scan all walks up to a small horizon and
    # keep the engine honest on both directions within it.
    horizon = 6
    for u in q.vertices:
        reachable = {}
        for walk in all_walks(q, u, horizon):
            end = walk_endpoints(q, walk)[1]
            if end not in reachable and walk_qualifies(q, walk, e):
                reachable[end] = walk
        for v in q.vertices:
            got = find_walk(q, u, v, e)
            if got is not None:
                assert walk_endpoints(q, got) == (u, v)
                assert walk_qualifies(q, got, e)
                assert len(got) <= bound
                if v in reachable:
                    assert len(got) == len(reachable[v])
            if v in reachable:
                assert got is not None
            elif got is None:
                continue
            else:
                # The engine found a qualifying walk longer than the
                # enumeration horizon; that is consistent.
                assert len(got) > horizon


# Arc and pattern labels for the reference comparison: several are
# multi-symbol, nullable or starred, so label images are not single steps.
REFERENCE_LABELS = ["a", "b", "ab", "a|b", "a*", "b*", "a+", "b+a", "(ab)*",
                    "(ab)+", "(a|b)*", "a*b", "a(ba)*b", "(a|b)*a(a|b)"]


def _reference_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    # Names out of index order, so that nothing leans on name order.
    vertices = [f"v{i}" for i in range(n)]
    rng.shuffle(vertices)
    arcs = [(rng.choice(vertices), rng.choice(vertices),
             rng.choice(REFERENCE_LABELS))
            for _ in range(rng.randint(0, 2 * n + 2))]
    return make_rgp("ab", vertices, arcs), rx(rng.choice(REFERENCE_LABELS))


def _as_sets(masks):
    return frozenset(frozenset(_bits(mask)) for mask in masks)


def _assert_images_match_reference(engine, e):
    """Every antichain image the engine memoised equals the reference's,
    a dead image (-1) matching None. Every source steps the initial
    antichain over each of its out-arcs, so no label's memo is empty."""
    for label, k in engine.label_ids.items():
        memo = sorted(engine.images[k].items())
        assert memo, label
        expected = reference_antichain_images(
            compile_nfa(e), compile_nfa(label),
            [_as_sets(engine.antichains[a]) for a, _ in memo])
        got = [None if image < 0 else _as_sets(engine.antichains[image])
               for _, image in memo]
        assert got == expected, label


def test_engine_matches_the_per_source_reference_on_200_targets():
    for seed in range(200):
        q, e = _reference_instance(seed)
        expected = reference_relation(q, e)
        clear_relation_cache()
        relation = relation_for_label(q, e)
        assert relation.pairs == set(expected), seed
        for (u, v), walk in expected.items():
            assert relation.witness(u, v) == walk, (seed, u, v)
        assert dict(relation.witnesses) == expected, seed
        _assert_images_match_reference(relation._engine, e)
        engine = _Engine(q, e)
        for u, v in product(q.vertices, repeat=2):
            got = engine.walk(engine.index[u], engine.index[v], SearchBudget())
            assert got == expected.get((u, v)), (seed, u, v)


def test_witnesses_view_is_read_only_and_keyed_by_pairs():
    q = make_rgp("a", ["u", "v"], [("u", "v", "a")])
    relation = relation_for_label(q, rx("a", "a"))
    assert set(relation.witnesses) == {("u", "v")} == relation.pairs
    assert len(relation.witnesses) == 1
    assert ("v", "u") not in relation.witnesses
    with pytest.raises(KeyError):
        relation.witness("v", "u")
    with pytest.raises(TypeError):
        relation.witnesses[("u", "v")] = (0,)


def _cycle(n, labels=("a|b",)):
    """A directed cycle c0 -> c1 -> ... -> c0 with seeded arc labels."""
    rng = random.Random(n)
    names = [f"c{i}" for i in range(n)]
    return make_rgp("ab", names, [(names[i], names[(i + 1) % n],
                                   rng.choice(labels)) for i in range(n)])


def test_tiny_budget_stops_the_relation_and_the_witness_search():
    q, e = _cycle(30), rx("(a|b)+")
    clear_relation_cache()
    with pytest.raises(BudgetExceededError):
        relation_for_label(q, e, SearchBudget(max_nodes=5))
    relation = relation_for_label(q, e)
    with pytest.raises(BudgetExceededError):
        relation.witness("c0", "c29", SearchBudget(max_nodes=5))
    walk = relation.witness("c0", "c29")
    assert walk == tuple(range(29))
    # A memoised witness costs nothing.
    assert relation.witness("c0", "c29", SearchBudget(max_nodes=0)) == walk


def _relation_of_cycle(budget):
    clear_relation_cache()
    relation_for_label(_cycle(60, ("a", "b")), rx("(a|b)*a(a|b)"), budget)


def _witness_on_cycle(budget):
    clear_relation_cache()
    relation = relation_for_label(_cycle(30), rx("(a|b)+"))
    relation.witness("c0", "c29", budget)


def _determinize_deep(budget):
    determinize(compile_nfa(rx("(a|b)*a" + "(a|b)" * 9)), budget=budget)


def _include_deep(budget):
    language_inclusion(rx("(a|b)*a(a|b)(a|b)(a|b)(a|b)"),
                       rx("(a|b)*b(a|b)(a|b)(a|b)(a|b)|b*"), budget)


@pytest.mark.parametrize("search, total, max_nodes", [
    (_relation_of_cycle, 114, 57),
    (_relation_of_cycle, 114, 113),
    (_witness_on_cycle, 29, 14),
    (_determinize_deep, 1025, 300),
    (_include_deep, 20, 10),
])
def test_a_search_stops_at_the_first_node_past_its_budget(
        search, total, max_nodes):
    # Each loop ticks once per node it expands, so a budget of k nodes
    # raises on node k + 1, not at the end of a batch or of the search.
    budget = SearchBudget()
    search(budget)
    assert budget.nodes == total
    budget = SearchBudget(max_nodes=max_nodes)
    with pytest.raises(BudgetExceededError):
        search(budget)
    assert budget.nodes == max_nodes + 1


def test_label_images_spend_the_relation_budget():
    # The arc label is ten (a|b) steps, a chain of 21 NFA states. The
    # 2^k words of each length k lead the label's initial mask to 2^k
    # nodes, none pruned, so the image search has 2^11 - 1 nodes; the
    # walk graph adds the one node (image, v), which does not qualify.
    # The budget runs out inside the image search.
    q = make_rgp("ab", ["u", "v"], [("u", "v", "(a|b)" * 10)])
    e = rx("(a|b)*a" + "(a|b)" * 9)
    clear_relation_cache()
    with pytest.raises(BudgetExceededError) as caught:
        relation_for_label(q, e, SearchBudget(max_nodes=1000))
    assert any(entry.name == "_mask_image" for entry in caught.traceback)
    budget = SearchBudget()
    assert relation_for_label(q, e, budget).pairs == frozenset()
    assert budget.nodes == 2 ** 11


def test_core_check_of_the_n12_gadget_fits_a_small_budget():
    # Determinizing each label cost 2^13 + 2 states per sub-solve, and
    # the label images of that DFA about 320 000 budget nodes in all.
    e1 = rx("(a|b)*a" + "(a|b)" * 12)
    e2 = rx("(a|b)*a" + "(a|b)" * 12 + "|b*")
    clear_relation_cache()
    verdict = is_n_core(gadget_ncore(e1, e2), SearchBudget(max_nodes=100_000))
    assert not verdict.is_core
    clear_relation_cache()


def _scc_instance(seed):
    """A target made of directed cycles (a cycle of length 1 is a
    self-loop) chained by one-way arcs, with parallel arcs, and vertex
    names shuffled so that neither q.vertices nor the cycles follow name
    order: its walk graphs have many strongly connected components."""
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(rng.randint(6, 14))]
    rng.shuffle(names)
    cycles, rest = [], names[:]
    while rest:
        size = min(rng.randint(1, 4), len(rest))
        cycles.append(rest[:size])
        rest = rest[size:]
    arcs = []
    for cycle in cycles:
        for i, v in enumerate(cycle):
            arcs.append((v, cycle[(i + 1) % len(cycle)],
                         rng.choice(REFERENCE_LABELS)))
    for i in range(len(cycles) - 1):
        for _ in range(rng.randint(1, 2)):
            arcs.append((rng.choice(cycles[i]),
                         rng.choice(cycles[rng.randrange(i + 1, len(cycles))]),
                         rng.choice(REFERENCE_LABELS)))
    for src, dst, label in rng.sample(arcs, 3):
        arcs.append((src, dst, rng.choice([label, *REFERENCE_LABELS])))
    rng.shuffle(arcs)
    vertices = names[:]
    rng.shuffle(vertices)
    return make_rgp("ab", vertices, arcs), rx(rng.choice(CYCLIC_LABELS))


# Pattern labels whose DFAs loop, so that walks around the target's
# cycles stay alive and the walk graph keeps cycles of its own.
CYCLIC_LABELS = ["a*", "a+", "(a|b)*", "(a|b)+", "(ab)*", "b*a*",
                 "(a|b)*a(a|b)", "(a|b)*b", "a(a|b)*"]


@pytest.mark.parametrize("seed", range(80))
def test_condensed_relation_matches_the_reference_on_scc_chains(seed):
    q, e = _scc_instance(seed)
    expected = reference_relation(q, e)
    clear_relation_cache()
    relation = relation_for_label(q, e)
    names = relation.names
    assert names == tuple(sorted(q.vertices))
    assert relation.rows == tuple(
        sum(1 << j for j, v in enumerate(names) if (u, v) in expected)
        for u in names)
    assert relation.cols == tuple(
        sum(1 << i for i, u in enumerate(names) if relation.rows[i] >> j & 1)
        for j in range(len(names)))
    assert dict(relation.witnesses) == expected
    _assert_images_match_reference(relation._engine, e)


def test_condensation_enters_and_ticks_each_node_once():
    # Every node of a complete digraph is reached from every other one,
    # so a search that ticked per arrival would count each many times.
    n = 40
    calls = []

    def successors(x):
        calls.append(x)
        return [y for y in range(n) if y != x]

    budget = SearchBudget()
    components, comp, succ = walks._condense(range(n), successors, budget)
    assert sorted(calls) == list(range(n))
    assert budget.nodes == n
    assert components == [list(range(n))]


def test_relation_ticks_once_per_distinct_product_node():
    # The NFA of a+ is 0 -a-> 1 -a-> 2 -a-> 2, and that of the target
    # label a is 0 -a-> 1. The walks reach the antichains {{0}}, {{1}}
    # and {{2}}. Each of the masks {0}, {1} and {2} has its image under
    # a searched once, over the 2 nodes (M, 0) and (step(M), 1). The
    # walk graph reaches the 3 nodes ({{1}}, v) and the 3 nodes
    # ({{2}}, v), which form one cycle.
    q = make_rgp("a", ["b", "a", "c"],
                 [("a", "b", "a"), ("b", "c", "a"), ("c", "a", "a")])
    clear_relation_cache()
    budget = SearchBudget()
    relation = relation_for_label(q, rx("a+", "a"), budget)
    assert relation.antichains == 3
    assert budget.nodes == 3 * 2 + 6
    assert len(relation.pairs) == 9


def test_relation_cache_keeps_the_latest_1024_relations():
    # One-vertex targets named apart: each is its own cache key.
    e = rx("a+", "a")
    targets = [make_rgp("a", [f"t{i}"], [(f"t{i}", f"t{i}", "a")])
               for i in range(1025)]
    clear_relation_cache()
    relations = [relation_for_label(q, e) for q in targets]
    assert len(walks._relation_cache) == 1024
    assert (e, targets[0]) not in walks._relation_cache
    # A cache hit ticks nothing.
    assert relation_for_label(
        targets[-1], e, SearchBudget(max_nodes=0)) is relations[-1]
    first = relations[0]
    again = relation_for_label(targets[0], e)
    assert again is not first
    assert again.pairs == first.pairs == {("t0", "t0")}
    assert again.witness("t0", "t0") == first.witness("t0", "t0") == (0,)
    assert (e, targets[1]) not in walks._relation_cache
    clear_relation_cache()


def test_relation_cache_hits_on_a_second_load_of_the_target():
    doc = {"alphabet": ["a", "b"], "vertices": ["x", "y", "z"],
           "arcs": [{"from": s, "to": d, "label": t} for s, d, t in (
               ("x", "y", "a"), ("y", "z", "b"), ("z", "x", "a"),
               ("y", "y", "b"))]}
    clear_relation_cache()
    first = relation_for_label(parse_rgp(doc), rx("a.b*"))
    # The second load and the label parsed again are new objects that
    # equal the first ones: the lookup hits and runs no search.
    again = relation_for_label(parse_rgp(doc), rx("a.b*"),
                               SearchBudget(max_nodes=1))
    assert again is first
    clear_relation_cache()


def test_deep_path_relation_needs_no_recursion():
    # The walk graph of a+ on a 5 000-vertex path is one chain, so a
    # recursive depth-first search would exceed Python's stack.
    n = 5000
    names = [f"p{i}" for i in range(n)]
    q = make_rgp("a", names, [(names[i], names[i + 1], "a")
                              for i in range(n - 1)])
    clear_relation_cache()
    relation = relation_for_label(q, rx("a+", "a"))
    assert len(relation.pairs) == n * (n - 1) // 2
    assert relation.holds("p0", f"p{n - 1}")
    assert not relation.holds(f"p{n - 1}", "p0")
    clear_relation_cache()


def test_walk_length_bound_spends_the_callers_budget():
    q = make_rgp("ab", ["u", "v"], [("u", "v", "a")])
    e = rx("(a|b)*a(a|b)(a|b)")
    budget = SearchBudget()
    assert walk_length_bound(q, e, budget) == 2 ** budget.nodes * 2
    with pytest.raises(BudgetExceededError):
        walk_length_bound(q, e, SearchBudget(max_nodes=2))
