"""The budget contract: every public function that takes a SearchBudget
spends it, so a one-node budget stops each of them.

Each entry of CASES runs one function on an instance where a default
budget records more than one node; the function must then raise
BudgetExceededError under SearchBudget(max_nodes=1).  A second test
lists the functions with inspect and fails when the table misses one.
A third runs the public functions on the solve routes that take no
budget on a large input, where a quadratic pass would take minutes.
The last two run out of time instead of nodes, on a clock that jumps.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import pkgutil
import random
import time

import pytest

import rgphom
from rgphom import errors
from rgphom.automata import compile_nfa, determinize
from rgphom.cli import main
from rgphom.csp import iter_csp_solutions, pair_rows, solve_csp
from rgphom.errors import BudgetExceededError, SearchBudget
from rgphom.languages import concat_inclusion, language_inclusion, universality
from rgphom.nhom import is_n_core, label_relations, n_hom, verify_n_hom
from rgphom.regexes import parse_regex
from rgphom.rgp import (
    LabelKind, directed_path_order, is_connected, is_undirected, label_class,
    make_rgp, serialize_rgp,
)
from rgphom.solver import solve
from rgphom.unary import (
    SchedulingInstance,
    audit_undirected_ncore,
    classify_undirected_template,
    collapse_levels,
    d_of_q,
    hom_two_labeled,
    path_consistency_solve,
    prune_plus_arcs,
    reduce_to_hom,
    solve_path_template,
    solve_scheduling,
    solve_undirected,
    to_scheduling,
)
from rgphom.walks import (
    clear_relation_cache, find_walk, relation_for_label, walk_length_bound,
    witness_walks,
)

from fixtures import (
    a_path, alternating_path, chord_chain, planted_mixed_path,
    undirected_template,
)


def rx(text, alphabet="ab"):
    return parse_regex(text, alphabet)


COLORS = list("012")
TRIANGLE = [(x, y, pair_rows([(a, b) for a in COLORS for b in COLORS if a != b],
                             COLORS))
            for x, y in (("x", "y"), ("y", "z"), ("x", "z"))]
K3 = undirected_template([("u", "v"), ("v", "w"), ("w", "u")])
C4 = undirected_template([(f"d{i}", f"d{(i + 1) % 4}") for i in range(4)])
C6 = undirected_template([(f"c{i}", f"c{(i + 1) % 6}") for i in range(6)])
CHORD = chord_chain(3)
PATH = a_path(4)
IDENTITY = {f"p{i}": f"q{i}" for i in range(4)}
MIXED_P, MIXED_Q = planted_mixed_path(random.Random(3), 8)
SCHEDULE = SchedulingInstance(jobs=("C1", "C2"), durations={"C1": 2, "C2": 1},
                              constraints=(("C1", "C2", -2),), horizon=3)


# Each case builds the arguments of one call; only that call is charged.
CASES = {
    determinize: lambda: (compile_nfa(rx("(a|b)*a(a|b)(a|b)")),),
    solve_csp: lambda: ("xyz", COLORS, TRIANGLE),
    iter_csp_solutions: lambda: ("xyz", COLORS, TRIANGLE),
    language_inclusion: lambda: (rx("a(a|b)*"), rx("(a|b)*a")),
    # On (a|b)* the simulation proves universality at the root.
    universality: lambda: (rx("(aa|ab|ba|bb)*|(a|b)(aa|ab|ba|bb)*"), "ab"),
    concat_inclusion: lambda: ([rx("a"), rx("(a|b)*")], rx("a(a|b)*b|a")),
    label_relations: lambda: (CHORD, PATH),
    n_hom: lambda: (CHORD, PATH),
    verify_n_hom: lambda: (CHORD, PATH, n_hom(CHORD, PATH)),
    is_n_core: lambda: (CHORD,),
    solve: lambda: (a_path(3, prefix="p"), a_path(5)),
    d_of_q: lambda: (alternating_path(),),
    reduce_to_hom: lambda: (MIXED_P, MIXED_Q),
    hom_two_labeled: lambda: reduce_to_hom(MIXED_P, MIXED_Q),
    audit_undirected_ncore: lambda: (K3,),
    solve_undirected: lambda: (C6, C4),
    classify_undirected_template: lambda: (K3,),
    solve_scheduling: lambda: (SCHEDULE,),
    solve_path_template: lambda: (MIXED_P, MIXED_Q),
    path_consistency_solve: lambda: reduce_to_hom(MIXED_P, MIXED_Q),
    walk_length_bound: lambda: (PATH, rx("(a|b)*a(a|b)(a|b)")),
    find_walk: lambda: (PATH, "q0", "q3", rx("a+", "a")),
    relation_for_label: lambda: (PATH, rx("a+", "a")),
    witness_walks: lambda: (CHORD, IDENTITY, [relation_for_label(PATH, arc.label)
                                              for arc in CHORD.arcs]),
}


def _run(fn, budget):
    # A fresh instance and an empty relation cache for every run, so no
    # relation or witness walk found by an earlier run is reused.
    clear_relation_cache()
    try:
        result = fn(*CASES[fn](), budget=budget)
        if inspect.isgenerator(result):
            list(result)
    finally:
        clear_relation_cache()


@pytest.mark.parametrize("fn", list(CASES),
                         ids=lambda fn: f"{fn.__module__}.{fn.__name__}")
def test_a_one_node_budget_stops_every_budgeted_function(fn):
    budget = SearchBudget()
    _run(fn, budget)
    assert budget.nodes > 1
    with pytest.raises(BudgetExceededError):
        _run(fn, SearchBudget(max_nodes=1))


def test_the_table_lists_every_budgeted_function():
    budgeted = set()
    for info in pkgutil.iter_modules(rgphom.__path__):
        module = importlib.import_module(f"rgphom.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                param = inspect.signature(obj).parameters.get("budget")
                if param is not None and "SearchBudget" in str(param.annotation):
                    budgeted.add(obj)
    assert budgeted == set(CASES)


def test_the_unbudgeted_functions_take_a_large_input_in_seconds():
    # An all-a directed path of 40 000 vertices, cut into 10-vertex
    # components joined by a+ arcs, and an undirected a cycle as long.
    # Each call takes well under a second today.
    n = 40_000
    names = [f"p{i}" for i in range(n)]
    path = make_rgp("a", names, [
        (u, v, "a+" if i % 10 == 9 else "a")
        for i, (u, v) in enumerate(zip(names, names[1:]))])
    ring = make_rgp("a", names, [
        arc for u, v in zip(names, names[1:] + names[:1])
        for arc in ((u, v, "a"), (v, u, "a"))])

    def timed(fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        assert time.perf_counter() - start < 10, fn.__name__
        return result

    assert timed(label_class, path).kind is LabelKind.UNARY_A_APLUS
    assert timed(directed_path_order, path) == tuple(names)
    assert not timed(is_undirected, path)
    assert timed(is_undirected, ring)
    assert timed(is_connected, ring)
    collapsed = timed(collapse_levels, path)
    assert len(collapsed.rgp.vertices) == n
    pruned = timed(prune_plus_arcs, collapsed)
    assert len(pruned.arcs) == n - 1
    assert len(timed(to_scheduling, pruned, n).jobs) == n // 10


def _clock(monkeypatch, step: float) -> None:
    """time.monotonic, as the budget reads it, advancing step seconds a
    call from zero."""
    now = itertools.count(0, step)
    monkeypatch.setattr(errors.time, "monotonic", lambda: next(now))


def test_n_hom_stops_when_its_seconds_run_out(monkeypatch):
    clear_relation_cache()
    _clock(monkeypatch, 1)
    budget = SearchBudget(max_seconds=5)
    with pytest.raises(BudgetExceededError, match="^search exceeded 5 seconds$"):
        n_hom(CHORD, PATH, budget)
    clear_relation_cache()


def test_the_cli_exits_three_when_the_seconds_run_out(monkeypatch, capsys,
                                                      tmp_path):
    files = []
    for name, rgp in (("p.json", CHORD), ("q.json", PATH)):
        files.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(serialize_rgp(rgp)))
    clear_relation_cache()
    # Past the default 60 seconds at the first tick.
    _clock(monkeypatch, 100)
    code = main(["nhom", *files, "--solver", "general"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: search exceeded 60 seconds\n"
    clear_relation_cache()
