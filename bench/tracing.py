"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` wraps every public function of the layer modules
below and re-binds each wrapped name in every ``rgphom`` module that
holds it, so calls between modules and inside one module both pass
through the wrapper.  A wrapper records a span (name, round, operation,
parent span, start, end) only while an operation is running, and keeps
it in memory; ``write`` saves them when the run ends.  Counts that need
the call's arguments or result (budget nodes, DFA states, relation
pairs) are taken in the same wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("rgp", "automata", "languages", "walks", "csp", "nhom", "unary", "cli")

# Self-time metrics: the functions whose self time each one sums.
TIME_METRICS = {
    "rgp.parse_s": ("rgp.parse_rgp", "rgp.make_rgp"),
    "automata.compile_s": ("automata.compile_nfa",),
    "automata.determinize_s": ("automata.determinize",),
    "languages.inclusion_s": ("languages.language_inclusion",
                              "languages.nfa_language_included",
                              "languages.concat_inclusion",
                              "languages.universality"),
    "walks.relation_s": ("walks.relation_for_label",),
    "csp.solve_s": ("csp.solve_csp", "csp.iter_csp_solutions"),
    "nhom.n_hom_s": ("nhom.n_hom", "nhom.label_relations"),
    "nhom.core_s": ("nhom.is_n_core",),
    "unary.path_s": ("unary.solve_path_template",
                     "unary.solve_path_template_with_reason",
                     "unary.reduce_to_hom", "unary.d_of_q",
                     "unary.collapse_levels", "unary.prune_plus_arcs",
                     "unary.to_scheduling"),
    "unary.path_consistency_s": ("unary.path_consistency_solve",),
    "unary.scheduling_s": ("unary.solve_scheduling",),
    "unary.classify_s": ("unary.classify_undirected_template",
                         "unary.odd_a_cycle", "unary.solve_undirected_easy",
                         "unary.easy_certificate",
                         "unary.audit_undirected_ncore"),
}
# Every span's self time also counts toward its layer's total.
LAYER_METRICS = {f"{layer}.self_s": layer for layer in LAYERS}
COUNT_METRICS = (
    "automata.dfa_states",
    "languages.inclusion_calls",
    "walks.relation_calls",
    "walks.relation_nodes",
    "walks.relation_pairs",
    "walks.cache_hits",
    "walks.witnesses_used",
    "walks.witnesses_held",
    "csp.nodes",
    "nhom.core_subsolves",
    "cli.route_general",
    "cli.route_path",
    "cli.route_undirected",
    "cli.route_fallbacks",
)
RATIO_METRICS = {"walks.witness_use_ratio": ("walks.witnesses_used",
                                             "walks.witnesses_held")}
# Functions called straight from the CLI that start a special route.
SPECIAL_ROUTES = {"unary.solve_path_template": "path",
                  "unary.classify_undirected_template": "undirected"}

# Span fields.
NAME, ROUND, OP, PARENT, START, END = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._round = 0
        self._op: int | None = None
        self._op_first_span = 0
        # Relations returned in the current round, by identity; the
        # references keep the ids from being reused.
        self._held: dict[int, object] = {}
        # Witness walks placed in the current round's answers.
        self._used: set = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rgphom.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rgphom" and not mod_name.startswith("rgphom."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])

    def _wrap(self, name: str, fn):
        params = list(inspect.signature(fn).parameters)
        budget_at = params.index("budget") if "budget" in params else None

        def budget_of(args, kwargs):
            if "budget" in kwargs:
                return kwargs["budget"]
            if budget_at is not None and len(args) > budget_at:
                return args[budget_at]
            return None

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                budget = budget_of(args, kwargs)
                while True:
                    if self._op is None:
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                    else:
                        before = budget.nodes if budget is not None else 0
                        index = self._open(name)
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._close(index)
                            after = budget.nodes if budget is not None else 0
                            self._observe(name, (), None, after - before)
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            budget = budget_of(args, kwargs)
            before = budget.nodes if budget is not None else None
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            nodes = None if budget is None else budget.nodes - before
            self._observe(name, args, result, nodes)
            return result
        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._round, self._op, parent,
                           time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        # A closed span becomes a tuple of atoms, which the garbage
        # collector stops tracking, so long traced runs do not slow it.
        name, round_index, op, parent, start, _ = self.spans[index]
        self.spans[index] = (name, round_index, op, parent, start,
                             time.perf_counter())
        self._stack.pop()

    def _inside(self, prefix: str) -> bool:
        """True when an enclosing open span's name starts with prefix."""
        return any(self.spans[i][NAME].startswith(prefix) for i in self._stack)

    def _observe(self, name: str, args, result, nodes) -> None:
        counts = self.counts.setdefault(self._round, Counter())
        if name == "automata.determinize":
            counts["automata.dfa_states"] += result.n_states
        elif name in ("languages.language_inclusion",
                      "languages.nfa_language_included"):
            counts["languages.inclusion_calls"] += 1
        elif name == "walks.relation_for_label":
            counts["walks.relation_calls"] += 1
            counts["walks.relation_nodes"] += nodes or 0
            if nodes == 0:
                counts["walks.cache_hits"] += 1
            else:
                counts["walks.relation_pairs"] += len(result.pairs)
            self._held[id(result)] = result
        elif name.startswith("csp.") and not self._inside("csp."):
            counts["csp.nodes"] += nodes or 0
        elif name == "nhom.n_hom" and self._inside("nhom.is_n_core"):
            counts["nhom.core_subsolves"] += 1

    # -- operations and rounds ------------------------------------------------

    def begin_op(self, round_index: int, op_index: int) -> None:
        self._round, self._op = round_index, op_index
        self._op_first_span = len(self.spans)

    def end_op(self, route: str | None, witnesses: set) -> None:
        """Count the route the CLI reported and the special routes that
        were tried straight from the CLI and given up."""
        counts = self.counts.setdefault(self._round, Counter())
        if route is not None:
            counts[f"cli.route_{route}"] += 1
            roots = {i for i in range(self._op_first_span, len(self.spans))
                     if self.spans[i][PARENT] == -1}
            for span in self.spans[self._op_first_span:]:
                tried = SPECIAL_ROUTES.get(span[NAME])
                if span[PARENT] in roots and tried and tried != route:
                    counts["cli.route_fallbacks"] += 1
        self._used |= witnesses
        self._op = None

    def end_round(self) -> None:
        counts = self.counts.setdefault(self._round, Counter())
        counts["walks.witnesses_held"] += sum(
            len(rel.witnesses) for rel in self._held.values())
        counts["walks.witnesses_used"] += len(self._used)
        self._held.clear()
        self._used.clear()

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict[int, Counter]:
        """Per round: self time of every function, span minus children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        per_round: dict[int, Counter] = {}
        for i, span in enumerate(self.spans):
            own = span[END] - span[START] - child[i]
            per_round.setdefault(span[ROUND], Counter())[span[NAME]] += own
        return per_round

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, as the mean over rounds of its value
        for one round of operations."""
        times = self.self_times()
        values: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            values[metric] = sum(times.get(r, Counter())[n]
                                 for r in range(rounds) for n in names) / rounds
        for metric, layer in LAYER_METRICS.items():
            values[metric] = sum(
                t for r in range(rounds)
                for n, t in times.get(r, Counter()).items()
                if n.split(".")[0] == layer) / rounds
        for metric in COUNT_METRICS:
            total = sum(self.counts.get(r, Counter())[metric]
                        for r in range(rounds))
            values[metric] = total / rounds
            if total % rounds == 0:
                values[metric] = total // rounds
        for metric, (num, den) in RATIO_METRICS.items():
            values[metric] = values[num] / values[den] if values[den] else 0.0
        return values

    def write(self, path: Path, answers: list) -> None:
        path.write_text(json.dumps({
            "span_fields": ["name", "round", "op", "parent", "start", "end"],
            "spans": self.spans,
            "answers": answers,
        }))


PER_LAYER_METRICS = (list(TIME_METRICS) + list(LAYER_METRICS)
                     + list(COUNT_METRICS) + list(RATIO_METRICS))
