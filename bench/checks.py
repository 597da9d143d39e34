"""Answer checkers that share no code with rgphom's search.

Each ``check_*`` function takes the operation's ``expect`` record (built
by ``workloads.py``) and the answer (exit code, the JSON line the CLI
printed, and the certificate file it wrote, if any) and returns a list
of problems; an empty list means the answer is right.  Word membership
goes through Python's ``re``; walk relations of graph-database labels go
through the hand-written DFAs below.  Nothing here imports ``rgphom``.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from typing import Any

# Hand-written DFAs for the graph-database label menu of workloads.py:
# (accepting states, transitions); state 0 is initial, a missing
# transition rejects.  test_checks.py compares them with ``re``.
GDB_DFAS: dict[str, tuple[frozenset[int], dict[tuple[int, str], int]]] = {
    "a": (frozenset({1}), {(0, "a"): 1}),
    "b": (frozenset({1}), {(0, "b"): 1}),
    "b.a": (frozenset({2}), {(0, "b"): 1, (1, "a"): 2}),
    "(a.b)+": (frozenset({2}), {(0, "a"): 1, (1, "b"): 2, (2, "a"): 1}),
    "a.b*": (frozenset({1}), {(0, "a"): 1, (1, "b"): 1}),
    "(a|b)+": (frozenset({1}), {(0, "a"): 1, (0, "b"): 1,
                                (1, "a"): 1, (1, "b"): 1}),
    "a.(a|b)*": (frozenset({1}), {(0, "a"): 1, (1, "a"): 1, (1, "b"): 1}),
    "(a|b)*.b": (frozenset({1}), {(0, "a"): 0, (0, "b"): 1,
                                  (1, "a"): 0, (1, "b"): 1}),
}

# Enumerate shorter words only while there are at most this many.
MINIMALITY_WORDS = 1 << 16


def py_regex(expr: str) -> str:
    """rgphom surface syntax to Python ``re`` syntax: '.' is explicit
    concatenation there and any-character here."""
    return expr.replace(".", "")


def matches(expr: str, word: str) -> bool:
    return re.fullmatch(py_regex(expr), word) is not None


def spell(target: dict, walk: Any) -> tuple[str, str, str] | None:
    """(start, end, word) of a walk given as target arc indices, or None
    when it is empty, out of range or not contiguous."""
    arcs = target["arcs"]
    if not isinstance(walk, list) or not walk:
        return None
    if any(not isinstance(i, int) or not 0 <= i < len(arcs) for i in walk):
        return None
    for i, j in zip(walk, walk[1:]):
        if arcs[i]["to"] != arcs[j]["from"]:
            return None
    word = "".join(arcs[i]["label"] for i in walk)
    return arcs[walk[0]]["from"], arcs[walk[-1]]["to"], word


def _certificate_problems(pattern: dict, target: dict, doc: dict,
                          cert: dict | None, arc_ok) -> list[str]:
    """Shared shape check of a YES answer: a total map into the target,
    agreeing with the printed one, and one walk per pattern arc that
    joins the images of its ends; ``arc_ok(arc, walk, spelled)`` judges
    the walk's label."""
    if cert is None:
        return ["no certificate written"]
    mapping = cert.get("map", {})
    if doc.get("map") != mapping:
        return ["printed map differs from the certificate"]
    if set(mapping) != set(pattern["vertices"]):
        return ["map is not total on the pattern"]
    if any(v not in target["vertices"] for v in mapping.values()):
        return ["map leaves the target"]
    problems = []
    witnesses = cert.get("witnesses", {})
    for i, arc in enumerate(pattern["arcs"]):
        walk = witnesses.get(str(i))
        spelled = spell(target, walk)
        if spelled is None:
            problems.append(f"arc {i}: witness is not a walk")
            continue
        start, end, _ = spelled
        if (start, end) != (mapping[arc["from"]], mapping[arc["to"]]):
            problems.append(f"arc {i}: walk does not join the images")
        elif not arc_ok(arc, walk, spelled):
            problems.append(f"arc {i}: walk label does not fit {arc['label']}")
    return problems


# ---------------------------------------------------------------------------
# Graph databases


def label_relation(target: dict, label: str) -> dict[str, set[str]]:
    """u -> every v reached from u by a nonempty walk spelling a word of
    the label, by BFS over (vertex, DFA state) pairs."""
    accepting, delta = GDB_DFAS[label]
    out: dict[str, list[tuple[str, str]]] = {v: [] for v in target["vertices"]}
    for arc in target["arcs"]:
        out[arc["from"]].append((arc["label"], arc["to"]))
    relation = {}
    for u in target["vertices"]:
        seen = {(u, 0)}
        queue = deque(seen)
        reached = set()
        while queue:
            v, state = queue.popleft()
            for ch, w in out[v]:
                nxt = delta.get((state, ch))
                if nxt is None or (w, nxt) in seen:
                    continue
                seen.add((w, nxt))
                queue.append((w, nxt))
                if nxt in accepting:
                    reached.add(w)
        relation[u] = reached
    return relation


def gdb_has_match(pattern: dict, target: dict) -> bool:
    """Reference CRPQ evaluation: backtracking over pattern vertices with
    candidates cut down by the label relations of assigned neighbours."""
    relations = {arc["label"]: None for arc in pattern["arcs"]}
    for label in relations:
        relations[label] = label_relation(target, label)
    order = pattern["vertices"]
    assigned: dict[str, str] = {}

    def candidates(x: str) -> set[str]:
        result = set(target["vertices"])
        for arc in pattern["arcs"]:
            rel = relations[arc["label"]]
            if arc["from"] == x and arc["to"] == x:
                result = {u for u in result if u in rel[u]}
            elif arc["from"] == x and arc["to"] in assigned:
                result = {u for u in result if assigned[arc["to"]] in rel[u]}
            elif arc["to"] == x and arc["from"] in assigned:
                result &= rel[assigned[arc["from"]]]
        return result

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        for u in sorted(candidates(order[k])):
            assigned[order[k]] = u
            if extend(k + 1):
                return True
            del assigned[order[k]]
        return False

    return extend(0)


def check_gdb(expect: dict, code: int, doc: dict, cert: dict | None) -> list[str]:
    pattern, target = expect["pattern"], expect["target"]
    if code == 0 and doc.get("exists") is True:
        return _certificate_problems(
            pattern, target, doc, cert,
            lambda arc, walk, spelled: matches(arc["label"], spelled[2]))
    if code == 1 and doc.get("exists") is False:
        if gdb_has_match(pattern, target):
            return ["answered NO, but the reference evaluator finds a match"]
        return []
    return [f"unexpected answer: exit {code}, {doc}"]


# ---------------------------------------------------------------------------
# {a, a+} patterns into directed paths


def _path_arc_ok(target: dict):
    def ok(arc, walk, spelled):
        if arc["label"] == "a":
            # exactly one target arc, itself labelled a
            return len(walk) == 1 and target["arcs"][walk[0]]["label"] == "a"
        return arc["label"] == "a+"   # any nonempty forward walk
    return ok


def check_path(expect: dict, code: int, doc: dict, cert: dict | None) -> list[str]:
    if expect["exists"]:
        if code != 0 or doc.get("exists") is not True:
            return [f"planted instance answered exit {code}, {doc}"]
        return _certificate_problems(expect["pattern"], expect["target"],
                                     doc, cert, _path_arc_ok(expect["target"]))
    if code != 1 or doc.get("exists") is not False:
        return [f"cyclic pattern answered exit {code}, {doc}"]
    return []


# ---------------------------------------------------------------------------
# 3-colouring


def check_k3(expect: dict, code: int, doc: dict, cert: dict | None) -> list[str]:
    if expect["exists"]:
        if code != 0 or doc.get("exists") is not True:
            return [f"3-colourable pattern answered exit {code}, {doc}"]

        def proper(arc, walk, spelled):
            start, end, word = spelled
            return len(walk) == 1 and word == "a" and start != end

        return _certificate_problems(expect["pattern"], expect["target"],
                                     doc, cert, proper)
    if code != 1 or doc.get("exists") is not False:
        return [f"odd-wheel pattern answered exit {code}, {doc}"]
    return []


# ---------------------------------------------------------------------------
# Language inclusion and core gadgets


def shorter_counterexample(e1: str, e2: str, alphabet: str,
                           length: int) -> str | None:
    """A word shorter than ``length`` in L(e1) but not in L(e2), or None.
    Returns None without looking when there are too many words."""
    if sum(len(alphabet) ** k for k in range(length)) > MINIMALITY_WORDS:
        return None
    r1, r2 = re.compile(py_regex(e1)), re.compile(py_regex(e2))
    for k in range(length):
        for letters in itertools.product(alphabet, repeat=k):
            word = "".join(letters)
            if r1.fullmatch(word) and not r2.fullmatch(word):
                return word
    return None


def check_include(expect: dict, code: int, doc: dict, cert: dict | None) -> list[str]:
    holds = expect["holds"]
    if holds:
        if code != 0 or doc != {"holds": True}:
            return [f"inclusion holds, answered exit {code}, {doc}"]
        return []
    if code != 1 or doc.get("holds") is not False:
        return [f"inclusion fails, answered exit {code}, {doc}"]
    word = doc.get("counterexample")
    e1, e2, alphabet = expect["e1"], expect["e2"], expect["alphabet"]
    if not isinstance(word, str) or not matches(e1, word):
        return [f"counterexample {word!r} is not in L(e1)"]
    if matches(e2, word):
        return [f"counterexample {word!r} is in L(e2)"]
    shorter = shorter_counterexample(e1, e2, alphabet, len(word))
    if shorter is not None:
        return [f"counterexample {word!r} is not shortest: {shorter!r}"]
    return []


def check_core(expect: dict, code: int, doc: dict, cert: dict | None) -> list[str]:
    """The gadget x->y (e1), x->z (c|e2) is a core exactly when
    L(e1) is not included in L(e2).  When it is not, the only retraction
    deletes arc 1 and folds z onto y, both arcs riding arc 0."""
    if not expect["included"]:
        if code != 0 or doc != {"core": True}:
            return [f"gadget is a core, answered exit {code}, {doc}"]
        return []
    if code != 1 or doc.get("core") is not False:
        return [f"gadget is not a core, answered exit {code}, {doc}"]
    expected = {"core": False, "removed_arc": 1,
                "retraction": {"map": {"x": "x", "y": "y", "z": "y"},
                               "witnesses": {"0": [0], "1": [0]}}}
    if doc != expected:
        return [f"unexpected retraction {doc}"]
    return []


CHECKERS = {
    "gdb": check_gdb,
    "path": check_path,
    "k3": check_k3,
    "include": check_include,
    "core": check_core,
}
