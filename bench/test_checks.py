"""The independent checkers accept right answers and reject corrupted ones.

Run from the repository root: python3 -m pytest bench
"""

import itertools
import re
from pathlib import Path

import pytest

import checks
import workloads


def _words(alphabet, max_len):
    for k in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=k):
            yield "".join(letters)


def _dfa_accepts(label, word):
    accepting, delta = checks.GDB_DFAS[label]
    state = 0
    for ch in word:
        state = delta.get((state, ch))
        if state is None:
            return False
    return state in accepting


@pytest.mark.parametrize("label", sorted(workloads.GDB_LABELS))
def test_hand_written_dfas_agree_with_re(label):
    assert sorted(checks.GDB_DFAS) == sorted(workloads.GDB_LABELS)
    pattern = re.compile(workloads.GDB_LABELS[label])
    assert workloads.GDB_LABELS[label] == checks.py_regex(label)
    for word in _words("ab", 8):
        assert _dfa_accepts(label, word) == bool(pattern.fullmatch(word)), word


# ---------------------------------------------------------------------------
# Graph databases

# u -a-> v -b-> w -a-> u, plus w -b-> w.
DB = workloads._pattern("ab", ["u", "v", "w"],
                        [("u", "v", "a"), ("v", "w", "b"), ("w", "u", "a"),
                         ("w", "w", "b")])
QUERY = workloads._pattern("ab", ["x", "y"],
                           [("x", "y", "a.b*"), ("y", "x", "a")])
GOOD = {"map": {"x": "u", "y": "w"}, "witnesses": {"0": [0, 1, 3], "1": [2]}}


def _gdb(cert, code=0):
    doc = {"exists": code == 0, "solver": "general"}
    if cert is not None:
        doc["map"] = cert["map"]
    return checks.check_gdb({"pattern": QUERY, "target": DB}, code, doc, cert)


def test_gdb_accepts_a_valid_certificate():
    assert _gdb(GOOD) == []


@pytest.mark.parametrize("witnesses", [
    {"0": [0, 3], "1": [2]},        # not contiguous
    {"0": [0], "1": [2]},           # ends at v, not at the image w
    {"0": [0, 1, 3], "1": [1, 2]},  # spells "ba", not in L(a)
    {"0": [0, 1, 3], "1": []},      # empty walk
    {"0": [0, 1, 3], "1": [9]},     # no such arc
])
def test_gdb_rejects_corrupted_witnesses(witnesses):
    assert _gdb(dict(GOOD, witnesses=witnesses))


def test_gdb_rejects_a_map_that_differs_from_the_printed_one():
    doc = {"exists": True, "map": {"x": "v", "y": "w"}}
    assert checks.check_gdb({"pattern": QUERY, "target": DB}, 0, doc, GOOD)


def test_gdb_rejects_a_false_no():
    assert _gdb(None, code=1)


def test_gdb_accepts_a_true_no():
    query = workloads._pattern("ab", ["x", "y"],
                               [("x", "y", "b.a"), ("y", "x", "b")])
    assert not checks.gdb_has_match(query, DB)
    assert checks.check_gdb({"pattern": query, "target": DB}, 1,
                            {"exists": False}, None) == []


# ---------------------------------------------------------------------------
# Directed paths

PATH = workloads._pattern("a", ["q0", "q1", "q2", "q3"],
                          [("q0", "q1", "a"), ("q1", "q2", "a+"),
                           ("q2", "q3", "a")])
PATTERN = workloads._pattern("a", ["p0", "p1", "p2"],
                             [("p0", "p1", "a"), ("p1", "p2", "a+")])
PATH_CERT = {"map": {"p0": "q0", "p1": "q1", "p2": "q3"},
             "witnesses": {"0": [0], "1": [1, 2]}}


def _path(cert, exists=True, code=0):
    expect = {"pattern": PATTERN, "target": PATH, "exists": exists}
    doc = {"exists": code == 0}
    if cert is not None:
        doc["map"] = cert["map"]
    return checks.check_path(expect, code, doc, cert)


def test_path_accepts_a_valid_certificate():
    assert _path(PATH_CERT) == []


def test_path_rejects_an_a_arc_on_two_arcs():
    cert = {"map": {"p0": "q0", "p1": "q2", "p2": "q3"},
            "witnesses": {"0": [0, 1], "1": [2]}}
    assert _path(cert)


def test_path_rejects_an_a_arc_on_an_a_plus_arc():
    cert = {"map": {"p0": "q1", "p1": "q2", "p2": "q3"},
            "witnesses": {"0": [1], "1": [2]}}
    assert _path(cert)


def test_path_rejects_a_backward_a_plus_walk():
    cert = dict(PATH_CERT, witnesses={"0": [0], "1": [2, 1]})
    assert _path(cert)


def test_path_rejects_wrong_verdicts():
    assert _path(None, exists=True, code=1)
    assert _path(PATH_CERT, exists=False, code=0)
    assert _path(None, exists=False, code=1) == []


def test_planted_maps_of_the_workload_pass_the_checker(tmp_path: Path):
    for op in workloads.build_unary_path(5, tmp_path):
        if not op.expect["exists"]:
            continue
        target, planted = op.expect["target"], op.expect["planted"]
        index = {v: i for i, v in enumerate(target["vertices"])}
        witnesses = {
            str(i): list(range(index[planted[a["from"]]], index[planted[a["to"]]]))
            for i, a in enumerate(op.expect["pattern"]["arcs"])}
        cert = {"map": planted, "witnesses": witnesses}
        doc = {"exists": True, "map": planted}
        assert checks.check_path(op.expect, 0, doc, cert) == [], op.name


# ---------------------------------------------------------------------------
# 3-colouring

K3 = workloads._lift(["k0", "k1", "k2"],
                     [("k0", "k1"), ("k1", "k2"), ("k0", "k2")])
EDGE = workloads._lift(["s", "t"], [("s", "t")])


def _arc_index(src, dst):
    return next(i for i, a in enumerate(K3["arcs"])
                if (a["from"], a["to"]) == (src, dst))


def test_k3_accepts_a_proper_colouring_and_rejects_an_improper_one():
    expect = {"pattern": EDGE, "target": K3, "exists": True}
    good = {"map": {"s": "k0", "t": "k2"},
            "witnesses": {"0": [_arc_index("k0", "k2")],
                          "1": [_arc_index("k2", "k0")]}}
    assert checks.check_k3(expect, 0, {"exists": True, "map": good["map"]},
                           good) == []
    bad = {"map": {"s": "k0", "t": "k0"},
           "witnesses": {"0": [_arc_index("k0", "k1"), _arc_index("k1", "k0")],
                         "1": [_arc_index("k0", "k1"), _arc_index("k1", "k0")]}}
    assert checks.check_k3(expect, 0, {"exists": True, "map": bad["map"]}, bad)


def test_k3_rejects_wrong_verdicts():
    assert checks.check_k3({"exists": True}, 1, {"exists": False}, None)
    assert checks.check_k3({"exists": False}, 0, {"exists": True}, None)


# ---------------------------------------------------------------------------
# Inclusion and core gadgets

INCL = {"e1": "(a|b)*b(a|b)(a|b)", "e2": "(a|b)*a(a|b)(a|b)",
        "alphabet": "ab", "holds": False}


def test_include_accepts_a_shortest_counterexample():
    assert checks.check_include(INCL, 1, {"holds": False,
                                          "counterexample": "baa"}, None) == []


@pytest.mark.parametrize("expect, word", [
    (INCL, "aaa"),    # not in L(e1)
    (INCL, "abaa"),   # a counterexample, but not a shortest one
    (INCL, None),     # no word at all
    ({"e1": "(a|b)+", "e2": "(a|b)*a", "alphabet": "ab", "holds": False},
     "ba"),           # in L(e2)
])
def test_include_rejects_bad_counterexamples(expect, word):
    assert checks.check_include(expect, 1, {"holds": False,
                                            "counterexample": word}, None)


def test_include_rejects_wrong_verdicts():
    assert checks.check_include(INCL, 0, {"holds": True}, None)
    assert checks.check_include(dict(INCL, holds=True), 1,
                                {"holds": False, "counterexample": "baa"}, None)


def test_core_checks_the_encoded_inclusion():
    retraction = {"core": False, "removed_arc": 1,
                  "retraction": {"map": {"x": "x", "y": "y", "z": "y"},
                                 "witnesses": {"0": [0], "1": [0]}}}
    included = {"included": True}
    assert checks.check_core(included, 1, retraction, None) == []
    assert checks.check_core(included, 0, {"core": True}, None)
    assert checks.check_core({"included": False}, 1, retraction, None)
    assert checks.check_core({"included": False}, 0, {"core": True}, None) == []
    wrong = dict(retraction, removed_arc=0)
    assert checks.check_core(included, 1, wrong, None)


def test_generators_are_pure_functions_of_the_seed(tmp_path: Path):
    for name, build in workloads.WORKLOADS.items():
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)
        first = build(11, tmp_path / "a")
        second = build(11, tmp_path / "b")
        assert [op.expect for op in first] == [op.expect for op in second], name
        assert [op.expect for op in first] != [
            op.expect for op in build(12, tmp_path / "b")], name
