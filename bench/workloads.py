"""Seeded instance generators for the four benchmark workloads.

Each generator is a pure function of its seed: it writes the pattern and
target JSON files an operation reads into ``out_dir`` and returns the
fixed list of operations of one round.  An operation is one ``rgphom``
subcommand, given as the argv that ``rgphom.cli.main`` receives, plus
what the independent checkers in ``checks.py`` need to judge its answer.
Nothing here imports ``rgphom``: the program sees only the files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class Op:
    """One operation of a round.

    ``check`` names the checker in ``checks.py``; ``expect`` carries the
    instance data and, where it is known by construction, the answer.
    ``failing`` marks operations on fixed inputs that the program is
    known to crash on (see the README); they are still checked if they
    ever complete.
    """

    name: str
    argv: list[str]
    check: str
    expect: dict[str, Any] = field(default_factory=dict)
    certificate: str | None = None
    failing: bool = False


def _write(out_dir: Path, name: str, doc: dict) -> str:
    path = out_dir / name
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def _pattern(alphabet, vertices, arcs) -> dict:
    return {
        "alphabet": list(alphabet),
        "vertices": list(vertices),
        "arcs": [{"from": s, "to": t, "label": lab} for s, t, lab in arcs],
    }


# ---------------------------------------------------------------------------
# gdb_query: small CRPQ shapes against random a/b graph databases

# Label menu: rgphom syntax -> Python ``re`` syntax.  The DFAs for the
# reference evaluator are written out by hand in checks.GDB_DFAS.
GDB_LABELS = {
    "a": "a",
    "b": "b",
    "b.a": "ba",
    "(a.b)+": "(ab)+",
    "a.b*": "ab*",
    "(a|b)+": "(a|b)+",
    "a.(a|b)*": "a(a|b)*",
    "(a|b)*.b": "(a|b)*b",
}
# Each database gets one pool of two labels with sparse walk relations
# ("tight") and two with dense ones.  Queries on one database draw from
# its pool only, so later queries reuse earlier walk relations; the pools
# are fixed so that every round computes the same mix of relations and
# the seed moves only the databases and the tight-label slots.  On the
# databases below every dense label relates every pair of vertices, so
# their relations, and the memory they hold, are the same size for
# every seed.
GDB_POOLS = (
    (("a", "b.a"), ("a.b*", "(a|b)+")),
    (("b", "(a.b)+"), ("a.(a|b)*", "(a|b)*.b")),
)
# Small enough that the costliest query takes about 0.1 s and a run
# holds some 40 rounds: run.py times an operation by its best time
# over the rounds, which needs many samples of short operations.
GDB_VERTICES = 80
# Query shapes over pattern vertices x0..x3.  One path and one star per
# database use every pool label; the cyclic queries use tight labels
# only, which makes them often unsatisfiable and gives the NO answers.
GDB_SHAPES = {
    "path": [("x0", "x1"), ("x1", "x2"), ("x2", "x3")],
    "star": [("x0", "x1"), ("x0", "x2"), ("x3", "x0")],
    "triangle": [("x0", "x1"), ("x1", "x2"), ("x2", "x0")],
    "cycle2": [("x0", "x1"), ("x1", "x0")],
}
GDB_CYCLIC_QUERIES = ("triangle", "cycle2", "triangle", "cycle2")
# Queries per database over its two dense labels alone, in shapes the
# seed picks.  Their relations are already cached and hold every pair,
# so each costs about what re-reading the database costs; as the larger
# share of the operations they put op_p50_ms there, clear of the costly
# tail of NO answers, whose number moves with the seed.
GDB_SHARED_QUERIES = 8


def _random_database(rng: random.Random, n: int) -> dict:
    """Every vertex gets one 'a' arc out, to a random other vertex, and
    one 'b' arc out, to its successor on a random cycle through all the
    vertices.  The 'b' cycle makes the database strongly connected, so
    the dense labels relate every pair of vertices whatever the
    seed, and the work and memory per database stay steady; the sparse
    labels still depend on where the 'a' arcs fall.  Arcs are listed by
    source vertex, so the file does not give the cycle's order away."""
    vertices = [f"v{i}" for i in range(n)]
    cycle = rng.sample(range(n), n)
    arcs = []
    for k, s in enumerate(cycle):
        t = rng.randrange(n - 1)
        arcs.append((vertices[s], vertices[t + (t >= s)], "a"))
        arcs.append((vertices[s], vertices[cycle[(k + 1) % n]], "b"))
    arcs.sort(key=lambda arc: (int(arc[0][1:]), arc[2]))
    return _pattern("ab", vertices, arcs)


def _gdb_queries(rng: random.Random, tight, loose) -> list[tuple[str, list]]:
    (t0, t1), (l0, l1) = tight, loose
    queries = [("path", [l0, t0, l1]), ("star", [l1, t1, l0])]
    for shape in GDB_CYCLIC_QUERIES:
        queries.append((shape, [rng.choice(tight) for _ in GDB_SHAPES[shape]]))
    shared = [(shape, list(labels)) for shape, arcs in GDB_SHAPES.items()
              for labels in itertools.product(loose, repeat=len(arcs))]
    return queries + rng.sample(shared, GDB_SHARED_QUERIES)


def build_gdb_query(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(f"gdb_query:{seed}")
    ops = []
    for d, (tight, loose) in enumerate(GDB_POOLS):
        db = _random_database(rng, GDB_VERTICES)
        db_path = _write(out_dir, f"db{d}.json", db)
        for k, (shape, labels) in enumerate(_gdb_queries(rng, tight, loose)):
            arcs = [(s, t, lab) for (s, t), lab in zip(GDB_SHAPES[shape], labels)]
            names = sorted({v for arc in GDB_SHAPES[shape] for v in arc})
            query = _pattern("ab", names, arcs)
            name = f"db{d}_q{k}_{shape}"
            q_path = _write(out_dir, f"{name}.json", query)
            cert = str(out_dir / f"{name}.cert.json")
            ops.append(Op(
                name=name,
                argv=["nhom", q_path, db_path, "--certificate", cert],
                check="gdb",
                expect={"pattern": query, "target": db},
                certificate=cert,
            ))
    return ops


# ---------------------------------------------------------------------------
# unary_path: planted {a, a+} patterns into directed-path targets

# Many small instances rather than a few large ones: the cost of one
# planted instance varies by about a quarter, and a round sums 40 of them.
PATH_VERTICES = 8          # both the pattern and the target path
PATH_A_ARCS = 3            # 'a' arcs in each pattern; the rest are 'a+'
PATH_MIXED_PLANTED = 40
PATH_MIXED_CYCLIC = 4
PATH_ALL_A_PLANTED = 3
PATH_ALL_A_CYCLIC = 1


def _path_target(rng: random.Random, n: int, mixed: bool) -> dict:
    """A directed path on n vertices; a mixed one has 'a' on half of its
    arcs, at seeded places, and 'a+' on the others."""
    labels = ["a"] * (n - 1)
    if mixed:
        for i in rng.sample(range(n - 1), (n - 1) - (n - 1) // 2):
            labels[i] = "a+"
    vertices = [f"q{i}" for i in range(n)]
    arcs = [(vertices[i], vertices[i + 1], labels[i]) for i in range(n - 1)]
    return _pattern("a", vertices, arcs)


def _planted_path_pattern(rng: random.Random, target: dict, n_p: int,
                          cyclic: bool) -> tuple[dict, dict[str, str]]:
    """A pattern with n_p vertices, 2 n_p arcs and a planted map into the
    path target.  Each 'a' arc joins two vertices placed on the ends of
    one 'a' arc of the target; each 'a+' arc joins a vertex to one placed
    strictly further along.  A cyclic pattern adds one backward 'a+' arc,
    which closes a directed cycle, so it has no map into any path."""
    tv = target["vertices"]
    a_steps = [i for i, arc in enumerate(target["arcs"]) if arc["label"] == "a"]
    names = [f"p{i}" for i in range(n_p)]
    pos = {v: rng.randrange(len(tv)) for v in names}
    arcs: list[tuple[str, str, str]] = []
    for k, step in enumerate(rng.sample(a_steps, PATH_A_ARCS)):
        x, y = names[2 * k], names[2 * k + 1]
        pos[x], pos[y] = step, step + 1
        arcs.append((x, y, "a"))
    forward = [(x, y) for x in names for y in names if pos[x] < pos[y]]
    for x, y in rng.sample(forward, min(len(forward), 2 * n_p - PATH_A_ARCS)):
        arcs.append((x, y, "a+"))
    rng.shuffle(arcs)
    if cyclic:
        x, y, _ = next(a for a in arcs if a[2] == "a+")
        arcs.append((y, x, "a+"))
    mapping = {v: tv[i] for v, i in pos.items()}
    return _pattern("a", names, arcs), mapping


def build_unary_path(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(f"unary_path:{seed}")
    plan = ([(True, False)] * PATH_MIXED_PLANTED
            + [(True, True)] * PATH_MIXED_CYCLIC
            + [(False, False)] * PATH_ALL_A_PLANTED
            + [(False, True)] * PATH_ALL_A_CYCLIC)
    ops = []
    for k, (mixed, cyclic) in enumerate(plan):
        target = _path_target(rng, PATH_VERTICES, mixed)
        pattern, planted = _planted_path_pattern(
            rng, target, PATH_VERTICES, cyclic)
        name = f"{'mixed' if mixed else 'alla'}{k}{'_cyclic' if cyclic else ''}"
        p_path = _write(out_dir, f"{name}_p.json", pattern)
        t_path = _write(out_dir, f"{name}_q.json", target)
        cert = str(out_dir / f"{name}.cert.json")
        ops.append(Op(
            name=name,
            argv=["nhom", p_path, t_path, "--certificate", cert],
            check="path",
            expect={"pattern": pattern, "target": target,
                    "exists": not cyclic, "planted": planted},
            certificate=cert,
        ))
    return ops


# ---------------------------------------------------------------------------
# coloring_k3: all-'a' undirected patterns into the 'a'-labelled K3

# Dense enough (average degree 7.2) that arc consistency all but forces
# the planted colouring: sparser graphs give backtracking heavy tails,
# and a round's cost then depends on the seed.
K3_VERTICES = 36
K3_EDGES = 130
K3_PLANTED = 30
K3_WHEELS = 6


def _lift(vertices, edges) -> dict:
    arcs = []
    for u, v in edges:
        arcs += [(u, v, "a"), (v, u, "a")]
    return _pattern("a", vertices, arcs)


def _three_colorable_edges(rng: random.Random, names: list[str],
                           n_edges: int) -> set[tuple[str, str]]:
    """n_edges random edges that a hidden random 3-colouring keeps proper."""
    color = {v: rng.randrange(3) for v in names}
    edges: set[tuple[str, str]] = set()
    while len(edges) < n_edges:
        u, v = rng.sample(names, 2)
        if color[u] != color[v]:
            edges.add((min(u, v), max(u, v)))
    return edges


def build_coloring_k3(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(f"coloring_k3:{seed}")
    k3 = _lift(["k0", "k1", "k2"], [("k0", "k1"), ("k1", "k2"), ("k0", "k2")])
    k3_path = _write(out_dir, "k3.json", k3)
    ops = []
    for k in range(K3_PLANTED + K3_WHEELS):
        wheel = k >= K3_PLANTED
        names = [f"g{i}" for i in range(K3_VERTICES)]
        edges = _three_colorable_edges(rng, names, K3_EDGES)
        if wheel:
            # An odd wheel (hub plus a 5-cycle) is not 3-colourable; tie
            # it to the rest of the graph by a few edges.
            hub, rim = "w0", [f"w{i}" for i in range(1, 6)]
            wedges = {(hub, r) for r in rim}
            wedges |= {(rim[i], rim[(i + 1) % 5]) for i in range(5)}
            for r in rng.sample(rim, 2):
                wedges.add((r, rng.choice(names)))
            names = [hub, *rim, *names]
            edges |= wedges
        ordered = sorted(edges, key=lambda e: (names.index(e[0]),
                                               names.index(e[1])))
        pattern = _lift(names, ordered)
        name = f"{'wheel' if wheel else 'planted'}{k}"
        p_path = _write(out_dir, f"{name}.json", pattern)
        cert = str(out_dir / f"{name}.cert.json")
        ops.append(Op(
            name=name,
            argv=["nhom", p_path, k3_path, "--certificate", cert],
            check="k3",
            expect={"pattern": pattern, "target": k3, "exists": not wheel},
            certificate=cert,
        ))
    return ops


# ---------------------------------------------------------------------------
# lang_regex: heavy labels on trivial graphs

def ends_with_a_at(n: int, sym: str = "a") -> str:
    """(a|b)*s(a|b)^n: the (n+1)-th symbol from the end is s.  Its
    minimal DFA has 2^(n+1) states."""
    return "(a|b)*" + sym + "(a|b)" * n


# The seed renames the symbols a, b and the gadget's fresh symbol c to
# one of these triples.  Each keeps the alphabetical order of a, b, c,
# so every seed asks the program for the same work under other names;
# swapping the roles of a and b instead would halve or double the cost
# of some inclusion checks from seed to seed.
LETTERS = ("abc", "def", "ghk", "mno", "pqr", "stu", "uvw", "xyz")


def _include_cases(length: int) -> list[tuple[str, str, str, str, bool]]:
    """(name, e1, e2, alphabet, fact) with fact = L(e1) <= L(e2), over a
    and b; ``length`` is that of the long counterexample."""
    cases = []
    for n in (8, 9, 10):
        cases.append((f"incl_yes{n}", "(a|b)*aa" + "(a|b)" * n,
                      ends_with_a_at(n + 1), "ab", True))
        cases.append((f"incl_short{n}", ends_with_a_at(n, "b"),
                      ends_with_a_at(n), "ab", False))
    for n in (8, 9):
        cases.append((f"incl_plus{n}", "(a|b)+", ends_with_a_at(n),
                      "ab", False))
    # A long counterexample: a^L is the only length missing from e2.
    e2 = ("|".join("a" * k for k in range(1, length))
          + "|" + "a" * (length + 1) + "a*")
    cases.append(("incl_long", "a+", e2, "a", False))
    return cases


def _core_cases() -> list[tuple[str, str, str, bool]]:
    cases = []
    for n in (3, 4, 5):
        cases.append((f"core_yes{n}", ends_with_a_at(n),
                      ends_with_a_at(n) + "|b*", True))
        cases.append((f"core_no{n}", ends_with_a_at(n, "b"),
                      ends_with_a_at(n), False))
    return cases


def ncore_gadget(e1: str, e2: str, letters: str = "abc") -> dict:
    """The 3-vertex pattern of rgphom.testkit.gadget_ncore, written out:
    arcs x->y labelled e1 and x->z labelled c|(e2) with the fresh symbol
    c (the last of ``letters``).  It is not a core exactly when
    L(e1) <= L(e2)."""
    return _pattern(letters, ["x", "y", "z"],
                    [("x", "y", e1), ("x", "z", f"{letters[2]}|({e2})")])


# Fixed inputs, independent of the seed, on which the program raises
# RecursionError (see the FOUND lines in CHANGES.md).
DEEP_NESTED = "(" * 3000 + "a" + ")" * 3000
LONG_WORD = "a" * 5000


def build_lang_regex(seed: int, out_dir: Path) -> list[Op]:
    rng = random.Random(f"lang_regex:{seed}")
    letters = rng.choice(LETTERS)
    rename = str.maketrans("abc", letters)
    ops = []
    for name, e1, e2, alphabet, fact in _include_cases(rng.randrange(18, 24)):
        e1, e2, alphabet = (x.translate(rename) for x in (e1, e2, alphabet))
        ops.append(Op(name=name,
                      argv=["include", e1, e2, "--alphabet", alphabet],
                      check="include",
                      expect={"e1": e1, "e2": e2, "alphabet": alphabet,
                              "holds": fact}))
    for name, e1, e2, fact in _core_cases():
        e1, e2 = e1.translate(rename), e2.translate(rename)
        pattern = ncore_gadget(e1, e2, letters)
        p_path = _write(out_dir, f"{name}.json", pattern)
        ops.append(Op(name=name, argv=["core", p_path], check="core",
                      expect={"pattern": pattern, "e1": e1, "e2": e2,
                              "included": fact}))
    ops.append(Op(name="deep_nested_include",
                  argv=["include", DEEP_NESTED, "a|b", "--alphabet", "ab"],
                  check="include",
                  expect={"e1": DEEP_NESTED, "e2": "a|b", "alphabet": "ab",
                          "holds": True},
                  failing=True))
    ops.append(Op(name="long_word_include",
                  argv=["include", LONG_WORD, "(a|b)*", "--alphabet", "ab"],
                  check="include",
                  expect={"e1": LONG_WORD, "e2": "(a|b)*", "alphabet": "ab",
                          "holds": True},
                  failing=True))
    deep = ncore_gadget(DEEP_NESTED, "a|b")
    ops.append(Op(name="deep_nested_core",
                  argv=["core", _write(out_dir, "deep_core.json", deep)],
                  check="core",
                  expect={"pattern": deep, "e1": DEEP_NESTED, "e2": "a|b",
                          "included": True},
                  failing=True))
    return ops


WORKLOADS = {
    "gdb_query": build_gdb_query,
    "unary_path": build_unary_path,
    "coloring_k3": build_coloring_k3,
    "lang_regex": build_lang_regex,
}
