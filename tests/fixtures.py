"""Hand-checked instances shared across the suites.

Each builder returns fresh objects so tests can't contaminate each
other through shared state.
"""

from __future__ import annotations

from rgphom.rgp import Rgp, make_rgp

AP = "a+"


def two_label_pair() -> tuple[Rgp, Rgp]:
    """A 3-vertex pattern and a 1-arc target with no hom either way.

    The pattern wants both a 'b' walk and a nonempty all-'a' walk into
    the same vertex; the target only offers a single 'a' arc.  The
    reverse direction fails because the target's 'a' arc has no
    qualifying walk in the pattern ('b' and 'a+' labels both leak).
    """
    p = make_rgp("ab", ["y", "z", "x"], [("y", "x", "b"), ("z", "x", AP)])
    q = make_rgp("ab", ["v", "u"], [("v", "u", "a")])
    return p, q


def alternating_path() -> Rgp:
    """Five vertices in a directed line labeled a+, a, a+, a."""
    return make_rgp(
        "a",
        ["e", "d", "c", "b", "a"],
        [("e", "d", AP), ("d", "c", "a"), ("c", "b", AP), ("b", "a", "a")],
    )


def _sym_edges(pairs, label):
    out = []
    for u, v in pairs:
        out.append((u, v, label))
        if u != v:
            out.append((v, u, label))
    return out


def mycielski_fixture() -> Rgp:
    """The 15-vertex undirected core: Mycielski graph + a+ tail + triangle.

    Outer 5-cycle x0..x4, spokes y0..y4 (y_i adjacent to x_{i-1} and
    x_{i+1}), hub adjacent to every y_i; an a+ path x0 - p0 - t0 hangs
    off to a separate 'a' triangle t0 t1 t2.
    """
    outer = [(f"x{i}", f"x{(i + 1) % 5}") for i in range(5)]
    spokes = []
    for i in range(5):
        spokes.append((f"y{i}", f"x{(i - 1) % 5}"))
        spokes.append((f"y{i}", f"x{(i + 1) % 5}"))
    hub = [("hub", f"y{i}") for i in range(5)]
    triangle = [("t0", "t1"), ("t1", "t2"), ("t2", "t0")]
    arcs = _sym_edges(outer + spokes + hub + triangle, "a")
    arcs += _sym_edges([("x0", "p0"), ("p0", "t0")], AP)
    vertices = ([f"x{i}" for i in range(5)] + [f"y{i}" for i in range(5)]
                + ["hub", "p0", "t0", "t1", "t2"])
    return make_rgp("a", vertices, arcs)


def three_component_pattern() -> Rgp:
    """Three 'a'-path components tied together by seven a+ arcs.

    The x-chain and y-part both have four levels, the z-part two; the
    a+ arcs force an order that turns out to be unsatisfiable on any
    all-'a' directed path.
    """
    a_arcs = [
        ("x3", "x2"), ("x2", "x1"), ("x1", "x0"),
        ("y2", "y1"), ("y1", "y0"), ("y3", "y2"), ("y6", "y2"),
        ("y6", "y5"), ("y7", "y5"), ("y5", "y4"), ("y4", "y0"),
        ("z1", "z0"),
    ]
    plus_arcs = [
        ("y7", "x2"), ("y2", "x0"), ("x3", "y3"), ("x3", "y6"),
        ("y5", "y1"), ("y7", "z1"), ("y4", "z0"),
    ]
    vertices = ([f"x{i}" for i in range(4)] + [f"y{i}" for i in range(8)]
                + ["z0", "z1"])
    arcs = [(u, v, "a") for u, v in a_arcs]
    arcs += [(u, v, AP) for u, v in plus_arcs]
    return make_rgp("a", vertices, arcs)


def core_tree() -> Rgp:
    """A 9-vertex directed tree over {a, a+} that is already a core."""
    return make_rgp(
        "a",
        ["x", "y", "z", "u", "v", "w", "s", "t", "p"],
        [
            ("x", "y", AP), ("x", "z", "a"),
            ("y", "u", "a"), ("u", "s", "a"),
            ("z", "v", "a"), ("z", "w", AP),
            ("v", "t", AP), ("w", "p", "a"),
        ],
    )


def plus_cycle(n: int, prefix: str = "c") -> Rgp:
    """A directed cycle of n a+ arcs."""
    verts = [f"{prefix}{i}" for i in range(n)]
    arcs = [(verts[i], verts[(i + 1) % n], AP) for i in range(n)]
    return make_rgp("a", verts, arcs)


def glued_cycles() -> Rgp:
    """A 2-cycle and a 3-cycle of a+ arcs sharing the vertex g."""
    return make_rgp(
        "a",
        ["g", "u1", "w1", "w2"],
        [
            ("g", "u1", AP), ("u1", "g", AP),
            ("g", "w1", AP), ("w1", "w2", AP), ("w2", "g", AP),
        ],
    )


def a_path(n: int, prefix: str = "q") -> Rgp:
    """A directed path template of n vertices, every arc labeled 'a'."""
    verts = [f"{prefix}{i}" for i in range(n)]
    arcs = [(verts[i], verts[i + 1], "a") for i in range(n - 1)]
    return make_rgp("a", verts, arcs)


def chord_chain(n: int) -> Rgp:
    """An n-arc 'a' path p0 .. pn, then one a+ arc from p0 to pn.

    Into an 'a' path, the a+ arc (index n) needs a witness walk of n
    arcs.
    """
    verts = [f"p{i}" for i in range(n + 1)]
    arcs = [(verts[i], verts[i + 1], "a") for i in range(n)]
    return make_rgp("a", verts, arcs + [(verts[0], verts[n], AP)])


def mixed_path(labels: str, prefix: str = "q") -> Rgp:
    """A directed path template from a label string of '.'s and '+'s.

    Each character adds one arc: '.' for a, '+' for a+.
    """
    verts = [f"{prefix}{i}" for i in range(len(labels) + 1)]
    arcs = []
    for i, ch in enumerate(labels):
        arcs.append((verts[i], verts[i + 1], AP if ch == "+" else "a"))
    return make_rgp("a", verts, arcs)


def planted_mixed_path(rng, n: int) -> tuple[Rgp, Rgp]:
    """A mixed {a, a+} path template on n vertices and an n-vertex
    pattern with up to 2n arcs that maps into it by construction.

    Each pattern vertex gets a seeded place on the path; 'a' arcs join
    vertices placed on the two ends of an 'a' arc of the path, and a+
    arcs join a vertex to one placed strictly further along.
    """
    labels = "".join(rng.choice(".+") for _ in range(n - 1))
    q = mixed_path(labels)
    names = [f"p{i}" for i in range(n)]
    pos = {v: rng.randrange(n) for v in names}
    forward = [(x, y) for x in names for y in names if pos[x] < pos[y]]
    arcs = []
    for x, y in rng.sample(forward, min(len(forward), 2 * n)):
        on_a_arc = pos[y] == pos[x] + 1 and labels[pos[x]] == "."
        arcs.append((x, y, "a" if on_a_arc and rng.random() < 0.5 else AP))
    return make_rgp("a", names, arcs), q


def undirected_template(edges, loops=(), plus_edges=(), plus_loops=()) -> Rgp:
    """Small undirected {a, a+} template from edge lists."""
    seen: list[str] = []

    def note(v):
        if v not in seen:
            seen.append(v)

    arcs = []
    for u, v in edges:
        note(u), note(v)
        arcs += [(u, v, "a"), (v, u, "a")]
    for u, v in plus_edges:
        note(u), note(v)
        arcs += [(u, v, AP), (v, u, AP)]
    for v in loops:
        note(v)
        arcs.append((v, v, "a"))
    for v in plus_loops:
        note(v)
        arcs.append((v, v, AP))
    return make_rgp("a", seen, arcs)


def poly_core_templates() -> list[Rgp]:
    """One core template of each polynomial undirected class: a bare
    vertex, an 'a' loop, an a+ loop, an 'a' edge and an a+ edge."""
    return [
        make_rgp("a", ["v"], []),
        undirected_template([], loops=["v"]),
        undirected_template([], plus_loops=["v"]),
        undirected_template([("u", "v")]),
        undirected_template([], plus_edges=[("u", "v")]),
    ]


__all__ = [
    "AP",
    "a_path",
    "alternating_path",
    "core_tree",
    "glued_cycles",
    "mixed_path",
    "mycielski_fixture",
    "plus_cycle",
    "poly_core_templates",
    "three_component_pattern",
    "two_label_pair",
    "undirected_template",
]
