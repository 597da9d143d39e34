from __future__ import annotations

import pytest

from rgphom.errors import PreconditionError, RgpSchemaError
from rgphom.regexes import Concat, Star, Sym, parse_regex, plus
from rgphom.rgp import (
    Arc, LabelKind, Rgp, delete_arc, delete_vertex, directed_path_order, export_dot,
    is_graph_database, is_walk, label_class, make_rgp, parse_rgp,
    serialize_rgp, signed_walk_sum, structural_predicates, walk_endpoints,
    walk_label,
)

from helpers import words_of


def test_parse_minimal_document():
    p = parse_rgp({"alphabet": ["a"], "vertices": ["v"], "arcs": []})
    assert p.vertices == ("v",)
    assert p.arcs == ()


def test_parse_and_serialize_round_trip():
    doc = {
        "alphabet": ["a", "b"],
        "vertices": ["x", "y", "z"],
        "arcs": [
            {"from": "y", "to": "x", "label": "b"},
            {"from": "z", "to": "x", "label": "a+"},
        ],
    }
    p = parse_rgp(doc)
    assert parse_rgp(serialize_rgp(p)) == p
    assert p.arcs[1].label == plus(Sym("a"))


@pytest.mark.parametrize("doc", [
    {"alphabet": ["a"], "vertices": ["v"], "arcs": ["nope"]},
    {"alphabet": ["a"], "vertices": ["v"],
     "arcs": [{"from": "v", "to": "w", "label": "a"}]},
    {"alphabet": ["a"], "vertices": ["v", "v"], "arcs": []},
    {"alphabet": ["a"], "vertices": ["v"],
     "arcs": [{"from": "v", "to": "v", "label": "b"}]},
    {"alphabet": ["a"], "vertices": ["v"],
     "arcs": [{"from": "v", "to": "v", "label": "(a"}]},
    {"alphabet": ["a"], "vertices": ["v"]},
    {"alphabet": ["ab"], "vertices": ["v"], "arcs": []},
])
def test_parse_schema_errors(doc):
    with pytest.raises(RgpSchemaError):
        parse_rgp(doc)


def test_repeated_labels_parse_as_arc_by_arc():
    labels = ["a", "(a|b)*", "a", "b+", "(a|b)*", "a"]
    doc = {"alphabet": ["a", "b"], "vertices": ["u", "v"],
           "arcs": [{"from": "u", "to": "v", "label": t} for t in labels]}
    p = parse_rgp(doc)
    assert [arc.label for arc in p.arcs] == [
        parse_regex(t, "ab") for t in labels]
    assert p == make_rgp("ab", ["u", "v"], [("u", "v", t) for t in labels])
    # A bad label is reported at the first arc that carries it.
    doc["arcs"][3]["label"] = doc["arcs"][5]["label"] = "(a"
    with pytest.raises(RgpSchemaError, match="arc 3 label"):
        parse_rgp(doc)
    # So is a label outside the alphabet, shared by several arcs.
    shared = parse_regex("b+", "ab")
    arcs = [Arc("u", "v", parse_regex("a", "ab"))] + [
        Arc("u", "v", shared)] * 2
    with pytest.raises(RgpSchemaError, match="arc 1 label uses"):
        Rgp(alphabet=("a",), vertices=("u", "v"), arcs=tuple(arcs))


def test_is_graph_database():
    assert is_graph_database(make_rgp("ab", ["u", "v"], [("u", "v", "a"), ("v", "u", "b")]))
    assert not is_graph_database(make_rgp("a", ["u", "v"], [("u", "v", "a+")]))


def test_label_class_cases():
    all_a = make_rgp("a", ["u", "v"], [("u", "v", "a"), ("v", "u", "a")])
    assert label_class(all_a).kind is LabelKind.ALL_SINGLE_A
    assert label_class(all_a).symbol == "a"

    mixed = make_rgp("a", ["u", "v"], [("u", "v", "a+"), ("v", "u", "a")])
    assert label_class(mixed).kind is LabelKind.UNARY_A_APLUS

    general = make_rgp("ab", ["u", "v"], [("u", "v", "a|b")])
    assert label_class(general).kind is LabelKind.GENERAL

    two_symbols = make_rgp("ab", ["u", "v"], [("u", "v", "a"), ("v", "u", "b")])
    assert label_class(two_symbols).kind is LabelKind.GENERAL

    empty = make_rgp("a", ["u"], [])
    assert label_class(empty).kind is LabelKind.ALL_SINGLE_A
    assert label_class(empty).symbol is None


def test_structural_predicates_single_arc():
    p = make_rgp("a", ["u", "v"], [("u", "v", "a")])
    report = structural_predicates(p)
    assert report.is_directed_path
    assert report.is_acyclic
    assert not report.is_undirected
    assert report.is_connected
    assert report.levels == {"u": 1, "v": 2}


def test_structural_predicates_three_cycle():
    p = make_rgp("a", ["x", "y", "z"],
                 [("x", "y", "a"), ("y", "z", "a"), ("z", "x", "a")])
    report = structural_predicates(p)
    assert not report.is_acyclic
    assert not report.is_directed_path
    assert report.levels is None
    assert report.unbalance_witness is not None
    assert signed_walk_sum(p, report.unbalance_witness) != 0


def test_structural_predicates_unbalanced_diamond():
    # Two directed routes of different length between the same endpoints.
    p = make_rgp("a", ["s", "m", "t"],
                 [("s", "m", "a"), ("m", "t", "a"), ("s", "t", "a")])
    report = structural_predicates(p)
    assert report.is_acyclic
    assert report.levels is None
    assert signed_walk_sum(p, report.unbalance_witness) != 0


def test_structural_predicates_undirected_pair():
    p = make_rgp("a", ["u", "v"], [("u", "v", "a"), ("v", "u", "a")])
    report = structural_predicates(p)
    assert report.is_undirected
    assert not report.is_acyclic
    assert report.levels is None


def test_levels_are_per_component_and_one_based():
    p = make_rgp("a", ["u", "v", "w", "x"],
                 [("u", "v", "a"), ("w", "x", "a")])
    report = structural_predicates(p)
    assert report.levels == {"u": 1, "v": 2, "w": 1, "x": 2}
    assert not report.is_connected


def test_directed_path_order():
    p = make_rgp("a", ["c", "a", "b"], [("a", "b", "a"), ("c", "a", "a")])
    assert directed_path_order(p) == ("c", "a", "b")
    single = make_rgp("a", ["v"], [])
    assert directed_path_order(single) == ("v",)
    loop = make_rgp("a", ["v", "w"], [("v", "v", "a")])
    assert directed_path_order(loop) is None


def test_walk_validation_and_endpoints():
    p = make_rgp("ab", ["x", "y", "z"],
                 [("x", "y", "a"), ("y", "z", "b"), ("x", "z", "a")])
    assert is_walk(p, [0, 1])
    assert not is_walk(p, [])
    assert not is_walk(p, [1, 0])
    assert walk_endpoints(p, [0, 1]) == ("x", "z")
    with pytest.raises(PreconditionError):
        walk_endpoints(p, [0, 0])


def test_walk_label_single_arc_is_bare():
    p = make_rgp("a", ["x", "y"], [("x", "y", "a")])
    assert walk_label(p, [0]) == Sym("a")


def test_walk_label_concatenates_left_to_right():
    p = make_rgp("ab", ["x", "y", "z"],
                 [("x", "y", "b"), ("y", "z", "a")])
    assert walk_label(p, [0, 1]) == Concat(Sym("b"), Sym("a"))
    assert words_of(walk_label(p, [0, 1]), 4) == {"ba"}


def test_walk_label_language_of_a_then_plus():
    p = make_rgp("a", ["x", "y", "z"],
                 [("x", "y", "a"), ("y", "z", "a+")])
    assert words_of(walk_label(p, [0, 1]), 4) == {"aa", "aaa", "aaaa"}


def test_export_dot():
    p = make_rgp("a", ["u", "v"],
                 [("u", "v", "a+"), ("u", "v", "a+")])
    dot = export_dot(p)
    assert dot.count('"u" -> "v" [label="a+"];') == 2
    assert '"u";' in dot and '"v";' in dot
    single = export_dot(make_rgp("a", ["only"], []))
    assert '"only";' in single


def test_delete_arc_and_vertex():
    p = make_rgp("a", ["u", "v"], [("u", "v", "a"), ("v", "u", "a")])
    assert len(delete_arc(p, 0).arcs) == 1
    assert delete_arc(p, 0).arcs[0].src == "v"
    dropped = delete_vertex(p, "v")
    assert dropped.vertices == ("u",)
    assert dropped.arcs == ()
