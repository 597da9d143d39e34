from __future__ import annotations

import json
import random
from types import MappingProxyType

import pytest

from rgphom.errors import PreconditionError, RgpSchemaError
from rgphom.regexes import Sym, parse_regex, plus
from rgphom.rgp import (
    Arc, LabelKind, Rgp, _is_acyclic, _leveling, delete_arc, delete_vertex,
    directed_path_order, export_dot, is_connected, is_graph_database,
    is_undirected, is_walk, label_class, make_rgp, parse_rgp, serialize_rgp,
    signed_walk_sum, walk_endpoints,
)
from rgphom.testkit import random_rgp

from helpers import shuffle_names, union_find_components


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


def _doc(vertices=("u", "v"), arcs=(), alphabet=("a", "b")) -> dict:
    return {"alphabet": list(alphabet), "vertices": list(vertices),
            "arcs": [dict(arc) if isinstance(arc, dict) else arc
                     for arc in arcs]}


_GOOD_ARC = {"from": "u", "to": "v", "label": "a"}


def _arc(**fields) -> dict:
    return {**_GOOD_ARC, **fields}


def _without(key) -> dict:
    return {k: v for k, v in _GOOD_ARC.items() if k != key}


# Each malformed document with the exact message it raises. The first
# seven cases keep the ids this test has always given them.
_LOADER_ERRORS = [
    ("doc0", {"alphabet": ["a"], "vertices": ["v"], "arcs": ["nope"]},
     "arc 0 must be an object"),
    ("doc1", {"alphabet": ["a"], "vertices": ["v"],
              "arcs": [{"from": "v", "to": "w", "label": "a"}]},
     "arc 0 references an undeclared vertex"),
    ("doc2", {"alphabet": ["a"], "vertices": ["v", "v"], "arcs": []},
     "duplicate vertex ids"),
    ("doc3", {"alphabet": ["a"], "vertices": ["v"],
              "arcs": [{"from": "v", "to": "v", "label": "b"}]},
     "arc 0 label: symbol 'b' not in alphabet at position 0 in 'b'"),
    ("doc4", {"alphabet": ["a"], "vertices": ["v"],
              "arcs": [{"from": "v", "to": "v", "label": "(a"}]},
     "arc 0 label: unbalanced parenthesis at position 2 in '(a'"),
    ("doc5", {"alphabet": ["a"], "vertices": ["v"]},
     "missing required key 'arcs'"),
    ("doc6", {"alphabet": ["ab"], "vertices": ["v"], "arcs": []},
     "alphabet must be a list of single characters"),
    ("invalid json", "{", "invalid JSON: Expecting property name enclosed "
     "in double quotes: line 1 column 2 (char 1)"),
    ("json array", "[1, 2]", "document must be a JSON object"),
    ("list", [_doc()], "document must be a JSON object"),
    ("string in json", '"abc"', "document must be a JSON object"),
    ("no alphabet", {"vertices": [], "arcs": []},
     "missing required key 'alphabet'"),
    ("no vertices", {"alphabet": ["a"], "arcs": []},
     "missing required key 'vertices'"),
    ("no keys", {}, "missing required key 'alphabet'"),
    ("alphabet string", {**_doc(), "alphabet": "a"},
     "alphabet must be a list of single characters"),
    ("alphabet number", _doc(alphabet=[1]),
     "alphabet must be a list of single characters"),
    ("vertices string", {**_doc(), "vertices": "uv"},
     "vertices must be a list of strings"),
    ("vertex number", _doc(vertices=["u", 1]),
     "vertices must be a list of strings"),
    ("empty vertex", _doc(vertices=["u", ""]),
     "vertex ids must be nonempty strings"),
    ("arcs object", {**_doc(), "arcs": {}}, "arcs must be a list"),
    ("arc string", _doc(arcs=[_GOOD_ARC, "nope"]), "arc 1 must be an object"),
    ("arc list", _doc(arcs=[["u", "v", "a"]]), "arc 0 must be an object"),
    *[(f"no {key}", _doc(arcs=[_GOOD_ARC, _without(key)]),
       f"arc 1 needs string field {key!r}") for key in ("from", "to", "label")],
    *[(f"{key} number", _doc(arcs=[_GOOD_ARC, _arc(**{key: 3})]),
       f"arc 1 needs string field {key!r}") for key in ("from", "to", "label")],
    ("from null", _doc(arcs=[_arc(**{"from": None})]),
     "arc 0 needs string field 'from'"),
    ("unbalanced label", _doc(arcs=[_GOOD_ARC, _arc(label="(a"),
                                    _arc(label="(a")]),
     "arc 1 label: unbalanced parenthesis at position 2 in '(a'"),
    ("dangling union", _doc(arcs=[_arc(label="a|")]),
     "arc 0 label: expected a symbol or group at position 2 in 'a|'"),
    ("empty label", _doc(arcs=[_arc(label="a+"), _arc(label="")]),
     "arc 1 label: empty expression at position 0 in ''"),
    ("shared bad label", _doc(arcs=[_arc(label="a*"), _arc(label="**"),
                                    _GOOD_ARC, _arc(label="**")]),
     "arc 1 label: operator '*' has no operand at position 0 in '**'"),
    ("undeclared target", _doc(arcs=[_GOOD_ARC, _arc(to="w")]),
     "arc 1 references an undeclared vertex"),
    ("undeclared source", _doc(arcs=[_arc(**{"from": "w"}), _arc(to="w")]),
     "arc 0 references an undeclared vertex"),
    ("symbol outside alphabet", _doc(alphabet=["a"],
                                     arcs=[_GOOD_ARC, _arc(label="a|b")]),
     "arc 1 label: symbol 'b' not in alphabet at position 2 in 'a|b'"),
    ("bad label after undeclared vertex",
     _doc(arcs=[_arc(to="w"), _arc(label="(a")]),
     "arc 1 label: unbalanced parenthesis at position 2 in '(a'"),
    ("undeclared vertex after bad label",
     _doc(arcs=[_arc(label="c"), _arc(to="w")]),
     "arc 0 label: symbol 'c' not in alphabet at position 0 in 'c'"),
    ("bad label and duplicate vertex",
     _doc(vertices=["u", "v", "v"], arcs=[_arc(label="c")]),
     "arc 0 label: symbol 'c' not in alphabet at position 0 in 'c'"),
    ("bad arc and empty vertex", _doc(vertices=[""], arcs=[_without("to")]),
     "arc 0 needs string field 'to'"),
    ("empty vertex and undeclared vertex",
     _doc(vertices=["u", "v", ""], arcs=[_arc(to="w")]),
     "vertex ids must be nonempty strings"),
    ("duplicate vertex and undeclared vertex",
     _doc(vertices=["u", "v", "v"], arcs=[_arc(to="w")]),
     "duplicate vertex ids"),
    ("mapping document", MappingProxyType(_doc(arcs=[
        MappingProxyType(_GOOD_ARC), MappingProxyType(_arc(to="w"))])),
     "arc 1 references an undeclared vertex"),
    ("mapping arc without label", MappingProxyType(_doc(arcs=[
        MappingProxyType(_without("label"))])),
     "arc 0 needs string field 'label'"),
]


@pytest.mark.parametrize("doc, message", [case[1:] for case in _LOADER_ERRORS],
                         ids=[case[0] for case in _LOADER_ERRORS])
def test_parse_schema_errors(doc, message):
    with pytest.raises(RgpSchemaError) as info:
        parse_rgp(doc)
    assert str(info.value) == message


def test_mapping_document_loads_like_its_dict():
    doc = _doc(arcs=[_GOOD_ARC, _arc(label="(a|b)+", to="u")])
    proxy = MappingProxyType({**doc, "arcs": [MappingProxyType(a)
                                             for a in doc["arcs"]]})
    assert parse_rgp(proxy) == parse_rgp(doc) == parse_rgp(json.dumps(doc))


def test_arc_is_a_named_tuple():
    label = parse_regex("a+", "a")
    arc = Arc("u", "v", label)
    src, dst, got = arc
    assert (src, dst, got) == ("u", "v", label)
    assert (arc.src, arc.dst, arc.label) == (src, dst, got)
    assert arc == ("u", "v", label)
    assert hash(arc) == hash(("u", "v", label))
    assert Arc(src="u", dst="v", label=label) == arc


def test_two_loads_of_one_database_are_equal_and_share_symbols():
    text = json.dumps(_doc(vertices=["u", "v", "w"], arcs=[
        _GOOD_ARC, _arc(label="b", to="w"), _arc(**{"from": "w"}),
        _arc(label="b", **{"from": "v", "to": "v"})]))
    first, second = parse_rgp(text), parse_rgp(text)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert all(a.label is b.label for a, b in zip(first.arcs, second.arcs))
    assert [a.label for a in first.arcs] == [Sym("a"), Sym("b"), Sym("a"),
                                             Sym("b")]
    assert first.arcs[0].label is Sym("a")
    # A loaded pattern equals the same pattern built and checked by hand.
    by_hand = make_rgp("ab", ["u", "v", "w"], [tuple(a) for a in first.arcs])
    assert by_hand == first
    assert hash(by_hand) == hash(first)


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
    assert directed_path_order(p) == ("u", "v")
    assert _is_acyclic(p)
    assert not is_undirected(p)
    assert is_connected(p)
    assert _leveling(p) == ({"u": 1, "v": 2}, None)


def test_structural_predicates_three_cycle():
    p = make_rgp("a", ["x", "y", "z"],
                 [("x", "y", "a"), ("y", "z", "a"), ("z", "x", "a")])
    assert not _is_acyclic(p)
    assert directed_path_order(p) is None
    levels, witness = _leveling(p)
    assert levels is None
    assert witness is not None
    assert signed_walk_sum(p, witness) != 0


def test_structural_predicates_unbalanced_diamond():
    # Two directed routes of different length between the same endpoints.
    p = make_rgp("a", ["s", "m", "t"],
                 [("s", "m", "a"), ("m", "t", "a"), ("s", "t", "a")])
    assert _is_acyclic(p)
    levels, witness = _leveling(p)
    assert levels is None
    assert signed_walk_sum(p, witness) != 0


def test_structural_predicates_undirected_pair():
    p = make_rgp("a", ["u", "v"], [("u", "v", "a"), ("v", "u", "a")])
    assert is_undirected(p)
    assert not _is_acyclic(p)
    assert _leveling(p)[0] is None


def test_levels_are_per_component_and_one_based():
    p = make_rgp("a", ["u", "v", "w", "x"],
                 [("u", "v", "a"), ("w", "x", "a")])
    assert _leveling(p)[0] == {"u": 1, "v": 2, "w": 1, "x": 2}
    assert not is_connected(p)


def test_is_connected_matches_union_find():
    assert is_connected(make_rgp("a", [], []))
    rng = random.Random(13)
    answers = set()
    for seed in range(300):
        n = rng.randint(1, 9)
        p = shuffle_names(random_rgp(seed, n, rng.randint(0, 2 * n),
                                     max_label_size=2), rng)
        components = union_find_components(
            p.vertices, [(a.src, a.dst) for a in p.arcs])
        assert is_connected(p) == (len(components) == 1), p
        answers.add(len(components) == 1)
    assert answers == {False, True}


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
