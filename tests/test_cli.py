"""End-to-end checks of the command line, driving main() in process."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rgphom
from rgphom.cli import ENV_BUDGET, main
from rgphom.nhom import NHomomorphism, verify_n_hom
from rgphom.regexes import parse_regex
from rgphom.rgp import Rgp, make_rgp, parse_rgp, serialize_rgp
from rgphom.solver import solve
from rgphom.testkit import gadget_ncore, random_rgp

from fixtures import a_path, chord_chain, plus_cycle, two_label_pair
from fixtures import undirected_template
from fixtures import mycielski_fixture, planted_mixed_path


@pytest.fixture()
def runner(tmp_path, capsys):
    def save(name: str, p: Rgp) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(serialize_rgp(p)))
        return str(path)

    def run(*argv: str):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return save, run, tmp_path


def as_doc(out: str) -> dict:
    return json.loads(out)


def test_nhom_reports_a_mapping(runner):
    save, run, _ = runner
    p, _q = two_label_pair()
    path = save("p.json", p)
    code, out = run("nhom", path, path)
    doc = as_doc(out)
    assert code == 0
    assert doc["exists"] is True
    assert set(doc["map"]) == set(p.vertices)
    assert doc["solver"] == "general"


def test_nhom_reports_absence(runner):
    save, run, _ = runner
    p, q = two_label_pair()
    code, out = run("nhom", save("p.json", p), save("q.json", q))
    assert code == 1
    assert as_doc(out) == {"exists": False, "solver": "general"}


def test_nhom_certificate_roundtrips_through_verify(runner):
    save, run, tmp_path = runner
    p, _ = two_label_pair()
    path = save("p.json", p)
    cert = tmp_path / "cert.json"
    code, _ = run("nhom", path, path, "--certificate", str(cert))
    assert code == 0
    code, out = run("verify", path, path, str(cert))
    assert code == 0 and as_doc(out) == {"valid": True}


def test_the_certificate_file_is_its_canonical_json_in_utf8(runner):
    save, run, tmp_path = runner
    p = make_rgp("a", ["\u00fc0", "\u00fc1"], [("\u00fc0", "\u00fc1", "a")])
    path = save("p.json", p)
    cert_path = tmp_path / "cert.json"
    code, _ = run("nhom", path, path, "--certificate", str(cert_path))
    assert code == 0
    cert, _ = solve(p, p)
    assert cert_path.read_bytes() == (
        json.dumps(cert.to_json(), sort_keys=True) + "\n").encode()


def test_verify_rejects_a_tampered_certificate(runner):
    save, run, tmp_path = runner
    p = a_path(3)
    path = save("p.json", p)
    cert = tmp_path / "cert.json"
    run("nhom", path, path, "--certificate", str(cert))
    doc = json.loads(cert.read_text())
    doc["map"]["q0"] = "q2"
    cert.write_text(json.dumps(doc))
    code, out = run("verify", path, path, str(cert))
    assert code == 1 and as_doc(out) == {"valid": False}


def test_the_path_route_certificate_of_a_long_walk_verifies(runner):
    # The path route writes a 600-arc witness for the a+ arc; verify
    # once crashed on it.
    save, run, tmp_path = runner
    p_path, q_path = save("p.json", chord_chain(600)), save("q.json", a_path(700))
    cert = tmp_path / "cert.json"
    code, out = run("nhom", p_path, q_path, "--certificate", str(cert))
    assert code == 0 and as_doc(out)["solver"] == "path"
    doc = json.loads(cert.read_text())
    assert len(doc["witnesses"]["600"]) == 600
    code, out = run("verify", p_path, q_path, str(cert))
    assert code == 0 and as_doc(out) == {"valid": True}
    code, out = run("verify", p_path, q_path, str(cert), "--budget", "1")
    assert code == 3 and out == ""
    doc["witnesses"]["600"][300] += 1
    cert.write_text(json.dumps(doc))
    code, out = run("verify", p_path, q_path, str(cert))
    assert code == 1 and as_doc(out) == {"valid": False}


def test_a_5000_arc_witness_verifies(runner):
    save, run, tmp_path = runner
    n = 5000
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "map": {f"p{i}": f"q{i}" for i in range(n + 1)},
        "witnesses": {**{str(i): [i] for i in range(n)},
                      str(n): list(range(n))}}))
    code, out = run("verify", save("p.json", chord_chain(n)),
                    save("q.json", a_path(n + 1)), str(cert))
    assert code == 0 and as_doc(out) == {"valid": True}


@pytest.mark.parametrize("solver", ["auto", "general"])
def test_a_1500_vertex_pattern_is_searched_without_recursion(runner, solver):
    # A deeper search than the interpreter's recursion limit.
    save, run, tmp_path = runner
    p = a_path(1500, "p")
    q = make_rgp("a", ["t0", "t1", "t2", "t3"],
                 [("t0", "t1", "a"), ("t1", "t2", "a"), ("t2", "t0", "a"),
                  ("t3", "t0", "a")])
    cert = tmp_path / "cert.json"
    code, out = run("nhom", save("p.json", p), save("q.json", q),
                    "--solver", solver, "--certificate", str(cert))
    assert code == 0 and as_doc(out)["solver"] == "general"
    h = NHomomorphism.from_json(json.loads(cert.read_text()))
    assert verify_n_hom(p, q, h)


@pytest.mark.parametrize("extra", ["map key", "arc index"])
def test_verify_rejects_a_certificate_with_extra_keys(runner, extra):
    save, run, tmp_path = runner
    p = a_path(3)
    path = save("p.json", p)
    cert = tmp_path / "cert.json"
    run("nhom", path, path, "--certificate", str(cert))
    doc = json.loads(cert.read_text())
    if extra == "map key":
        doc["map"]["elsewhere"] = "q0"
    else:
        doc["witnesses"][str(len(p.arcs))] = doc["witnesses"]["0"]
    cert.write_text(json.dumps(doc))
    code, out = run("verify", path, path, str(cert))
    assert code == 1 and as_doc(out) == {"valid": False}


@pytest.mark.parametrize("field, value", [
    ("witnesses", {"0": "0"}),
    ("witnesses", {"0": [0.7]}),
    ("witnesses", {"0": [False]}),
    ("witnesses", {"+0": [0]}),
    ("map", {"q0": "q0", "q1": 5}),
], ids=["string walk", "float index", "bool index", "signed key", "int vertex"])
def test_verify_refuses_a_malformed_certificate(runner, capsys, field, value):
    # Each would be coerced into a certificate that verifies.
    save, run, tmp_path = runner
    path = save("p.json", a_path(2))
    cert = tmp_path / "cert.json"
    run("nhom", path, path, "--certificate", str(cert))
    assert run("verify", path, path, str(cert)) == (0, '{"valid": true}\n')
    doc = json.loads(cert.read_text())
    doc[field] = value
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["verify", path, path, str(cert)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_auto_routes_paths_to_the_scheduling_solver(runner):
    save, run, _ = runner
    p = save("p.json", a_path(2, prefix="p"))
    q = save("q.json", a_path(3))
    code, out = run("nhom", p, q)
    assert code == 0
    assert as_doc(out)["solver"] == "path"
    code, out = run("nhom", p, q, "--solver", "general")
    assert code == 0
    assert as_doc(out)["solver"] == "general"


def test_auto_routes_undirected_templates(runner):
    save, run, _ = runner
    p = save("p.json", undirected_template([("x", "y"), ("y", "z")]))
    q = save("q.json", undirected_template([("u", "v")]))
    code, out = run("nhom", p, q)
    assert code == 0
    assert as_doc(out)["solver"] == "undirected"


def test_core_verdicts(runner):
    save, run, _ = runner
    code, out = run("core", save("loop.json", plus_cycle(1)))
    assert code == 0 and as_doc(out) == {"core": True}
    code, out = run("core", save("pair.json", make_rgp("a", ["u", "v"], [])))
    doc = as_doc(out)
    assert code == 1
    assert doc["core"] is False
    assert "retraction" in doc and "removed_vertex" in doc


def test_include_exit_codes(runner):
    _, run, _ = runner
    code, out = run("include", "a", "a|b", "--alphabet", "ab")
    assert code == 0 and as_doc(out) == {"holds": True}
    code, out = run("include", "a|b", "a", "--alphabet", "ab")
    assert code == 1
    assert as_doc(out)["counterexample"] == "b"


def test_universal_exit_codes(runner):
    _, run, _ = runner
    code, out = run("universal", "(a|b)*", "--alphabet", "ab")
    assert code == 0 and as_doc(out) == {"holds": True}
    code, out = run("universal", "a*b*", "--alphabet", "ab")
    assert code == 1
    assert as_doc(out)["counterexample"] == "ba"


def test_include_and_universal_take_a_budget(runner):
    _, run, _ = runner
    code, out = run("include", "(a|b)*aa" + "(a|b)" * 10,
                    "(a|b)*a" + "(a|b)" * 11, "--alphabet", "ab",
                    "--budget", "5")
    assert code == 3 and out == ""
    # Every word: the short ones, and the long ones by their fifth
    # symbol from the end.
    every = "|".join(["a*"] + ["(a|b)" * k for k in range(1, 5)]
                     + ["(a|b)*" + c + "(a|b)" * 4 for c in "ab"])
    code, out = run("universal", every, "--alphabet", "ab", "--budget", "5")
    assert code == 3 and out == ""
    code, out = run("universal", every, "--alphabet", "ab")
    assert code == 0 and as_doc(out) == {"holds": True}
    code, out = run("include", "(a|b)*aa" + "(a|b)" * 10,
                    "(a|b)*a" + "(a|b)" * 11, "--alphabet", "ab")
    assert code == 0 and as_doc(out) == {"holds": True}


def test_dq_formats(runner):
    save, run, _ = runner
    path = save("q.json", a_path(3))
    code, out = run("dq", path)
    doc = as_doc(out)
    assert code == 0
    # t holds for every pair joined by a nonempty walk: 3 pairs on a 3-path
    labels = sorted(arc["label"] for arc in doc["arcs"])
    assert labels == ["a", "a", "t", "t", "t"]
    code, out = run("dq", path, "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_dq_budget_bounds_the_reachable_pairs(runner):
    save, run, _ = runner
    path = save("q.json", a_path(40))
    code, out = run("dq", path, "--budget", "1")
    assert code == 3 and out == ""
    code, out = run("dq", path, "--budget", str(40 * 39 // 2))
    assert code == 0 and len(as_doc(out)["arcs"]) == 39 + 40 * 39 // 2


def test_classify_reports_kind(runner):
    save, run, _ = runner
    code, out = run("classify", save("k2.json", undirected_template([("u", "v")])))
    assert code == 0 and as_doc(out) == {"kind": "PolySingleEdgeA"}
    code, out = run("classify", save("big.json", mycielski_fixture()))
    doc = as_doc(out)
    assert code == 0
    assert doc["kind"] == "NPComplete"
    assert len(doc["odd_cycle"]) % 2 == 1


def test_classify_rejects_directed_targets(runner):
    save, run, _ = runner
    code, _ = run("classify", save("q.json", a_path(3)))
    assert code == 2


def test_classify_refuses_an_empty_template(runner):
    _, run, tmp_path = runner
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"alphabet": ["a"], "vertices": [], "arcs": []}))
    code, out = run("classify", str(path))
    assert code == 2 and out == ""


def test_gadget_inclusion_output(runner):
    _, run, _ = runner
    code, out = run("gadget", "inclusion", "a", "a|b", "--alphabet", "ab")
    doc = as_doc(out)
    assert code == 0
    assert doc["kind"] == "inclusion"
    assert doc["p1"]["arcs"][0]["label"] == "a"
    code, out = run("gadget", "inclusion", "a", "a|b", "--alphabet", "ab",
                    "--format", "dot")
    assert code == 0 and out.count("digraph") == 2


def test_gadget_universality_and_ncore(runner):
    _, run, _ = runner
    code, out = run("gadget", "universality", "a*b*", "--alphabet", "ab")
    assert code == 0 and as_doc(out)["kind"] == "universality"
    code, out = run("gadget", "ncore", "a", "b", "--alphabet", "ab")
    doc = as_doc(out)
    assert code == 0
    assert "c" in doc["pattern"]["alphabet"]


def test_gadget_needs_both_expressions(runner):
    _, run, _ = runner
    code, _ = run("gadget", "inclusion", "a", "--alphabet", "ab")
    assert code == 2


def test_walk_output(runner):
    save, run, _ = runner
    path = save("q.json", a_path(3))
    code, out = run("walk", path, "q0", "q2", "aa")
    doc = as_doc(out)
    assert code == 0
    assert doc == {"found": True, "arcs": [0, 1],
                   "vertices": ["q0", "q1", "q2"]}
    code, out = run("walk", path, "q2", "q0", "a")
    assert code == 1 and as_doc(out) == {"found": False}


def test_budget_flag_stops_the_search(runner):
    save, run, _ = runner
    p = save("p.json", random_rgp(0, 5, 6))
    q = save("q.json", random_rgp(1, 5, 6))
    code, _ = run("nhom", p, q, "--solver", "general", "--budget", "1")
    assert code == 3


def test_budget_bounds_the_mixed_path_route(runner):
    save, run, _ = runner
    p, q = planted_mixed_path(random.Random(16), 16)
    p_path, q_path = save("p.json", p), save("q.json", q)
    code, out = run("nhom", p_path, q_path)
    assert code == 0 and as_doc(out)["solver"] == "path"
    code, _ = run("nhom", p_path, q_path, "--budget", "5")
    assert code == 3


def test_budget_bounds_the_walk_engine_setup(runner):
    # the two labels' DFAs have about 2^9 states; with this budget the
    # run stops while building the per-label images, before any BFS
    save, run, _ = runner
    e1 = "(a|b)*a" + "(a|b)" * 8
    alpha = ("a", "b", "c")
    body = gadget_ncore(parse_regex(e1, alpha), parse_regex(e1 + "|b*", alpha))
    code, _ = run("core", save("p.json", body), "--budget", "100")
    assert code == 3


def test_budget_bounds_the_label_images_of_large_dfas(runner):
    # about 2^12 DFA states: the label images tick once per product node,
    # so the budget stops their construction early
    save, run, _ = runner
    e1 = "(a|b)*a" + "(a|b)" * 11
    alpha = ("a", "b", "c")
    body = gadget_ncore(parse_regex(e1, alpha), parse_regex(e1 + "|b*", alpha))
    code, _ = run("core", save("p.json", body), "--budget", "100")
    assert code == 3


def test_budget_env_var(runner, monkeypatch):
    save, run, _ = runner
    p = save("p.json", random_rgp(0, 5, 6))
    q = save("q.json", random_rgp(1, 5, 6))
    monkeypatch.setenv(ENV_BUDGET, "1")
    code, _ = run("nhom", p, q, "--solver", "general")
    assert code == 3
    monkeypatch.setenv(ENV_BUDGET, "junk")
    code, _ = run("nhom", p, q, "--solver", "general")
    assert code == 2


def test_budget_must_be_positive(runner):
    save, run, _ = runner
    p, _ = two_label_pair()
    path = save("p.json", p)
    code, _ = run("nhom", path, path, "--budget", "0")
    assert code == 2


def test_unusable_inputs_exit_two(runner, tmp_path):
    save, run, _ = runner
    p, _ = two_label_pair()
    path = save("p.json", p)
    code, _ = run("nhom", str(tmp_path / "missing.json"), path)
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = run("nhom", str(broken), path)
    assert code == 2
    code, _ = run("include", "a((", "a", "--alphabet", "a")
    assert code == 2


_NOT_UTF8 = b"\xff"
_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("role", ["pattern", "target", "certificate"])
@pytest.mark.parametrize("head, message", [
    (_NOT_UTF8, "'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte"),
    (_BOM, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
           "line 1 column 1 (char 0)"),
], ids=["0xff", "BOM"])
def test_input_files_are_utf8_without_a_bom(runner, capsys, role, head,
                                            message):
    save, run, tmp_path = runner
    path = save("p.json", a_path(2))
    cert = tmp_path / "cert.json"
    run("nhom", path, path, "--certificate", str(cert))
    given = {"pattern": Path(path), "target": Path(path),
             "certificate": cert}[role]
    bad = tmp_path / "bad.json"
    bad.write_bytes(head + given.read_bytes())
    argv = {"pattern": ["nhom", str(bad), path],
            "target": ["nhom", path, str(bad)],
            "certificate": ["verify", path, path, str(bad)]}[role]
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    # The same line in every role, naming the file as it was given.
    assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")


@pytest.mark.parametrize("role, text, reason", [
    ("pattern", "{}", "missing required key 'alphabet'"),
    ("target", "{}", "missing required key 'alphabet'"),
    ("certificate", "{}", "certificate must have 'map' and 'witnesses'"),
    # A pattern inside a JSON string is not read as one.
    ("pattern", json.dumps(json.dumps(serialize_rgp(a_path(2)))),
     "document must be a JSON object"),
    ("certificate", "[]", "document must be a JSON object"),
], ids=["pattern", "target", "certificate", "string", "list"])
def test_a_schema_error_names_the_file_as_given(runner, capsys, monkeypatch,
                                                role, text, reason):
    save, _, tmp_path = runner
    save("p.json", a_path(2))
    (tmp_path / "bad.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    argv = {"pattern": ["nhom", "./bad.json", "p.json"],
            "target": ["nhom", "p.json", "./bad.json"],
            "certificate": ["verify", "p.json", "p.json", "./bad.json"]}[role]
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: ./bad.json: {reason}\n")


def test_input_newlines_are_translated_as_in_text_mode(runner, capsys):
    save, run, tmp_path = runner
    p = a_path(2)
    good = tmp_path / "crlf.json"
    good.write_bytes(json.dumps(serialize_rgp(p), indent=1)
                     .replace("\n", "\r\n").encode())
    code, out = run("nhom", str(good), str(good))
    assert code == 0 and as_doc(out)["exists"] is True
    # An error names the line and offset that a text-mode read sees.
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{\r\n "alphabet": ["a"],\r "vertices": x}\r\n')
    with pytest.raises(ValueError) as expected:
        parse_rgp(bad.read_text())
    assert "line 3" in str(expected.value)
    code = main(["nhom", str(bad), str(good)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {bad}: {expected.value}\n")


def test_file_names_mean_what_pathlib_makes_of_them(runner, capsys):
    # Files are opened through Path, as Path.read_text did: a trailing
    # slash is dropped, and an error names the file without "./".
    save, run, tmp_path = runner
    path = save("p.json", a_path(2))
    cert = tmp_path / "cert.json"
    code, _ = run("nhom", path + "/", path, "--certificate", f"{cert}/")
    assert code == 0 and cert.is_file()
    code = main(["nhom", f"{tmp_path}/./missing.json", path])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("error: [Errno 2] No such file or directory: "
                   f"'{tmp_path / 'missing.json'}'\n")


def test_back_to_back_runs_share_no_state(runner):
    save, run, _ = runner
    p = save("p.json", a_path(2, prefix="p"))
    q = save("q.json", a_path(3))
    code, out = run("nhom", p, q, "--solver", "general")
    assert code == 0 and as_doc(out)["solver"] == "general"
    code, out = run("nhom", p, q)
    assert code == 0 and as_doc(out)["solver"] == "path"
    g1 = save("g1.json", random_rgp(0, 5, 6))
    g2 = save("g2.json", random_rgp(1, 5, 6))
    code, _ = run("nhom", g1, g2, "--solver", "general", "--budget", "1")
    assert code == 3
    code, out = run("nhom", g1, g2, "--solver", "general")
    assert code in (0, 1) and "exists" in as_doc(out)


# Labels that a recursive walk over the text or the AST cannot take:
# `a` inside 3000 pairs of parentheses, and the 5000-symbol word.
DEEP_LABELS = ("(" * 3000 + "a" + ")" * 3000, "a" * 5000)


def test_a_deeply_nested_label_is_included(capsys):
    code = main(["include", DEEP_LABELS[0], "a", "--alphabet", "a"])
    assert code == 0 and as_doc(capsys.readouterr().out) == {"holds": True}


def test_core_of_a_gadget_with_a_deeply_nested_label(runner):
    _, run, tmp_path = runner
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "alphabet": ["a", "b", "c"], "vertices": ["x", "y", "z"],
        "arcs": [{"from": "x", "to": "y", "label": DEEP_LABELS[0]},
                 {"from": "x", "to": "z", "label": "c|(a|b)"}]}))
    code, out = run("core", str(path))
    # L(a) <= L(a|b), so z folds onto y and the c|(a|b) arc goes.
    assert code == 1
    assert as_doc(out) == {
        "core": False, "removed_arc": 1,
        "retraction": {"map": {"x": "x", "y": "y", "z": "y"},
                       "witnesses": {"0": [0], "1": [0]}}}


@pytest.mark.parametrize("label", DEEP_LABELS[1:], ids=("long",))
def test_unexpected_failures_exit_four(capsys, label):
    code = main(["include", label, "a", "--alphabet", "a"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_unexpected_failures_leave_no_traceback():
    src = str(Path(rgphom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "rgphom.cli", "include", DEEP_LABELS[1], "a",
         "--alphabet", "a"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 4 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")
