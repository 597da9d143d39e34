"""Fuzzing the command line: mangled patterns, regexes and certificates
on every subcommand, driven through main() in process.

Whatever the input, a run must end with exit code 0 or 1 (an answer,
printed as exactly one JSON line unless DOT was asked for), 2 (unusable
input) or 3 (a budget or cap ran out), and print nothing on stdout in
the last two cases.  Exit 4, an unexpected failure, is never right.
Labels run up to 5000 symbols: long words, and a symbol nested in up
to 3000 pairs of parentheses.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from rgphom.cli import main
from rgphom.regexes import serialize_regex
from rgphom.testkit import random_regex

NAMES = ("u", "v", "w", "x")
JUNK = (None, 0, -1, 2.5, True, "", "u", [], {}, ["a", "b"], {"a": 1})

short_regexes = st.one_of(
    st.sampled_from(("a", "a+", "b", "(a|b)*", "ab*", "a.b", "b+a", "(ab)+",
                     "a**", "((a))", "(a|b)*a(a|b)")),
    st.builds(lambda seed, size: serialize_regex(random_regex(seed, size, "ab")),
              st.integers(0, 2**32), st.integers(1, 12)),
)
# Long words, and `a` deep in parentheses with or without a star on
# each group.
long_regexes = st.one_of(
    st.builds(lambda seed, n: "".join(random.Random(seed).choices("ab", k=n)),
              st.integers(0, 2**32), st.integers(300, 5000)),
    st.builds(lambda n, postfix: "(" * n + "a" + (")" + postfix) * n,
              st.integers(300, 3000), st.sampled_from(("", "*"))),
)
valid_regexes = st.one_of(short_regexes, short_regexes, short_regexes,
                          long_regexes)
regexes = st.one_of(
    valid_regexes,
    valid_regexes,
    st.sampled_from(("a|", "(a", "a)", "*", "", "c", "a b", "-a")),
    st.text(alphabet="ab()|*+.c", max_size=30),
)
alphabets = st.sampled_from(("ab", "ab", "ab", "a", "abc", "", "aa", "a("))


@st.composite
def documents(draw, valid) -> str:
    """The text of an RGP file: a document drawn from valid, often
    mangled in one place, or text that is no document at all."""
    doc = valid
    kind = draw(st.sampled_from(("keep",) * 6 + (
        "drop key", "junk value", "junk arc", "unknown vertex",
        "duplicate vertex", "junk text")))
    if kind == "drop key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "junk value":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(JUNK))
    elif kind == "junk arc":
        arc = draw(st.sampled_from(
            (5, "a", [], {"from": "u"}, {"from": 1, "to": "v", "label": "a"},
             {"from": "u", "to": "v", "label": 7},
             {"from": "u", "to": "v", "label": "a", "extra": 1})))
        doc["arcs"].append(arc)
    elif kind == "unknown vertex":
        doc["arcs"].append({"from": "u", "to": "nowhere", "label": "a"})
    elif kind == "duplicate vertex":
        doc["vertices"].append(doc["vertices"][0] if doc["vertices"] else "u")
    elif kind == "junk text":
        return draw(st.sampled_from(
            ("", "{", "[]", "null", "\"u\"", "{\"alphabet\": [\"a\"]}",
             json.dumps(doc)[:-1], "\x00", "\udcff")))
    return json.dumps(doc)


@st.composite
def patterns(draw) -> str:
    """An RGP file over a few vertices.  Unary labels, and arcs both
    ways, come often, so that the path and undirected routes run too."""
    n = draw(st.integers(0, 4))
    vertices = list(NAMES[:n])
    unary = draw(st.booleans())
    labels = st.sampled_from(("a", "a+")) if unary else st.one_of(
        valid_regexes, valid_regexes, valid_regexes, regexes)
    arcs = []
    if vertices:
        for _ in range(draw(st.integers(0, 5))):
            arcs.append({"from": draw(st.sampled_from(vertices)),
                         "to": draw(st.sampled_from(vertices)),
                         "label": draw(labels)})
    if draw(st.booleans()):
        arcs += [{"from": a["to"], "to": a["from"], "label": a["label"]}
                 for a in arcs]
    alphabet = ["a"] if unary else draw(st.sampled_from(
        (["a", "b"], ["a", "b"], ["a"], ["b", "a", "c"])))
    return draw(documents({"alphabet": alphabet, "vertices": vertices,
                           "arcs": arcs}))


@st.composite
def certificates(draw) -> str:
    """A certificate file: a map and witness walks of plausible shape,
    often out of range, mistyped or missing."""
    mapping = {draw(st.sampled_from(NAMES)): draw(st.sampled_from(NAMES))
               for _ in range(draw(st.integers(0, 4)))}
    walk = st.lists(st.one_of(st.integers(-2, 12), st.sampled_from(JUNK)),
                    max_size=4)
    witnesses = {str(draw(st.integers(-1, 6))): draw(walk)
                 for _ in range(draw(st.integers(0, 4)))}
    doc = {"map": mapping, "witnesses": witnesses}
    kind = draw(st.sampled_from(("keep",) * 4 + (
        "drop key", "junk value", "junk key", "junk text")))
    if kind == "drop key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "junk value":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(JUNK))
    elif kind == "junk key":
        doc["witnesses"]["zero"] = [0]
    elif kind == "junk text":
        return draw(st.sampled_from(("", "[]", "{\"map\": {}}", "\udcff")))
    return json.dumps(doc)


budgets = st.one_of(st.integers(1, 4000), st.integers(1, 4000),
                    st.integers(1, 4000), st.integers(-1, 0)).map(str)


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, str]]:
    """An argument list for one subcommand, with the files it names."""
    files: dict[str, str] = {}

    def file(name: str, content) -> str:
        files[name] = draw(content)
        return name

    command = draw(st.sampled_from(("nhom", "verify", "core", "include",
                                    "universal", "walk", "dq", "classify",
                                    "gadget")))
    if command == "nhom":
        argv = [file("p.json", patterns()), file("q.json", patterns()),
                "--solver", draw(st.sampled_from(("auto", "general", "path",
                                                  "undirected"))),
                "--certificate", "cert.json"]
    elif command == "verify":
        argv = [file("p.json", patterns()), file("q.json", patterns()),
                file("c.json", certificates())]
    elif command == "core":
        argv = [file("p.json", patterns())]
    elif command == "include":
        argv = [draw(regexes), draw(regexes), "--alphabet", draw(alphabets)]
    elif command == "universal":
        argv = [draw(regexes), "--alphabet", draw(alphabets)]
    elif command == "walk":
        argv = [file("q.json", patterns()), draw(st.sampled_from(NAMES)),
                draw(st.sampled_from(NAMES)), draw(regexes)]
    elif command in ("dq", "classify"):
        argv = [file("q.json", patterns())]
    else:
        argv = [draw(st.sampled_from(("inclusion", "universality", "ncore"))),
                draw(regexes)]
        if draw(st.booleans()):
            argv.append(draw(regexes))
        argv += ["--alphabet", draw(alphabets)]
    if command in ("dq", "gadget"):
        argv += ["--format", draw(st.sampled_from(("json", "dot")))]
    if command != "gadget":
        argv += ["--budget", draw(budgets)]
    return [command] + argv, files


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse refuses a malformed command line with exit 2.
            code = exc.code
    return code, out.getvalue()


def _check(argv: list[str], code: int, out: str) -> None:
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (2, 3):
        assert out == "", (argv, code, out)
    elif "dot" not in argv:
        assert out.endswith("\n") and out.count("\n") == 1, (argv, out)
        assert isinstance(json.loads(out), dict)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(invocations())
def test_every_subcommand_exits_with_a_contract_code(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            # "\udcff" is written as the byte 0xff: no UTF-8 text
            Path(tmp, name).write_text(text, errors="surrogateescape")
        # file names cannot clash with regexes, which use no 'j' or 's'
        argv = [str(Path(tmp, arg)) if arg.endswith(".json") else arg
                for arg in argv]
        code, out = _run(argv)
        _check(argv, code, out)
        if argv[0] == "nhom" and code == 0:
            # the certificate written re-checks as valid
            again = ["verify", argv[1], argv[2], str(Path(tmp, "cert.json"))]
            code, out = _run(again)
            assert (code, out) == (0, '{"valid": true}\n'), argv
