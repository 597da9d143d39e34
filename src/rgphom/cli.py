"""Command-line front end: parse the arguments, load the inputs, call
the library, print the answer.

One line of JSON on stdout per invocation; diagnostics go to stderr so
scripts can parse the output blind.  The exit status already answers
the question: 0 the property holds or a solution was found, 1 it fails
or none exists, 2 the input was unusable, 3 a budget ran out, 4 the
program failed unexpectedly (one error line on stderr, nothing on
stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    BudgetExceededError,
    CapExceededError,
    PreconditionError,
    SearchBudget,
)
from .languages import language_inclusion, universality
from .nhom import NHomomorphism, is_n_core, verify_n_hom
from .regexes import parse_regex
from .rgp import Rgp, export_dot, parse_rgp, serialize_rgp
from .solver import ROUTES, solve
from .testkit import gadget_inclusion, gadget_ncore, gadget_universality
from .unary import classify_undirected_template, d_of_q
from .walks import find_walk

ENV_BUDGET = "RGPHOM_BUDGET"


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _read_text(path: str) -> str:
    """The file as UTF-8 text, newlines translated as text mode does.

    A binary read and one decode skip the text-mode reader, which costs
    more than parsing a small pattern. A BOM is kept, so json.loads
    rejects it. The file is opened through Path, as Path.read_text did,
    so "p.json/" still reads p.json and an error names "./p.json" as
    "p.json".
    """
    with open(Path(path), "rb") as f:
        text = f.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_rgp(path: str) -> Rgp:
    return parse_rgp(_read_text(path))


def _budget(args: argparse.Namespace) -> SearchBudget:
    nodes = getattr(args, "budget", None)
    if nodes is None:
        raw = os.environ.get(ENV_BUDGET)
        if raw is not None:
            try:
                nodes = int(raw)
            except ValueError:
                raise PreconditionError(
                    f"{ENV_BUDGET} must be an integer, got {raw!r}") from None
    if nodes is None:
        return SearchBudget()
    if nodes < 1:
        raise PreconditionError("budget must be a positive node count")
    return SearchBudget(max_nodes=nodes)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_nhom(args: argparse.Namespace) -> int:
    p = _load_rgp(args.pattern)
    q = _load_rgp(args.target)
    cert, route = solve(p, q, args.solver, _budget(args))
    if cert is None:
        _emit({"exists": False, "solver": route})
        return 1
    if args.certificate:
        with open(Path(args.certificate), "wb") as f:
            f.write((json.dumps(cert.to_json(), sort_keys=True)
                     + "\n").encode())
    _emit({"exists": True, "solver": route, "map": cert.mapping})
    return 0


def _cmd_core(args: argparse.Namespace) -> int:
    p = _load_rgp(args.pattern)
    verdict = is_n_core(p, _budget(args))
    if verdict.is_core:
        _emit({"core": True})
        return 0
    doc: dict = {"core": False, "retraction": verdict.retraction.to_json()}
    if verdict.removed_arc is not None:
        doc["removed_arc"] = verdict.removed_arc
    if verdict.removed_vertex is not None:
        doc["removed_vertex"] = verdict.removed_vertex
    _emit(doc)
    return 1


def _cmd_include(args: argparse.Namespace) -> int:
    alpha = tuple(args.alphabet)
    report = language_inclusion(parse_regex(args.e1, alpha),
                                parse_regex(args.e2, alpha), _budget(args))
    if report.holds:
        _emit({"holds": True})
        return 0
    _emit({"holds": False, "counterexample": report.counterexample})
    return 1


def _cmd_universal(args: argparse.Namespace) -> int:
    alpha = tuple(args.alphabet)
    report = universality(parse_regex(args.expr, alpha), alpha,
                          _budget(args))
    if report.holds:
        _emit({"holds": True})
        return 0
    _emit({"holds": False, "counterexample": report.counterexample})
    return 1


def _cmd_dq(args: argparse.Namespace) -> int:
    d = d_of_q(_load_rgp(args.target), _budget(args))
    if args.format == "dot":
        print(d.to_dot())
    else:
        _emit(d.to_json())
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    template = classify_undirected_template(_load_rgp(args.target),
                                            budget=_budget(args))
    doc: dict = {"kind": template.kind.value}
    if template.odd_cycle is not None:
        doc["odd_cycle"] = list(template.odd_cycle)
    _emit(doc)
    return 0


def _cmd_gadget(args: argparse.Namespace) -> int:
    alpha = tuple(args.alphabet)
    e1 = parse_regex(args.e1, alpha)
    if args.which == "universality":
        pair = gadget_universality(e1, alpha)
        doc = {"kind": "universality", "fact": pair.fact,
               "p1": serialize_rgp(pair.p1), "p2": serialize_rgp(pair.p2)}
        parts = (pair.p1, pair.p2)
    else:
        if args.e2 is None:
            raise PreconditionError(
                f"gadget {args.which} needs two expressions")
        e2 = parse_regex(args.e2, alpha)
        if args.which == "inclusion":
            pair = gadget_inclusion(e1, e2)
            doc = {"kind": "inclusion", "fact": pair.fact,
                   "p1": serialize_rgp(pair.p1),
                   "p2": serialize_rgp(pair.p2)}
            parts = (pair.p1, pair.p2)
        else:
            body = gadget_ncore(e1, e2)
            doc = {"kind": "ncore", "pattern": serialize_rgp(body)}
            parts = (body,)
    if args.format == "dot":
        for part in parts:
            print(export_dot(part))
    else:
        _emit(doc)
    return 0


def _cmd_walk(args: argparse.Namespace) -> int:
    q = _load_rgp(args.target)
    e = parse_regex(args.expr, q.alphabet)
    walk = find_walk(q, args.source, args.sink, e, _budget(args))
    if walk is None:
        _emit({"found": False})
        return 1
    verts = [q.arcs[walk[0]].src] + [q.arcs[i].dst for i in walk]
    _emit({"found": True, "arcs": list(walk), "vertices": verts})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    p = _load_rgp(args.pattern)
    q = _load_rgp(args.target)
    cert = NHomomorphism.from_json(json.loads(_read_text(args.cert)))
    if verify_n_hom(p, q, cert, _budget(args)):
        _emit({"valid": True})
        return 0
    _emit({"valid": False})
    return 1


# ---------------------------------------------------------------------------
# Wiring


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=int, default=None,
                     help=f"search node limit (default {ENV_BUDGET} or 1e7)")


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rgphom",
        description="Homomorphism, core, and language checks for "
                    "regex-labeled graph patterns.")
    subs = top.add_subparsers(dest="command", required=True)

    s = subs.add_parser("nhom", help="find a homomorphism pattern -> target")
    s.add_argument("pattern")
    s.add_argument("target")
    s.add_argument("--certificate", default=None,
                   help="write the witness mapping to this file")
    s.add_argument("--solver", default="auto",
                   choices=ROUTES)
    _add_budget(s)
    s.set_defaults(func=_cmd_nhom)

    s = subs.add_parser("core", help="check whether a pattern is a core")
    s.add_argument("pattern")
    _add_budget(s)
    s.set_defaults(func=_cmd_core)

    s = subs.add_parser("include", help="decide L(E1) <= L(E2)")
    s.add_argument("e1")
    s.add_argument("e2")
    s.add_argument("--alphabet", required=True)
    _add_budget(s)
    s.set_defaults(func=_cmd_include)

    s = subs.add_parser("universal", help="decide L(E) = all words")
    s.add_argument("expr")
    s.add_argument("--alphabet", required=True)
    _add_budget(s)
    s.set_defaults(func=_cmd_universal)

    s = subs.add_parser("dq", help="two-labeled digraph of an {a,a+} target")
    s.add_argument("target")
    s.add_argument("--format", default="json", choices=("json", "dot"))
    _add_budget(s)
    s.set_defaults(func=_cmd_dq)

    s = subs.add_parser("classify",
                        help="complexity class of an undirected template")
    s.add_argument("target")
    _add_budget(s)
    s.set_defaults(func=_cmd_classify)

    s = subs.add_parser("gadget", help="emit a reduction instance")
    s.add_argument("which",
                   choices=("inclusion", "universality", "ncore"))
    s.add_argument("e1")
    s.add_argument("e2", nargs="?", default=None)
    s.add_argument("--alphabet", required=True)
    s.add_argument("--format", default="json", choices=("json", "dot"))
    s.set_defaults(func=_cmd_gadget)

    s = subs.add_parser("walk", help="shortest qualifying walk u -> v")
    s.add_argument("target")
    s.add_argument("source")
    s.add_argument("sink")
    s.add_argument("expr")
    _add_budget(s)
    s.set_defaults(func=_cmd_walk)

    s = subs.add_parser("verify", help="re-check a certificate file")
    s.add_argument("pattern")
    s.add_argument("target")
    s.add_argument("cert")
    _add_budget(s)
    s.set_defaults(func=_cmd_verify)

    return top


# Built once per process: building costs far more than one parse, and
# parse_args leaves the parser unchanged.
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means "no", so a crash must not surface as it.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
