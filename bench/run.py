"""rgphom benchmark: seeded workloads driven through ``rgphom.cli.main``.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory.  Set-up imports ``rgphom`` and writes
the workload's instances; the run then repeats whole rounds of the
workload's fixed list of operations until ``--seconds`` have passed,
clearing the program's caches between rounds so that every round starts
cold, as a fresh process would.  Answers are checked after the timed
loop, by the independent checkers in ``checks.py`` and by
``verify_n_hom`` on every certificate.  The last line of stdout is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``.  See README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7          # set-ups per run, the first being the run's own
CHILD_TIMEOUT_S = 120


def _arguments(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for instances and traces")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load_program():
    """Import rgphom from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rgphom" / "__init__.py").is_file():
        raise SystemExit(f"error: no rgphom sources under {src}")
    sys.path.insert(0, str(src))
    import rgphom.cli
    if not Path(rgphom.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported rgphom from {rgphom.__file__}")
    return rgphom


def _clear_caches() -> None:
    """Drop what the program memoises, so each round starts cold."""
    for name, module in list(sys.modules.items()):
        if name != "rgphom" and not name.startswith("rgphom."):
            continue
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
        clear = getattr(module, "clear_relation_cache", None)
        if callable(clear):
            clear()
    gc.collect()


def _call(cli, argv: list[str]) -> tuple[int | None, str, str | None]:
    """Run one subcommand in process: (exit code, stdout, crash)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), None
    except Exception as exc:  # a crash of the program fails the operation
        return None, out.getvalue(), type(exc).__name__
    return code, out.getvalue(), None


def _answer(op: workloads.Op, code, stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        doc = {"unparsable": stdout}
    cert = None
    path = Path(op.certificate) if op.certificate else None
    if path is not None and path.exists():
        cert = json.loads(path.read_text())
        path.unlink()
    return {"code": code, "doc": doc, "cert": cert}


def _witnesses(op: workloads.Op, answer: dict) -> set:
    """The witness walks an answer placed, each keyed by the file of the
    pattern it lives in, so that a walk counts once however many
    certificates repeat it."""
    if answer["cert"] is not None:
        walks = answer["cert"]["witnesses"].values()
    else:
        walks = (answer["doc"] or {}).get("retraction", {}).get(
            "witnesses", {}).values()
    target = op.argv[2] if op.argv[0] == "nhom" else op.argv[1]
    return {(target, tuple(walk)) for walk in walks}


def _run_rounds(cli, ops, seconds: float, tracer):
    """Whole rounds of the operations until the time is up (at least one).

    Returns the rounds, each a list of (seconds, answer index or None,
    crash) per operation, and per operation the distinct answers seen,
    so that memory does not grow with the number of rounds.
    """
    rounds = []
    distinct: list[dict[str, int]] = [{} for _ in ops]
    answers: list[list[dict]] = [[] for _ in ops]
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()
    while True:
        # Each round on the next of the process's CPUs in turn: on a
        # shared host each CPU has slow stretches of its own, and a
        # process left on one CPU may spend a whole run in one.
        os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
        _clear_caches()
        results = []
        for k, op in enumerate(ops):
            if tracer:
                tracer.begin_op(len(rounds), k)
            t0 = time.perf_counter()
            code, stdout, crash = _call(cli, op.argv)
            elapsed = time.perf_counter() - t0
            answer = None
            if crash is None and code in (0, 1):
                answer = _answer(op, code, stdout)
            elif crash is None:
                crash = f"exit {code}"
            if tracer:
                route = (answer["doc"] or {}).get("solver") if answer else None
                tracer.end_op(route, _witnesses(op, answer) if answer else set())
            index = None
            if answer is not None:
                key = json.dumps(answer, sort_keys=True)
                if key not in distinct[k]:
                    distinct[k][key] = len(answers[k])
                    answers[k].append(answer)
                index = distinct[k][key]
            results.append((elapsed, index, crash))
        if tracer:
            tracer.end_round()
        rounds.append(results)
        if time.perf_counter() - started >= seconds:
            os.sched_setaffinity(0, cpus)
            return rounds, answers


def _verify_with_program(rgphom, op: workloads.Op, answer: dict) -> bool:
    """verify_n_hom on the certificate the operation produced, if any."""
    from rgphom import NHomomorphism, parse_rgp, verify_n_hom
    doc = answer["doc"] or {}
    if answer["cert"] is not None:
        return verify_n_hom(parse_rgp(op.expect["pattern"]),
                            parse_rgp(op.expect["target"]),
                            NHomomorphism.from_json(answer["cert"]))
    if "retraction" in doc and "removed_arc" in doc:
        pattern = op.expect["pattern"]
        sub = dict(pattern, arcs=[a for i, a in enumerate(pattern["arcs"])
                                  if i != doc["removed_arc"]])
        return verify_n_hom(parse_rgp(pattern), parse_rgp(sub),
                            NHomomorphism.from_json(doc["retraction"]))
    return True


def _check(rgphom, ops, rounds, answers) -> tuple[bool, int, int]:
    """Check every distinct answer; returns (correct, attempted, failed)."""
    correct = True
    for op, seen in zip(ops, answers):
        if len(seen) > 1:
            print(f"{op.name}: {len(seen)} different answers", file=sys.stderr)
        for answer in seen:
            problems = checks.CHECKERS[op.check](
                op.expect, answer["code"], answer["doc"] or {}, answer["cert"])
            if not problems and not _verify_with_program(rgphom, op, answer):
                problems = ["verify_n_hom rejects the certificate"]
            for problem in problems:
                correct = False
                print(f"{op.name}: WRONG: {problem}", file=sys.stderr)
    attempted = failed = 0
    for results in rounds:
        for op, (_, index, crash) in zip(ops, results):
            attempted += 1
            if index is None:
                failed += 1
                if not op.failing:
                    print(f"{op.name}: failed ({crash})", file=sys.stderr)
    return correct, attempted, failed


def _setup_samples(args, first: float) -> list[float]:
    """The run's own set-up time plus that of fresh processes doing the
    same set-up, each in its own directory."""
    samples = [first]
    for k in range(1, SETUP_SAMPLES):
        out = args.out / f"setup-{os.getpid()}-{k}"
        try:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--out", str(out), "--setup-only"],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                check=True)
            samples.append(float(done.stdout.strip().splitlines()[-1]))
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return samples


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _arguments(argv)
    rgphom = _load_program()
    run_dir = args.out if args.setup_only else (
        args.out / f"{args.workload}-{args.seed}-{os.getpid()}")
    run_dir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(repr(setup_s))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        rounds, answers = _run_rounds(rgphom.cli, ops, args.seconds, tracer)
        # Read before checking, which allocates memory of its own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        correct, attempted, failed = _check(rgphom, ops, rounds, answers)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # One round at the machine's best speed: each operation's fastest time
    # over the rounds, failed operations included.  On a shared machine
    # other tenants only ever slow an operation down, by half as much
    # again or more, for seconds to minutes at a time, so an operation's
    # best time is steady where its median time is not; a slower program
    # still raises it.
    best = [min(results[k][0] for results in rounds) for k in range(len(ops))]
    completed = [[results[k][0] for results in rounds
                  if results[k][1] is not None] for k in range(len(ops))]
    ops_per_s = sum(map(len, completed)) / len(rounds) / sum(best)
    # The median operation, each taken at its best time over the rounds.
    op_p50_s = statistics.median(min(times) for times in completed if times)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} operations, {ops_per_s:.3f} ops/s"
          f"{' traced' if tracer else ''}", file=sys.stderr)

    if tracer:
        values = tracer.metrics(len(rounds))
        metrics = {name: _metric(value, _unit(name))
                   for name, value in values.items()}
        tracer.write(args.out / f"trace-{args.workload}-{args.seed}.json",
                     [[op.name, seen] for op, seen in zip(ops, answers)])
    else:
        setups = _setup_samples(args, setup_s)
        print("set-ups (s): " + " ".join(f"{t:.4f}" for t in setups),
              file=sys.stderr)
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "ops_per_s": _metric(ops_per_s, "ops/s"),
            "op_p50_ms": _metric(op_p50_s * 1000, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
