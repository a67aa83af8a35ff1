"""Command-line surface: eval, table1, verify, enumerate.

Exit codes: 0 success / no violations, 1 violations or table mismatch,
2 input parse or i/o error, 3 invalid parameters or bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import itertools
import json
import os
import sys
from typing import Iterator

from . import table1 as table1_mod
from . import verify as verify_mod
from .diagrams import (
    MAX_DIAGRAM_ORDER,
    DiagramError,
    canonical_code,
    enumerate_diagrams,
    format_diagram,
    parse_diagram,
    require_order,
)
from .fourterm import _CLASS_WINDOW
from .graphs import (
    GraphError,
    SimpleGraph,
    enumerate_graphs,
    format_graph,
    graph_canonical_mask,
    intersection_graph,
    parse_graph,
)
from .invariants import (
    e_l_parity,
    r_k,
    r_k_graph,
    sl2_projected_batch,
    w_c,
)
from .polynomials import IntPolynomial
from .sl2 import sl2_oracle, sl2_recursive

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_PARAMS = 3


class ParamError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are parameter errors
        raise ParamError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chordlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an invariant on inputs")
    p_eval.add_argument("input", nargs="?", help="diagram word or graph edge list")
    p_eval.add_argument("--file", help="read inputs from file ('-' for stdin)")
    p_eval.add_argument("--graph", action="store_true", help="inputs are graphs")
    p_eval.add_argument("--invariant", required=True)
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--l", type=int)
    p_eval.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_table = sub.add_parser("table1", help="recompute the reference value table")
    p_table.add_argument(
        "--strict-published",
        action="store_true",
        help="require literal equality even for documented sign misprints",
    )

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    # the suites are verify's suite_* functions, in definition order
    suites = (name for name in vars(verify_mod) if name.startswith("suite_"))
    p_verify.add_argument("suite", choices=[s[6:].replace("_", "-") for s in suites])
    p_verify.add_argument("--invariant")
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--l", type=int)
    p_mode = p_verify.add_mutually_exclusive_group()
    p_mode.add_argument("--exhaustive", action="store_true")
    p_mode.add_argument("--sample", type=int, metavar="N")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--jobs", type=int, default=1)

    p_enum = sub.add_parser("enumerate", help="list diagrams or graphs")
    p_enum.add_argument("kind", choices=("diagrams", "graphs"))
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--mode")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
    except (DiagramError, GraphError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print(f"parse error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ParamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# eval


@contextlib.contextmanager
def _inputs(args) -> Iterator[Iterator[str]]:
    """The input texts: INPUT as given, or the non-blank lines of --file
    with '#' comments stripped, read as they are consumed."""
    if (args.input is None) == (args.file is None):
        raise ParamError("provide exactly one of INPUT or --file")
    if args.input is not None:
        yield iter([args.input])
        return
    if args.file == "-":
        ctx = contextlib.nullcontext(sys.stdin)
    else:
        ctx = open(args.file)
    with ctx as fh:
        lines = (ln.split("#", 1)[0].strip() for ln in fh)
        yield (ln for ln in lines if ln)


def _graph_code(g: SimpleGraph) -> str:
    return _graph_line(SimpleGraph.from_edge_mask(g.n, graph_canonical_mask(g)))


def _diagram_code(d) -> str:
    return canonical_code(d).decode("ascii")


def _each(f):
    """A list evaluator from a one-input one."""
    return lambda objs, args: [f(obj, args) for obj in objs]


# per input kind: invariant name -> its values on the list of parsed inputs
_DIAGRAM_EVAL = {
    "rk": _each(lambda d, args: r_k(d, args.k)),
    "el-parity": _each(lambda d, args: e_l_parity(intersection_graph(d), args.l)),
    "wc": _each(lambda d, args: w_c(intersection_graph(d))),
    "sl2": _each(lambda d, args: sl2_oracle(d)),
    "sl2-recursive": _each(lambda d, args: sl2_recursive(d)),
    "sl2-projected": lambda ds, args: sl2_projected_batch(ds),
}
_GRAPH_EVAL = {
    "wc": _each(lambda g, args: w_c(g)),
    "el-parity": _each(lambda g, args: e_l_parity(g, args.l)),
    "rk-graph": _each(lambda g, args: r_k_graph(g, args.k)),
}


def _cmd_eval(args) -> int:
    name = args.invariant
    kind, table, parse, code_of = (
        ("graph", _GRAPH_EVAL, parse_graph, _graph_code)
        if args.graph
        else ("diagram", _DIAGRAM_EVAL, parse_diagram, _diagram_code)
    )
    if name not in table:
        raise ParamError(
            f"invariant {name!r} not valid for this input kind "
            f"(choose from {tuple(table)})"
        )
    verify_mod.check_flags(name, args.k, args.l)
    # parsed and evaluated a window at a time, so memory does not grow
    # with the file; a short window is the last one
    with _inputs(args) as texts:
        for start in itertools.count(0, _CLASS_WINDOW):
            window = list(itertools.islice(texts, _CLASS_WINDOW))
            objs = []
            for text in window:
                objs.append(parse(text))
                require_order(f"{kind} input", objs[-1].n, MAX_DIAGRAM_ORDER)
            values = table[name](objs, args)
            _print_eval(zip(window, map(code_of, objs), values), args, header=not start)
            if len(window) < _CLASS_WINDOW:
                return EXIT_OK


def _print_eval(rows, args, header: bool) -> None:
    if args.format == "text":
        for _, code, value in rows:
            print(f"{value}\t{code}")
    elif args.format == "json":
        for text, code, value in rows:
            rec = {"input": text, "code": code, "invariant": args.invariant}
            if isinstance(value, IntPolynomial):
                rec["value"] = {"pretty": value.pretty(), "coeffs": list(value.coeffs)}
            else:
                rec["value"] = value
            print(json.dumps(rec, sort_keys=True))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if header:
            writer.writerow(["input", "code", "invariant", "value"])
        for text, code, value in rows:
            writer.writerow([text, code, args.invariant, str(value)])


# ---------------------------------------------------------------------------
# table1


def _cmd_table1(args) -> int:
    results = table1_mod.recompute()
    mismatch = False
    for row in results:
        for cell in row.cells:
            status = cell.status
            if status == "MISMATCH" or (
                args.strict_published and status == "sign-misprint"
            ):
                mismatch = True
            print(
                f"row {row.index} k={row.k} {cell.name:<10} "
                f"computed={cell.computed:<40} published={cell.published:<40} {status}"
            )
    print("table1:", "MISMATCH" if mismatch else "ok")
    return EXIT_VIOLATIONS if mismatch else EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _default_jobs(args) -> int:
    if args.jobs < 1:
        raise ParamError("--jobs must be at least 1")
    return clamp_jobs(args.jobs, os.cpu_count())


def clamp_jobs(jobs: int, cpus: int | None) -> int:
    """Worker processes to start for --jobs: never more than the CPUs
    (one when the count is unknown).  Output does not depend on it."""
    return min(jobs, cpus or 1)


def _verify_params(args, suite) -> dict:
    """Keyword arguments of the suite function, from the parameters of its
    signature: each is the flag of its name (--n for `order`), required
    when it has no default.  A relation suite's invariant defaults to the
    first of its names in verify, which sets an omitted --k to order // 2
    (refused only after the order passes, with a note that it was not
    given); the suites check orders and report unknown invariants."""
    taken = {
        "n" if name == "order" else name: param
        for name, param in inspect.signature(suite).parameters.items()
        if name != "shard"
    }
    for flag in ("invariant", "n", "k", "l", "sample"):
        if flag not in taken and getattr(args, flag) is not None:
            raise ParamError(f"suite {args.suite!r} does not take --{flag}")
    params: dict = {}
    for flag, param in taken.items():
        value = getattr(args, flag)
        if value is None and param.default is param.empty and flag != "invariant":
            raise ParamError(f"suite {args.suite!r} requires --{flag}")
        params[param.name] = value
    if "invariant" in params:
        known = verify_mod.SUITE_INVARIANTS[args.suite]
        invariant = params["invariant"] = params["invariant"] or known[0]
        default_k = invariant == known[0] and params.get("k", 0) is None
        if default_k:
            params["k"] = params["order"] // 2
        if invariant in known:
            try:
                verify_mod.check_flags(invariant, params.get("k"), params.get("l"))
            except ValueError as exc:
                # without --l, the default invariant can only refuse its
                # --k; a bad order is reported as such, not as that --k
                if default_k and params.get("l") is None:
                    verify_mod.check_order(args.suite, **params)
                    note = "--k not given, so it defaults to --n // 2"
                    raise ParamError(f"{exc} ({note})") from exc
                raise
    return params


def _cmd_verify(args) -> int:
    # looked up when it runs, so a rebound verify.suite_* is the one called
    suite = getattr(verify_mod, "suite_" + args.suite.replace("-", "_"))
    params = _verify_params(args, suite)
    jobs = _default_jobs(args)
    info: list[dict] = []
    pooled = jobs > 1 and params.get("sample") is None
    if args.suite == "wheel-prism":
        report, info = suite()
    elif pooled and verify_mod.accepts_order(args.suite, **params):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(suite, **params, shard=(i, jobs)) for i in range(jobs)
            ]
            report = verify_mod.merge_reports([f.result() for f in futures])
    else:
        # an order the suite refuses is refused here: no worker starts
        report = suite(**params)
    for rec in info:
        print(json.dumps(rec, sort_keys=True))
    print(report.json_lines())
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args) -> int:
    n = args.n
    if args.kind == "diagrams":
        mode = args.mode or "up-to-rotation"
        lines = sorted(format_diagram(d) for d in enumerate_diagrams(n, mode))
    else:
        mode = args.mode or "up-to-iso"
        lines = sorted(_graph_line(g) for g in enumerate_graphs(n, mode))
    for ln in lines:
        print(ln)
    return EXIT_OK


def _graph_line(g: SimpleGraph) -> str:
    rows = format_graph(g).splitlines()[1:]
    return f"{g.n}:" + "/".join(rows)


if __name__ == "__main__":
    sys.exit(main())
