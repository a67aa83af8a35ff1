"""Command-line surface: eval, table1, verify, enumerate.

Exit codes: 0 success / no violations, 1 violations or table mismatch,
2 input parse or i/o error, 3 invalid parameters or bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import table1 as table1_mod
from . import verify as verify_mod
from .diagrams import (
    DiagramError,
    canonical_code,
    enumerate_diagrams,
    format_diagram,
    parse_diagram,
)
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
    MIN_K,
    MIN_L,
    e_l_parity,
    r_k,
    r_k_graph,
    sl2_projected,
    w_c,
)
from .polynomials import IntPolynomial
from .sl2 import sl2_oracle, sl2_recursive

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_PARAMS = 3

MAX_DIAGRAM_ORDER = 8
MAX_GRAPH_ORDER = 6


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
    p_verify.add_argument("suite", choices=_VERIFY_SUITES)
    p_verify.add_argument("--invariant")
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--l", type=int)
    p_mode = p_verify.add_mutually_exclusive_group()
    p_mode.add_argument("--exhaustive", action="store_true")
    p_mode.add_argument("--sample", type=int, metavar="N")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--jobs", type=int, default=None)

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


def _gather_inputs(args) -> list[str]:
    if (args.input is None) == (args.file is None):
        raise ParamError("provide exactly one of INPUT or --file")
    if args.input is not None:
        return [args.input]
    if args.file == "-":
        ctx = contextlib.nullcontext(sys.stdin)
    else:
        ctx = open(args.file)
    with ctx as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    return [ln for ln in lines if ln]


def _graph_code(g: SimpleGraph) -> str:
    return _graph_line(SimpleGraph.from_edge_mask(g.n, graph_canonical_mask(g)))


def _diagram_code(d) -> str:
    return canonical_code(d).decode("ascii")


# per input kind: invariant name -> its value on one parsed input
_DIAGRAM_EVAL = {
    "rk": lambda d, args: r_k(d, args.k),
    "el-parity": lambda d, args: e_l_parity(intersection_graph(d), args.l),
    "wc": lambda d, args: w_c(intersection_graph(d)),
    "sl2": lambda d, args: sl2_oracle(d),
    "sl2-recursive": lambda d, args: sl2_recursive(d),
    "sl2-projected": lambda d, args: sl2_projected(d),
}
_GRAPH_EVAL = {
    "wc": lambda g, args: w_c(g),
    "el-parity": lambda g, args: e_l_parity(g, args.l),
    "rk-graph": lambda g, args: r_k_graph(g, args.k),
}
# invariant name -> (the flag it requires, that flag's least value)
_EVAL_FLAGS = {"rk": ("k", MIN_K), "rk-graph": ("k", MIN_K), "el-parity": ("l", MIN_L)}


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
    taken = _EVAL_FLAGS.get(name)
    for flag in ("k", "l"):
        if getattr(args, flag) is not None and (taken is None or taken[0] != flag):
            raise ParamError(f"invariant {name!r} does not take --{flag}")
    if taken is not None:
        flag, low = taken
        verify_mod.require_at_least(name, flag, getattr(args, flag), low)
    rows = []
    for text in _gather_inputs(args):
        obj = parse(text)
        if obj.n > MAX_DIAGRAM_ORDER:
            raise ParamError(f"{kind} order {obj.n} exceeds ceiling {MAX_DIAGRAM_ORDER}")
        rows.append((text, code_of(obj), table[name](obj, args)))
    _print_eval(rows, args)
    return EXIT_OK


def _print_eval(rows, args) -> None:
    if args.format == "text":
        for _, code, value in rows:
            out = value.pretty() if isinstance(value, IntPolynomial) else str(value)
            print(f"{out}\t{code}")
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
        writer.writerow(["input", "code", "invariant", "value"])
        for text, code, value in rows:
            out = value.pretty() if isinstance(value, IntPolynomial) else str(value)
            writer.writerow([text, code, args.invariant, out])


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
    if args.jobs is not None:
        jobs = args.jobs
    else:
        jobs = int(os.environ.get("CHORDLAB_JOBS", "1"))
    if jobs < 1:
        raise ParamError("--jobs must be at least 1")
    return clamp_jobs(jobs, os.cpu_count())


def clamp_jobs(jobs: int, cpus: int | None) -> int:
    """Worker processes to start for --jobs: never more than the CPUs
    (one when the count is unknown).  Output does not depend on it."""
    return min(jobs, cpus or 1)


# per suite: the flags it takes ("?" marks an optional one), its default
# --invariant (which sets an optional --k to order // 2), and its ceilings
# on the order (--n, else 2k) when sampled and when exhaustive
_VERIFY_SUITES = {
    "four-term-diagrams": ("invariant? n k? l? sample?", "rk", MAX_DIAGRAM_ORDER, 6),
    "four-term-graphs": ("invariant? n k? l?", "rk-graph", None, MAX_GRAPH_ORDER),
    "two-term": ("invariant? n", "wc", None, MAX_GRAPH_ORDER),
    "mutation": ("n", None, None, 6),
    "parity": ("n k sample?", None, MAX_DIAGRAM_ORDER, 6),
    "conjecture": ("k sample?", None, MAX_DIAGRAM_ORDER, 6),
    "wc-identity": ("k", None, None, 6),
    "oracle-equivalence": ("n sample?", None, MAX_DIAGRAM_ORDER, 6),
    "wheel-prism": ("", None, None, None),
}


def _verify_params(args) -> dict:
    """Keyword arguments of the suite's function, from its table row."""
    flags, default, sampled_ceiling, ceiling = _VERIFY_SUITES[args.suite]
    row = flags.split()
    taken = [flag.rstrip("?") for flag in row]
    for name in ("invariant", "n", "k", "l", "sample"):
        if name not in taken and getattr(args, name) is not None:
            raise ParamError(f"suite {args.suite!r} does not take --{name}")
    params: dict = {}
    for flag in row:
        name = flag.rstrip("?")
        value = getattr(args, name)
        if value is None and name == flag:
            raise ParamError(f"suite {args.suite!r} requires --{name}")
        params["order" if name == "n" else name] = value
    if "k" in row:
        verify_mod.require_at_least(args.suite, "k", params["k"], MIN_K)
    if "invariant" in params:
        params["invariant"] = params["invariant"] or default
        if params["invariant"] == default and params.get("k", 0) is None:
            params["k"] = params["order"] // 2
    if "sample" in params:
        count = params.pop("sample")
        params["mode"] = "exhaustive" if count is None else "sample"
        params.update(count=count or 0, seed=args.seed)
    if ceiling is not None:
        order = params["order"] if "order" in params else 2 * params["k"]
        if sampled_ceiling is not None:
            _check_order(order, sampled_ceiling)
        if params.get("mode", "exhaustive") == "exhaustive":
            _check_order(order, ceiling)
    return params


def _check_order(n: int, ceiling: int) -> None:
    if n < 0 or n > ceiling:
        raise ParamError(f"order {n} outside brute-force ceiling {ceiling}")


_SUITE_FUNCS = {
    "four-term-diagrams": verify_mod.suite_four_term_diagrams,
    "four-term-graphs": verify_mod.suite_four_term_graphs,
    "two-term": verify_mod.suite_two_term,
    "mutation": verify_mod.suite_mutation,
    "parity": verify_mod.suite_parity,
    "conjecture": verify_mod.suite_conjecture,
    "wc-identity": verify_mod.suite_wc_identity,
    "oracle-equivalence": verify_mod.suite_oracle_equivalence,
}


def _cmd_verify(args) -> int:
    params = _verify_params(args)
    jobs = _default_jobs(args)
    info: list[dict] = []
    if args.suite == "wheel-prism":
        report, info = verify_mod.suite_wheel_prism()
    elif jobs > 1 and params.get("mode", "exhaustive") == "exhaustive":
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            suite = _SUITE_FUNCS[args.suite]
            futures = [
                pool.submit(suite, **params, shard=(i, jobs)) for i in range(jobs)
            ]
            report = verify_mod.merge_reports([f.result() for f in futures])
    else:
        report = _SUITE_FUNCS[args.suite](**params)
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
        if mode not in ("basepointed", "up-to-rotation"):
            raise ParamError(f"unknown diagram mode {mode!r}")
        _check_order(n, MAX_DIAGRAM_ORDER)
        lines = sorted(format_diagram(d) for d in enumerate_diagrams(n, mode))
    else:
        mode = args.mode or "up-to-iso"
        if mode not in ("labeled", "up-to-iso"):
            raise ParamError(f"unknown graph mode {mode!r}")
        # labeled mode is kept at 6 so the sorted output stays in memory
        _check_order(n, MAX_GRAPH_ORDER if mode == "labeled" else MAX_DIAGRAM_ORDER)
        lines = sorted(_graph_line(g) for g in enumerate_graphs(n, mode))
    for ln in lines:
        print(ln)
    return EXIT_OK


def _graph_line(g: SimpleGraph) -> str:
    rows = format_graph(g).splitlines()[1:]
    return f"{g.n}:" + "/".join(rows)


if __name__ == "__main__":
    sys.exit(main())
