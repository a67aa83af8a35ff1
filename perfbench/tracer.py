"""Run one chordlab CLI command in-process with its layers wrapped.

    python3 perfbench/tracer.py OUT.json ARGS...

behaves like ``chordlab ARGS...`` (same stdout, same exit code) and
writes the aggregated spans to OUT.json.  Every function in LAYERS is
replaced in each chordlab namespace that binds it, including functions
held in module-level dicts such as the CLI's suite table.  Spans are
aggregated per caller -> callee edge while the command runs, so memory
does not grow with the call count.  A span's self time is its duration
minus the durations of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, function or Class for its constructions, end-to-end effect)
LAYERS = (
    ("cli", "main", "parse and render: wall_s on sl2-eval (eval rows), little elsewhere"),
    ("verify", "dense_sign_matrix", "wall_s on sampled-order8 only"),
    ("verify", "suite_four_term_diagrams", "wall_s on diagram-4t-exhaustive and sampled-order8"),
    ("verify", "suite_mutation", "wall_s on diagram-4t-exhaustive only"),
    ("verify", "suite_four_term_graphs", "wall_s on graph-tables only"),
    ("verify", "suite_two_term", "wall_s on graph-tables only"),
    ("verify", "suite_parity", "wall_s on sampled-order8 only"),
    ("verify", "suite_conjecture", "wall_s on sl2-eval only"),
    ("verify", "suite_wheel_prism", "wall_s on sl2-eval only"),
    ("fourterm", "diagram_four_term", "wall_s on diagram-4t-exhaustive only"),
    ("fourterm", "four_term_words", "wall_s on diagram-4t-exhaustive, less on sampled-order8"),
    ("diagrams", "canonical_word_bytes", "wall_s on diagram-4t-exhaustive, less on sl2-eval, none on graph-tables"),
    ("diagrams", "ChordDiagram", "wall_s on diagram-4t-exhaustive, less on sl2-eval and sampled-order8"),
    ("diagrams", "enumerate_diagrams", "wall_s on diagram-4t-exhaustive and sl2-eval"),
    ("diagrams", "find_shares", "wall_s on diagram-4t-exhaustive only"),
    ("diagrams", "random_diagram", "wall_s on sampled-order8 only"),
    ("diagrams", "parse_diagram", "wall_s on sl2-eval, little on diagram-4t-exhaustive"),
    ("graphs", "gf2_rank", "wall_s on graph-tables only"),
    ("graphs", "tilde_mask", "wall_s on graph-tables only"),
    ("graphs", "prime_mask", "wall_s on graph-tables only"),
    ("graphs", "interleave_rows", "wall_s on diagram-4t-exhaustive, less on sampled-order8 and sl2-eval"),
    ("graphs", "graph_canonical_mask", "wall_s on sl2-eval (table1, wheel-prism) only"),
    ("graphs", "realize_diagram", "wall_s on sl2-eval (table1, wheel-prism) only"),
    ("invariants", "r_k", "wall_s on diagram-4t-exhaustive and sl2-eval"),
    ("invariants", "r_k_oriented", "wall_s on sl2-eval (eval rk), little on diagram-4t-exhaustive"),
    ("invariants", "r_k_graph", "wall_s on graph-tables only"),
    ("invariants", "sl2_projected", "wall_s on sl2-eval only"),
    ("_bulk", "hamiltonian_cycle_sums", "wall_s and peak_rss_mb on sampled-order8 only"),
    ("sl2", "sl2_recursive", "wall_s on sl2-eval only"),
    ("sl2", "sl2_oracle", "wall_s on sl2-eval only"),
    ("partitions", "partition_log_full", "wall_s on graph-tables and sl2-eval"),
    ("polynomials", "IntPolynomial", "wall_s on sl2-eval only"),
    ("table1", "recompute", "wall_s on sl2-eval only"),
)

# memoised entry points and the memo table each one fills; a call that
# leaves the table's size unchanged counts as a hit
MEMOS = {
    "invariants.r_k": ("invariants", "_RK_MEMO"),
    "invariants.sl2_projected": ("invariants", "_PROJECTED_MEMO"),
    "sl2.sl2_recursive": ("sl2", "_SL2_MEMO"),
    "sl2.sl2_oracle": ("sl2", "_ORACLE_MEMO"),
}

BULK = "_bulk.hamiltonian_cycle_sums"


def layer_key(module: str, name: str) -> str:
    return f"{module}.{name}"


def metric_prefix(key: str) -> str:
    """Metric names must start with a letter: `_bulk` reads `bulk`."""
    return key.lstrip("_")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for module, name, _ in LAYERS:
        key = layer_key(module, name)
        p = metric_prefix(key)
        out += [(f"{p}.calls", "count", "lower"), (f"{p}.total_s", "s", "lower"),
                (f"{p}.self_s", "s", "lower")]
        if key in MEMOS:
            out += [(f"{p}.hit_ratio", "ratio", "higher"),
                    (f"{p}.memo_before", "count", "lower"),
                    (f"{p}.memo_after", "count", "lower")]
        if key == BULK:
            out += [(f"{p}.rows", "count", "lower"),
                    (f"{p}.bytes_computed", "B", "lower"),
                    (f"{p}.ops_computed", "count", "lower")]
    out += [("trace.untraced_wall_s", "s", "lower"), ("trace.traced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


class Recorder:
    """Spans aggregated per (caller, callee) edge: [calls, total, self].

    ``total`` counts only outermost spans of the callee, so recursion is
    not counted twice.
    """

    def __init__(self):
        self.stack = [["<root>", 0.0]]
        self.edges: dict[tuple[str, str], list] = {}
        self.depth: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.bulk = {"rows": 0, "bytes_computed": 0, "ops_computed": 0}

    def enter(self, key):
        frame = [key, 0.0]
        self.stack.append(frame)
        self.depth[key] = self.depth.get(key, 0) + 1
        return frame

    def leave(self, frame, dt, counted):
        key = frame[0]
        self.stack.pop()
        self.depth[key] -= 1
        parent = self.stack[-1]
        parent[1] += dt
        edge = self.edges.get((parent[0], key))
        if edge is None:
            edge = self.edges[(parent[0], key)] = [0, 0.0, 0.0]
        edge[0] += counted
        if not self.depth[key]:
            edge[1] += dt
        edge[2] += dt - frame[1]


def _wrap_call(rec: Recorder, key: str, fn, memo: dict | None):
    clock = time.perf_counter
    bulk = key == BULK

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if memo is not None:
            before = len(memo)
        if bulk:
            _count_bulk(rec, args[0])
        frame = rec.enter(key)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(frame, clock() - t0, 1)
            if memo is not None and len(memo) == before:
                rec.hits[key] = rec.hits.get(key, 0) + 1

    return wrapper


def _wrap_generator(rec: Recorder, key: str, fn):
    """Time every resumption, so the span covers the iteration."""
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        first = 1
        while True:
            frame = rec.enter(key)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.leave(frame, clock() - t0, first)
                first = 0
            yield item

    return wrapper


def _count_bulk(rec: Recorder, wmats) -> None:
    """Work of the batched DP computed from the input shape (B, n, n):
    an int64 copy of the input and a (2^n, n, B) path table, and one
    multiply and one add per (odd mask, v in mask, u not in mask)."""
    batch, n = len(wmats), len(wmats[0]) if len(wmats) else 0
    rec.bulk["rows"] += batch
    rec.bulk["bytes_computed"] += 8 * batch * (n * n + (1 << n) * n)
    steps = sum(
        bin(mask).count("1") * (n - bin(mask).count("1"))
        for mask in range(1, 1 << n, 2)
    )
    rec.bulk["ops_computed"] += 2 * batch * steps


def install(rec: Recorder) -> dict[str, int]:
    """Wrap every layer; return each memo's size before the command."""
    import chordlab  # noqa: F401  (loads every submodule)
    import chordlab.cli

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "chordlab" or n.startswith("chordlab."))]
    for module, name, _ in LAYERS:
        key = layer_key(module, name)
        owner = sys.modules[f"chordlab.{module}"]
        orig = getattr(owner, name)
        if inspect.isclass(orig):
            orig.__init__ = _wrap_call(rec, key, orig.__init__, None)
            continue
        if inspect.isgeneratorfunction(orig):
            new = _wrap_generator(rec, key, orig)
        else:
            new = _wrap_call(rec, key, orig, _memo(key) if key in MEMOS else None)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                elif isinstance(val, dict):
                    for k, v in val.items():
                        if v is orig:
                            val[k] = new
    return {key: len(_memo(key)) for key in MEMOS}


def _memo(key: str) -> dict:
    module, attr = MEMOS[key]
    return getattr(sys.modules[f"chordlab.{module}"], attr)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    memo_before = install(rec)
    import chordlab.cli

    rc = chordlab.cli.main(cli_args)
    sys.stdout.flush()
    record = {
        "edges": [[c, k, *v] for (c, k), v in sorted(rec.edges.items())],
        "hits": rec.hits,
        "memo": {k: [memo_before[k], len(_memo(k))] for k in MEMOS},
        "bulk": rec.bulk,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
