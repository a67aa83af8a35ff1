"""Named verification suites over diagrams and graphs.

Each suite returns a :class:`chordlab.fourterm.VerificationReport`; the
CLI renders these as JSON lines.  Suites accept an optional
``shard=(index, count)`` so independent workers can split the main loop
and have their reports merged deterministically afterwards.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from operator import itemgetter
from typing import Callable, Sequence

from ._bulk import hamiltonian_cycle_sums
from ._np import np
from .diagrams import (
    _KINDS,
    MAX_EXHAUSTIVE_ORDER,
    MAX_GRAPH_ORDER,
    ChordDiagram,
    _trusted_diagram,
    canonical_code,
    canonical_word_bytes,
    class_keyer,
    enumerate_diagrams,
    require_order,
    share_moves,
)
from .fourterm import (
    _CLASS_WINDOW,
    DEFAULT_SIGNS,
    VerificationReport,
    by_class,
    diagram_source,
    relation_sums,
    sharded,
    signed_sum,
)
from .graphs import (
    SimpleGraph,
    format_graph,
    graph_four_term_masks,
    hamiltonian_ruled_out,
    interleave_rows,
    intersection_graph,
    pair_index_table,
    pfaffian_parities,
    tilde_mask,
)
from .invariants import (
    MIN_K,
    MIN_L,
    e_l_parity,
    r_k_graph_core,
    r_k_oriented,
    r_k_via_wc,
    sl2_graph_extension_check,
    sl2_projected_batch,
)
from .sl2 import sl2_oracle, sl2_recursive


def merge_reports(reports: Sequence[VerificationReport]) -> VerificationReport:
    head = reports[0]
    merged = VerificationReport(invariant=head.invariant, order=head.order)
    for rep in reports:
        merged.checked += rep.checked
        merged.violations.extend(rep.violations)
    return merged.finalize()


# ---------------------------------------------------------------------------
# step-weight matrices and batched evaluation helpers


def dense_sign_matrix(words) -> np.ndarray:
    """Step-weight matrices of the canonically oriented intersection graphs
    of a batch of equal-length words, each with chord labels 0..n-1.

    Returns int8 of shape (B, n, n).  Chords u and v cross when exactly
    one end of v lies inside u's span; entry [g, u, v] is then +1 if that
    end is v's first end and -1 otherwise, so the matrix is antisymmetric.
    Its scalar twin, for any chord orientation, is :func:`graphs.sign_matrix`.
    """
    # each chord's two positions in order: a stable sort by label
    pos = np.argsort(np.asarray(words), axis=1, kind="stable")
    lo, hi = pos[:, 0::2], pos[:, 1::2]
    lo_u, hi_u = lo[:, :, None], hi[:, :, None]
    lo_v, hi_v = lo[:, None, :], hi[:, None, :]
    first_in = (lo_u < lo_v) & (lo_v < hi_u)
    cross = first_in != ((lo_u < hi_v) & (hi_v < hi_u))
    return cross * (2 * first_in.astype(np.int8) - 1)


# ---------------------------------------------------------------------------
# the named suites


_DP_WORDS = 1024  # words per batched DP call: bounds its per-level arrays


def _cycle_sums(window: np.ndarray) -> list[list[int]]:
    """Per item of a (W, 4, 2k) int8 window of raw words, each word's
    R_k: its signed Hamiltonian-cycle sum, by one batched DP over the
    window's words."""
    signed = dense_sign_matrix(window.reshape(-1, window.shape[-1]))
    return hamiltonian_cycle_sums(signed).reshape(len(window), -1).tolist()


def suite_four_term_diagrams(
    invariant: str,
    order: int,
    k: int | None = None,
    l: int | None = None,
    sample: int | None = None,
    seed: int = 0,
    shard: tuple[int, int] | None = None,
) -> VerificationReport:
    """Signed 4-term sums of a named invariant over diagram quadruples,
    through the one diagram loop :func:`fourterm.relation_sums`.

    Sampled R_k at order 2k is evaluated by the batched Hamiltonian DP
    on the int8 windows of :func:`fourterm.diagram_source`, every other
    check by canonical class.
    """
    dp = invariant == "rk" and sample is not None and k is not None and 2 * k == order
    # the source first, so its ceiling is checked before the invariant
    window = _DP_WORDS // 4 if dp else _CLASS_WINDOW
    quads = diagram_source(order, sample, seed, shard, True, window)
    name, f, mod2 = _diagram_invariant(invariant, k, l)
    evaluate = _cycle_sums if dp else by_class(lambda ds: [f(d) for d in ds])
    return relation_sums(name, order, quads, evaluate, signed_sum(mod2=mod2))


def suite_four_term_graphs(
    invariant: str,
    order: int,
    k: int | None = None,
    l: int | None = None,
    shard: tuple[int, int] | None = None,
) -> VerificationReport:
    """Graph 4-term sums over all labeled graphs of the given order."""
    name, table, mod2 = _graph_invariant_table(invariant, order, k, l)
    return masked_relation(name, table, order, _four_term_masks, mod2, shard)


def suite_two_term(
    invariant: str, order: int, shard: tuple[int, int] | None = None
) -> VerificationReport:
    """f(g) == f(g~) for all labeled graphs and ordered vertex pairs."""
    # the graph invariants that need a --k or --l, which two-term does not take
    if invariant in GRAPH_INVARIANTS and invariant in INVARIANT_FLAGS:
        *most, last = SUITE_INVARIANTS["two-term"]
        raise ValueError(f"two-term checks {', '.join(most)} or {last}, not {invariant}")
    name, table, mod2 = _graph_invariant_table(invariant, order, None, None)
    return masked_relation(name, table, order, _two_term_masks, mod2, shard)


def _four_term_masks(order: int, masks: np.ndarray, a: int, b: int):
    """The signed terms (g, g', g~, g~') of the graph 4-term relation at
    the ordered pair (a, b), for every edge mask of an array."""
    return tuple(zip(DEFAULT_SIGNS, graph_four_term_masks(order, masks, a, b)))


def _two_term_masks(order: int, masks: np.ndarray, a: int, b: int):
    """The signed terms (g, g~) of the 2-term relation at (a, b)."""
    return (1, masks), (-1, tilde_mask(order, masks, a, b))


def masked_relation(
    name: str,
    table: np.ndarray,
    order: int,
    terms: Callable,
    mod2: bool = False,
    shard: tuple[int, int] | None = None,
) -> VerificationReport:
    """Signed sums of an edge-mask value table over a graph relation, for
    every labeled graph and ordered vertex pair.

    ``terms(order, masks, a, b)`` gives the (sign, masks) pairs of the
    relation at the ordered pair (a, b) for a chunk of masks, (+1, masks)
    first, then each sign +-1; its moves run as numpy gathers, and graphs
    are only materialized to describe
    violations.  With ``mod2`` the signed sum is reduced mod 2 (for 0/1
    parity invariants).
    """
    report = VerificationReport(invariant=name, order=order)
    for masks in _mask_chunks(order, shard):
        report.checked += len(masks) * order * (order - 1)
        for a, b in itertools.permutations(range(order), 2):
            signed = terms(order, masks, a, b)
            total = table[signed[0][1]]
            for sign, m in signed[1:]:
                (np.add if sign > 0 else np.subtract)(total, table[m], out=total)
            if mod2:
                total &= 1
            for i in np.flatnonzero(total):
                texts = [_graph_text(order, int(m[i])) for _, m in signed]
                report.add_violation(texts, int(total[i]))
    return report.finalize()


# labeled graphs are handled as edge masks in chunks of at most this many,
# which bounds the memory of the batched tables and move loops
_MASK_CHUNK = 2048


def _mask_chunks(order: int, shard: tuple[int, int] | None = None):
    """Edge masks of every labeled graph of the order kept by the shard,
    as int64 arrays of at most _MASK_CHUNK masks.  Raises ValueError at
    the call, above :data:`~chordlab.diagrams.MAX_GRAPH_ORDER`."""
    require_order("labeled graphs", order, MAX_GRAPH_ORDER)
    index, count = shard or (0, 1)
    total = 1 << order * (order - 1) // 2
    stride = count * _MASK_CHUNK
    lows = range(index, total, stride)
    return (np.arange(lo, min(lo + stride, total), count) for lo in lows)


def check_order(
    suite: str,
    order: int | None = None,
    k: int | None = None,
    sample: int | None = None,
    **_,
) -> None:
    """Raise ValueError when the source of the named suite refuses the
    order (2k for the suites without --n), by the check it makes before
    work."""
    order = 2 * k if order is None else order
    sources = {
        "mutation": _check_mutation_order,
        "four-term-graphs": _mask_chunks,
        "two-term": _mask_chunks,
    }
    if suite in sources:
        return sources[suite](order)
    four_term = suite == "four-term-diagrams"
    diagram_source(order, sample, 0, None, four_term, _CLASS_WINDOW)


def accepts_order(suite: str, **params) -> bool:
    """Whether :func:`check_order` passes."""
    try:
        check_order(suite, **params)
    except ValueError:
        return False
    return True


def _graph_text(order: int, mask: int) -> str:
    return format_graph(SimpleGraph.from_edge_mask(order, mask))


_check_mutation_order = partial(require_order, "mutation", ceiling=MAX_EXHAUSTIVE_ORDER)


def suite_mutation(
    order: int, shard: tuple[int, int] | None = None
) -> VerificationReport:
    """Mutations must preserve the labeled intersection graph and R_k.

    A mutant is checked against its class representative's crossing
    rows first.  R_k counts Hamiltonian cycles of those rows' graph at
    order 2k, so when :func:`~chordlab.graphs.hamiltonian_ruled_out`
    holds for the representative's rows, its R_k and that of every
    mutant with the same rows is 0, and no word of the class is keyed.
    Otherwise R_k is evaluated once per class, on the class
    representative and on the first mutant met of each other class, by
    the cycle DP (``r_k_oriented``) under a class-keyed memo.  The run
    keys each distinct relabeled mutant it evaluates once, through one
    :func:`~chordlab.diagrams.class_keyer`: the (2n-1)!! basepointed
    words fit its memo at every order up to the ceiling.  The mutants
    are the class word read through the index maps of
    :func:`~chordlab.diagrams.share_moves`, three per share; no Share is
    built.  Violation records carry the keys of the raw words.
    """
    _check_mutation_order(order)
    report = VerificationReport(invariant="mutation", order=order)
    k = order // 2 if order % 2 == 0 and order >= 4 else None
    class_key = class_keyer()
    rk_by_class: dict[bytes, int] = {}

    def rk_of(word: tuple[int, ...]) -> int:
        key = class_key(word)
        rk = rk_by_class.get(key)
        if rk is None:
            rk = rk_by_class[key] = r_k_oriented(ChordDiagram(word), k, 0)
        return rk

    for d in sharded(enumerate_diagrams(order, "up-to-rotation"), shard):
        word = d.word
        base_rows = interleave_rows(word)
        # no Hamiltonian cycle: R_k is 0 here and on every same-rows mutant
        keyed = k and not hamiltonian_ruled_out(base_rows)
        base_rk = rk_of(word) if keyed else None
        # different shares often re-glue to the same word
        verdicts: dict[tuple[int, ...], bool] = {}
        for mask, _, moves in share_moves(word):
            report.checked += len(moves)
            for kind, move in zip(_KINDS, moves):
                w = move(word)
                bad = verdicts.get(w)
                if bad is None:
                    bad = interleave_rows(w) != base_rows
                    if not bad and keyed:
                        bad = rk_of(w) != base_rk
                    verdicts[w] = bad
                if bad:
                    chords = [ch for ch in range(d.n) if mask >> ch & 1]
                    report.add_violation(
                        [
                            canonical_code(d).decode("ascii"),
                            canonical_word_bytes(w).decode("ascii"),
                            f"share={chords}",
                            kind.value,
                        ],
                        "graph-or-rk-changed",
                    )
    return report.finalize()


def _per_class_suite(
    invariant: str,
    order: int,
    verdict: Callable[[list[ChordDiagram]], list[str | None]],
    sample: int | None = None,
    seed: int = 0,
    shard: tuple[int, int] | None = None,
) -> VerificationReport:
    """One check per weighted item of :func:`fourterm.diagram_source`,
    through :func:`fourterm.relation_sums`; one verdict per rotation class.

    ``verdict(ds)`` holds, per diagram in ``ds``, None when its class
    passes, else the text recorded as the violation's signed sum.
    Exhaustive runs give it each window's class representatives and key
    no word.  Sampled runs key each drawn diagram (:func:`fourterm.by_class`),
    and ``verdict`` runs once per window on the first diagram met of each
    class that is new in the run.
    """
    windows = diagram_source(order, sample, seed, shard, False, _CLASS_WINDOW)
    if sample is not None:
        evaluate = by_class(verdict)
    else:
        def evaluate(items):
            return zip(verdict([_trusted_diagram(w) for w, in items]))
    return relation_sums(invariant, order, windows, evaluate, itemgetter(0))


def _parity_verdicts(window: np.ndarray) -> list[list[str | None]]:
    """Per item of a (W, 1, 2k) int8 window of diagram words, whether
    R_k and the 2k-cycle count differ in parity: signed and plain
    batched DPs over the window."""
    signed = dense_sign_matrix(window[:, 0])
    odd = (hamiltonian_cycle_sums(signed) - hamiltonian_cycle_sums(np.abs(signed))) & 1
    return [["parity-differs" if bad else None] for bad in odd.tolist()]


def suite_parity(
    order: int,
    k: int,
    sample: int | None = None,
    seed: int = 0,
    shard: tuple[int, int] | None = None,
) -> VerificationReport:
    """R_k and the 2k-cycle count must have equal parity: by class when
    exhaustive, by the batched Hamiltonian DP when sampled."""
    require_at_least("parity", "k", k, MIN_K)
    name = f"r{k}-vs-e{2 * k}-parity"
    if sample is None:
        def verdict(ds):
            graphs = [intersection_graph(d) for d in ds]
            rk = [r_k_oriented(d, k, 0) for d in ds]
            same = [r & 1 == e_l_parity(g, 2 * k) for r, g in zip(rk, graphs)]
            return [None if ok else "parity-differs" for ok in same]
        return _per_class_suite(name, order, verdict, shard=shard)
    windows = diagram_source(order, sample, seed, shard, False, _DP_WORDS)
    if order != 2 * k:
        raise ValueError("sampled parity mode requires order == 2k")
    return relation_sums(name, order, windows, _parity_verdicts, itemgetter(0))


def suite_conjecture(
    k: int,
    sample: int | None = None,
    seed: int = 0,
    shard: tuple[int, int] | None = None,
) -> VerificationReport:
    """Coefficient of c^k in the projected sl2 value equals 2 R_k."""
    require_at_least("conjecture", "k", k, MIN_K)
    def verdict(ds):
        projected = sl2_projected_batch(ds)
        # each class reaches the verdict once: R_k by the DP, not keyed again
        rk = [r_k_oriented(d, k, 0) for d in ds]
        pairs = [(p.coefficient(k), 2 * r) for p, r in zip(projected, rk)]
        return [None if a == b else f"lhs={a} rhs={b}" for a, b in pairs]
    return _per_class_suite(f"conjecture-k{k}", 2 * k, verdict, sample, seed, shard)


def suite_wc_identity(
    k: int, shard: tuple[int, int] | None = None
) -> VerificationReport:
    """R_k equals the halved projected-indicator route on every
    basepointed 2k-chord diagram."""
    require_at_least("wc-identity", "k", k, MIN_K)
    def verdict(ds):
        pairs = [(r_k_oriented(d, k, 0), r_k_via_wc(d, k)) for d in ds]
        return [None if a == b else f"rk={a} via_wc={b}" for a, b in pairs]
    return _per_class_suite(f"rk-wc-identity-k{k}", 2 * k, verdict, shard=shard)


def suite_oracle_equivalence(
    order: int,
    sample: int | None = None,
    seed: int = 0,
    shard: tuple[int, int] | None = None,
) -> VerificationReport:
    """Contraction oracle equals the recursive sl2 evaluation."""
    def verdict(ds):
        pairs = [(sl2_oracle(d), sl2_recursive(d)) for d in ds]
        return [None if a == b else f"oracle={a} recursive={b}" for a, b in pairs]
    name = "sl2-oracle-vs-recursive"
    return _per_class_suite(name, order, verdict, sample, seed, shard)


def suite_wheel_prism() -> tuple[VerificationReport, list[dict]]:
    """Resolve the five-wheel and three-prism; verify values and agreement.

    Returns the report plus one info record per target for display.
    """
    report = VerificationReport(invariant="wheel-prism", order=6)
    info = []
    for rep in sl2_graph_extension_check():
        report.checked += 1
        info.append(
            {
                "target": rep.name,
                "rk": rep.rk,
                "value": rep.value.pretty(),
                "primitive": rep.primitive.pretty(),
                "resolutions": len(rep.values),
                "consistent": rep.consistent,
            }
        )
        if not rep.matches_expected or not rep.component_rk_ok:
            report.add_violation(
                [rep.name],
                f"value={rep.value} primitive={rep.primitive} rk={rep.rk}",
            )
    return report.finalize(), info


# ---------------------------------------------------------------------------
# invariant registries


def require_at_least(name: str, flag: str, value: int | None, low: int) -> None:
    """Raise ValueError unless --flag of invariant `name` is given and >= low."""
    if value is None:
        raise ValueError(f"{name} requires --{flag}")
    if value < low:
        raise ValueError(f"{name} requires --{flag} >= {low}, got {value}")


# the --invariant names of the relation suites, each suite's default first
DIAGRAM_INVARIANTS = ("rk", "el-parity", "sl2")
GRAPH_INVARIANTS = ("rk-graph", "el-parity", "wc", "gf2-rank", "edge-count")
# invariant name -> (the flag it takes, that flag's least value)
INVARIANT_FLAGS = {"rk": ("k", MIN_K), "rk-graph": ("k", MIN_K), "el-parity": ("l", MIN_L)}
# per relation suite, as the CLI names it: its --invariant names
SUITE_INVARIANTS = {
    "four-term-diagrams": DIAGRAM_INVARIANTS,
    "four-term-graphs": GRAPH_INVARIANTS,
    # two-term takes no --k or --l
    "two-term": tuple(n for n in GRAPH_INVARIANTS if n not in INVARIANT_FLAGS),
}


def check_flags(name: str, k: int | None, l: int | None) -> None:
    """Raise ValueError for a --k or --l the invariant does not take, or
    unless the flag it takes (:data:`INVARIANT_FLAGS`) is given and at
    least its least value."""
    given = {"k": k, "l": l}
    flag, low = INVARIANT_FLAGS.get(name, (None, None))
    for other, value in given.items():
        if value is not None and other != flag:
            raise ValueError(f"invariant {name!r} does not take --{other}")
    if flag is not None:
        require_at_least(name, flag, given[flag], low)


def _diagram_invariant(invariant: str, k: int | None, l: int | None):
    """(report name, invariant function, whether signed sums are mod 2)."""
    if invariant not in DIAGRAM_INVARIANTS:
        raise ValueError(f"unknown diagram invariant: {invariant!r}")
    check_flags(invariant, k, l)
    if invariant == "rk":
        # by_class meets each class once: R_k by the DP, not keyed again
        return f"r{k}", lambda d: r_k_oriented(d, k, 0), False
    if invariant == "el-parity":
        return f"e{l}-parity", lambda d: e_l_parity(intersection_graph(d), l), True
    return "sl2", sl2_recursive, False


def _graph_invariant_table(invariant: str, order: int, k: int | None, l: int | None):
    """(report name, int32 table over all edge masks, whether mod 2); the
    table is built chunk by chunk, and the chunks are taken first, so an
    order above the ceiling is refused before the invariant is read."""
    chunks = _mask_chunks(order)
    if invariant not in GRAPH_INVARIANTS:
        raise ValueError(f"unknown graph invariant: {invariant!r}")
    check_flags(invariant, k, l)
    name, mod2, npairs = invariant, False, order * (order - 1) // 2
    if invariant == "rk-graph":
        if order != 2 * k:
            raise ValueError("rk-graph 4-term check runs at order == 2k")
        name, build = f"r{k}-graph", partial(r_k_graph_core, order)
    elif invariant == "el-parity":
        name, build, mod2 = f"e{l}-parity", partial(_el_parities, order, l), True
    elif invariant == "wc":
        build = lambda masks: pfaffian_parities(order, masks)[-1]
    elif invariant == "gf2-rank":
        even = [s for s in range(1 << order) if s.bit_count() % 2 == 0]
        def build(masks):  # the rank: the largest |S| with pf[S] = 1
            pf = pfaffian_parities(order, masks)
            return reduce(np.maximum, (s.bit_count() * pf[s] for s in even))
    else:  # edge-count
        build = lambda masks: sum((masks >> i & 1 for i in range(npairs)), 0 * masks)
    # int32 lanes hold every mask of a labeled order and every partial sum
    # of the rk-graph partition transform, at half the cost of int64 ones
    lanes = (build(m.astype(np.int32)) for m in chunks)
    table = np.concatenate([np.asarray(t, dtype=np.int32) for t in lanes])
    return name, table, mod2


def _el_parities(order: int, l: int, masks: np.ndarray):
    """The l-cycle parities of a chunk of edge masks."""
    if l != order:
        return [e_l_parity(SimpleGraph.from_edge_mask(order, int(m)), l) for m in masks]
    # full-length cycles: one vectorized Hamiltonian DP over the
    # adjacency matrices of the chunk; the diagonal reads pair 0, so zero it
    edges = masks[:, None, None] >> np.array(pair_index_table(order)) & 1
    mats = (edges * (1 - np.eye(order, dtype=np.int64))).astype(np.int8)
    return hamiltonian_cycle_sums(mats) & 1
