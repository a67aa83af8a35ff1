"""Generators for 4-term and 2-term relation instances, and the
verification harness that runs candidate invariants against them.

Sign conventions are fixed once for the whole library: the diagram
quadruple signs are (+1, -1, -1, +1), and the third term moves the
neighboring endpoint to just *before* the partner chord's far endpoint
(in word order).  This single convention is pinned by the calibration
test: the sl2 weight system annihilates every quadruple under it, and
fails under the flipped flank.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .diagrams import (
    ChordDiagram,
    DiagramError,
    canonical_code,
    enumerate_diagrams,
    random_diagram,
)
from .graphs import SimpleGraph, format_graph, graph_prime, graph_tilde

DEFAULT_SIGNS = (1, -1, -1, 1)


@dataclass(frozen=True)
class RelationQuadruple:
    """The four signed terms of one 4-term relation instance."""

    flavor: str  # "diagram" | "graph"
    terms: tuple  # four (object, sign) pairs

    def __post_init__(self):
        if len(self.terms) != 4 or sum(s for _, s in self.terms) != 0:
            raise ValueError("a quadruple has four terms with signs summing to 0")

    def signed_sum(self, f: Callable):
        total = None
        for obj, sign in self.terms:
            val = sign * f(obj)
            total = val if total is None else total + val
        return total

    def term_codes(self) -> list[str]:
        if self.flavor == "diagram":
            return [canonical_code(obj).decode("ascii") for obj, _ in self.terms]
        return [format_graph(obj) for obj, _ in self.terms]


def four_term_words(word: Sequence[int], p: int) -> tuple[list, list, list, list]:
    """The four words of a diagram 4-term instance, chord ids preserved.

    Position p holds an endpoint of chord A, position p+1 (cyclic) one of
    chord B.  Term 2 swaps the two neighboring endpoints; terms 3 and 4
    re-home B's endpoint to just before / just after A's other endpoint.
    """
    m = len(word)
    p %= m
    p1 = (p + 1) % m
    a_ch, b_ch = word[p], word[p1]
    if a_ch == b_ch:
        raise DiagramError("positions p and p+1 must belong to distinct chords")
    swapped = list(word)
    swapped[p], swapped[p1] = swapped[p1], swapped[p]
    i = word.index(a_ch)
    j = word.index(a_ch, i + 1)
    q = j if p == i else i
    base = [word[t] for t in range(m) if t != p1]
    q_idx = q - 1 if p1 < q else q
    before = base[:q_idx] + [b_ch] + base[q_idx:]
    after = base[: q_idx + 1] + [b_ch] + base[q_idx + 1 :]
    return list(word), swapped, before, after


def diagram_four_term(
    d: ChordDiagram, p: int, signs: tuple[int, int, int, int] = DEFAULT_SIGNS
) -> RelationQuadruple:
    """4-term instance at the neighboring endpoints p, p+1 of d.

    The intersection graphs of the four terms form the graph 4-term
    quadruple at the ordered pair (chord at p+1, chord at p).
    """
    return _diagram_quadruple(four_term_words(d.word, p), signs)


def _diagram_quadruple(words, signs) -> RelationQuadruple:
    return RelationQuadruple(
        flavor="diagram",
        terms=tuple((ChordDiagram(w), s) for w, s in zip(words, signs)),
    )


def graph_four_term(
    g: SimpleGraph, a: int, b: int, signs: tuple[int, int, int, int] = DEFAULT_SIGNS
) -> RelationQuadruple:
    """Graph 4-term instance at the ordered vertex pair (a, b)."""
    tilde = graph_tilde(g, a, b)
    terms = (g, graph_prime(g, a, b), tilde, graph_prime(tilde, a, b))
    return RelationQuadruple(
        flavor="graph", terms=tuple(zip(terms, signs))
    )


def neighbor_positions(d: ChordDiagram) -> list[int]:
    """Positions p where p and p+1 (cyclic) hold ends of distinct chords."""
    w = d.word
    m = len(w)
    return [p for p in range(m) if w[p] != w[(p + 1) % m]]


@dataclass
class VerificationReport:
    """Outcome of running an invariant against generated relation instances."""

    invariant: str
    order: int
    checked: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add_violation(self, terms: Sequence[str], signed_sum) -> None:
        self.violations.append(
            {
                "invariant": self.invariant,
                "order": self.order,
                "terms": list(terms),
                "signed_sum": str(signed_sum),
            }
        )

    def finalize(self) -> "VerificationReport":
        self.violations.sort(key=lambda rec: rec["terms"])
        return self

    def json_lines(self) -> str:
        lines = [json.dumps(rec, sort_keys=True) for rec in self.violations]
        lines.append(
            json.dumps(
                {"checked": self.checked, "violations": len(self.violations)},
                sort_keys=True,
            )
        )
        return "\n".join(lines)


def _is_zero(value) -> bool:
    return not value


def verify_weight_system(
    f: Callable[[ChordDiagram], object],
    order: int,
    mode: str = "exhaustive",
    count: int = 0,
    seed: int = 0,
    invariant: str = "f",
    signs: tuple[int, int, int, int] = DEFAULT_SIGNS,
) -> VerificationReport:
    """Evaluate the signed sum of f over diagram 4-term quadruples.

    mode="exhaustive" runs every (diagram, neighboring-end position) at
    the given order; mode="sample" draws `count` quadruples with the
    given seed.  Violations are data, not errors; the report is
    deterministic byte-for-byte under a fixed seed.
    """
    report = VerificationReport(invariant=invariant, order=order)
    if mode == "exhaustive":
        for d in enumerate_diagrams(order, "basepointed"):
            for p in neighbor_positions(d):
                quad = diagram_four_term(d, p, signs)
                _check(report, quad, f)
    elif mode == "sample":
        for quad in sampled_four_term(order, count, seed, signs):
            _check(report, quad, f)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return report.finalize()


def sampled_four_term(
    order: int,
    count: int,
    seed: int,
    signs: tuple[int, int, int, int] = DEFAULT_SIGNS,
) -> Iterator[RelationQuadruple]:
    """`count` 4-term instances: a random diagram of the order, then a
    random neighboring-end position on it, all drawn from one seed."""
    for words in sampled_four_term_words(order, count, seed):
        yield _diagram_quadruple(words, signs)


def require_sample_count(count: int) -> None:
    """Raise ValueError unless a sampled run's count is nonnegative."""
    if count < 0:
        raise ValueError(f"--sample must be nonnegative, got {count}")


def sampled_four_term_words(
    order: int, count: int, seed: int
) -> Iterator[tuple[list, list, list, list]]:
    """The four raw words of each instance :func:`sampled_four_term`
    draws, in the same order."""
    require_sample_count(count)
    # below two chords no diagram has neighboring ends of distinct chords,
    # so the draw below would never finish
    if order < 2:
        raise ValueError(f"4-term instances need order >= 2, got {order}")
    rng = random.Random(seed)
    done = 0
    while done < count:
        d = random_diagram(order, rng)
        positions = neighbor_positions(d)
        if not positions:
            continue
        p = positions[rng.randrange(len(positions))]
        yield four_term_words(d.word, p)
        done += 1


def verify_graph_four_term(
    f: Callable[[SimpleGraph], object],
    order: int,
    invariant: str = "f",
    signs: tuple[int, int, int, int] = DEFAULT_SIGNS,
) -> VerificationReport:
    """Signed sums of f over all labeled graphs and ordered vertex pairs.

    Object-level reference; the exhaustive suites run the edge-mask
    engine `verify.graph_four_term_masked` on a value table instead.
    """
    report = VerificationReport(invariant=invariant, order=order)
    for g in _all_graphs(order):
        for a in range(order):
            for b in range(order):
                if a == b:
                    continue
                quad = graph_four_term(g, a, b, signs)
                _check(report, quad, f)
    return report.finalize()


def two_term_check(
    f: Callable[[SimpleGraph], object],
    order: int,
    invariant: str = "f",
) -> VerificationReport:
    """Check f(g) == f(g~) for all labeled graphs and ordered pairs.

    Object-level reference for `verify.two_term_masked`.
    """
    report = VerificationReport(invariant=invariant, order=order)
    for g in _all_graphs(order):
        for a in range(order):
            for b in range(order):
                if a == b:
                    continue
                tilde = graph_tilde(g, a, b)
                report.checked += 1
                diff = f(g) - f(tilde)
                if not _is_zero(diff):
                    report.add_violation(
                        [format_graph(g), format_graph(tilde)], diff
                    )
    return report.finalize()


def _all_graphs(order: int):
    from .graphs import enumerate_graphs

    return enumerate_graphs(order, "labeled")


def _check(report: VerificationReport, quad: RelationQuadruple, f: Callable) -> None:
    report.checked += 1
    total = quad.signed_sum(f)
    if not _is_zero(total):
        report.add_violation(quad.term_codes(), total)
