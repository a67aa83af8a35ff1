"""Generators for diagram 4-term relation instances, and the verification
harness that runs candidate invariants against them.  The graph
relations' terms are edge-mask moves in :mod:`chordlab.graphs`.

Sign conventions are fixed once for the whole library: the diagram
quadruple signs are (+1, -1, -1, +1), and the third term moves the
neighboring endpoint to just *before* the partner chord's far endpoint
(in word order).  This single convention is pinned by the calibration
test: the sl2 weight system annihilates every quadruple under it, and
fails under the flipped flank.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .diagrams import (
    MAX_DIAGRAM_ORDER,
    MAX_EXHAUSTIVE_ORDER,
    ChordDiagram,
    DiagramError,
    canonical_word_bytes,
    class_keyer,
    enumerate_diagrams,
    random_diagram,
    require_order,
    rotation_classes,
)

DEFAULT_SIGNS = (1, -1, -1, 1)


@dataclass(frozen=True)
class RelationQuadruple:
    """The four signed terms of one 4-term relation instance."""

    terms: tuple  # four (object, sign) pairs

    def __post_init__(self):
        if len(self.terms) != 4 or sum(s for _, s in self.terms) != 0:
            raise ValueError("a quadruple has four terms with signs summing to 0")

    def signed_sum(self, f: Callable):
        return sum(sign * f(obj) for obj, sign in self.terms)


def four_term_words(word: Sequence[int], p: int) -> tuple[tuple, tuple, tuple, tuple]:
    """The four words of a diagram 4-term instance, chord ids preserved.

    Position p holds an endpoint of chord A, position p+1 (cyclic) one of
    chord B.  Term 2 swaps the two neighboring endpoints; terms 3 and 4
    re-home B's endpoint to just before / just after A's other endpoint.
    Term 1 is ``tuple(word)``: a tuple word itself, not a copy.
    """
    word = tuple(word)
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
    base = word[:p1] + word[p1 + 1 :]
    q_idx = q - 1 if p1 < q else q
    before = base[:q_idx] + (b_ch,) + base[q_idx:]
    after = base[: q_idx + 1] + (b_ch,) + base[q_idx + 1 :]
    return word, tuple(swapped), before, after


def diagram_four_term(
    d: ChordDiagram, p: int, signs: tuple[int, int, int, int] = DEFAULT_SIGNS
) -> RelationQuadruple:
    """4-term instance at the neighboring endpoints p, p+1 of d.

    The intersection graphs of the four terms form the graph 4-term
    quadruple at the ordered pair (chord at p+1, chord at p).
    """
    words = four_term_words(d.word, p)
    return RelationQuadruple(tuple((ChordDiagram(w), s) for w, s in zip(words, signs)))


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


def verify_weight_system(
    f: Callable[[ChordDiagram], object],
    order: int,
    sample: int | None = None,
    seed: int = 0,
    invariant: str = "f",
    signs: tuple[int, int, int, int] = DEFAULT_SIGNS,
) -> VerificationReport:
    """Evaluate the signed sum of f over diagram 4-term quadruples.

    With ``sample`` None every (diagram, neighboring-end position) at the
    given order is run; otherwise ``sample`` quadruples are drawn from
    the seed.  f must be a function of the rotation class: it is
    called once per class, on the first diagram of the class met.
    Violations are data, not errors; the report is deterministic
    byte-for-byte under a fixed seed.
    """
    quads = four_term_instances(order, sample, seed)
    evaluate, combine = by_class(lambda ds: [f(d) for d in ds]), signed_sum(signs)
    return relation_sums(invariant, order, quads, evaluate, combine, _CLASS_WINDOW)


def sharded(items: Iterable, shard: tuple[int, int] | None = None) -> Iterator:
    """The items at indexes i with i % count == index for
    ``shard=(index, count)``; every item without a shard."""
    index, count = shard or (0, 1)
    return itertools.islice(items, index, None, count)


def diagram_source(
    order: int,
    sample: int | None = None,
    seed: int | random.Random = 0,
    shard: tuple[int, int] | None = None,
) -> Iterator[ChordDiagram]:
    """Every basepointed diagram of the order when ``sample`` is None,
    else ``sample`` random ones drawn from the seed; split by ``shard``.

    A random.Random passed as ``seed`` is drawn from as it stands, so a
    caller can interleave its own draws with the diagrams'.  Raises
    ValueError, before any diagram is built, above
    :data:`~chordlab.diagrams.MAX_EXHAUSTIVE_ORDER` when exhaustive and
    above :data:`~chordlab.diagrams.MAX_DIAGRAM_ORDER` when sampled.
    """
    if sample is None:
        require_order("exhaustive run", order, MAX_EXHAUSTIVE_ORDER)
        return sharded(enumerate_diagrams(order, "basepointed"), shard)
    require_order("sampled run", order, MAX_DIAGRAM_ORDER)
    if sample < 0:
        raise ValueError(f"--sample must be nonnegative, got {sample}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return sharded((random_diagram(order, rng) for _ in range(sample)), shard)


def class_source(
    order: int, shard: tuple[int, int] | None = None
) -> Iterator[tuple[ChordDiagram, int]]:
    """Every rotation class of the order as (representative, orbit size),
    the classes split by ``shard``: the basepointed diagrams of the
    exhaustive :func:`diagram_source`, one class at a time.  Raises
    ValueError, before any class is built, above
    :data:`~chordlab.diagrams.MAX_EXHAUSTIVE_ORDER`.
    """
    require_order("exhaustive run", order, MAX_EXHAUSTIVE_ORDER)
    return sharded(rotation_classes(order), shard)


def four_term_instances(
    order: int,
    sample: int | None = None,
    seed: int = 0,
    shard: tuple[int, int] | None = None,
) -> Iterator[tuple[tuple, tuple, tuple, tuple]]:
    """The four raw words of each diagram 4-term instance of the order.

    With ``sample`` None every neighboring-end position of every
    basepointed diagram is taken, the diagrams split by ``shard``;
    otherwise ``sample`` instances are drawn from the seed (a random
    diagram, then a random neighboring-end position on it), the
    instances split by ``shard``.
    """
    if sample is None:
        return (
            four_term_words(d.word, p)
            for d in diagram_source(order, shard=shard)
            for p in neighbor_positions(d)
        )
    rng = random.Random(seed)
    diagrams = diagram_source(order, sample, rng)
    # below two chords no diagram has neighboring ends of distinct chords,
    # so no position could be drawn
    if order < 2:
        raise ValueError(f"4-term instances need order >= 2, got {order}")
    quads = (four_term_words(d.word, rng.choice(neighbor_positions(d))) for d in diagrams)
    return sharded(quads, shard)


_CLASS_WINDOW = 128  # class-keyed items read per window: bounds memory


def relation_sums(
    invariant: str,
    order: int,
    items: Iterable[Sequence[Sequence[int]]],
    evaluate: Callable[[list], Iterable],
    combine: Callable[[Sequence], object],
    window: int,
) -> VerificationReport:
    """One check per item, the items read in windows of ``window``.

    An item is a tuple of raw tuple words: four for a 4-term quadruple,
    one for a sampled per-class check.  ``evaluate(batch)`` gives each
    item's term values for one window; ``combine(values)`` is falsy when
    the item passes, else the signed sum recorded with the canonical
    codes of the item's words.  Codes are computed for violating items
    only.
    """
    report = VerificationReport(invariant=invariant, order=order)
    items = iter(items)
    while batch := list(itertools.islice(items, window)):
        report.checked += len(batch)
        for words, values in zip(batch, evaluate(batch)):
            if total := combine(values):
                codes = [canonical_word_bytes(w).decode("ascii") for w in words]
                report.add_violation(codes, total)
    return report.finalize()


def by_class(values_of: Callable[[list[ChordDiagram]], list]) -> Callable:
    """An ``evaluate`` for :func:`relation_sums` that looks each word up
    by its canonical key.

    ``values_of(diagrams)`` gives the value of each diagram of a list.
    It runs once per window, on the first diagram met of each class not
    seen before in the run, so it must be a function of the rotation
    class; a word becomes a ChordDiagram only for that call.  The run
    keys words through one :func:`~chordlab.diagrams.class_keyer`, whose
    memo is bounded: an exhaustive run relabels and keys each distinct
    relabeled word once, and the diagram word that an exhaustive 4-term
    item starts with is found in the memo as it stands.  The run keeps
    the values of its classes.
    """
    values: dict[bytes, object] = {}
    class_key = class_keyer()

    def evaluate(batch):
        keys = [[class_key(w) for w in words] for words in batch]
        fresh: dict[bytes, Sequence[int]] = {}
        for key, w in zip(itertools.chain(*keys), itertools.chain(*batch)):
            if key not in values:
                fresh.setdefault(key, w)
        values.update(zip(fresh, values_of([ChordDiagram(w) for w in fresh.values()])))
        return [[values[key] for key in item_keys] for item_keys in keys]

    return evaluate


def signed_sum(signs: tuple[int, ...] = DEFAULT_SIGNS, mod2: bool = False) -> Callable:
    """A ``combine`` for :func:`relation_sums`: the signed sum of an
    item's values, reduced mod 2 with ``mod2`` (for 0/1 parity
    invariants)."""

    def combine(values):
        total = sum(sign * val for sign, val in zip(signs, values))
        return total & 1 if mod2 else total

    return combine
