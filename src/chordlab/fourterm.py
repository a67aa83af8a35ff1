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
from functools import lru_cache
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, Sequence

from ._np import np
from .diagrams import (
    MAX_DIAGRAM_ORDER,
    MAX_EXHAUSTIVE_ORDER,
    ChordDiagram,
    DiagramError,
    canonical_word_bytes,
    class_keyer,
    random_slots,
    require_order,
    rotation_classes,
)

DEFAULT_SIGNS = (1, -1, -1, 1)
_WINDOW_WORDS = 1024  # words per diagram window: bounds memory and each DP call


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
    Term 1 is ``tuple(word)``: a tuple word itself, not a copy.  Terms
    2-4 are the cached moves of :func:`_four_term_moves` applied to it.
    """
    word = tuple(word)
    m = len(word)
    # the empty word has no positions at all
    if not m or word[p % m] == word[(p + 1) % m]:
        raise DiagramError("positions p and p+1 must belong to distinct chords")
    p %= m
    a_ch = word[p]
    i = word.index(a_ch)
    q = word.index(a_ch, i + 1) if p == i else i
    swapped, before, after = _four_term_moves(m)[p][q]
    return word, swapped(word), before(word), after(word)


@lru_cache(maxsize=None)
def _four_term_moves(m: int) -> tuple:
    """The diagram 4-term move on words of length m, written once.

    Entry [p][q] is for chord A at position p with its other end at q,
    and chord B at p+1 (cyclic): three itemgetters that give terms 2-4
    of a tuple word.  Term 2 swaps positions p and p+1; terms 3 and 4
    take the end at p+1 out and put it back just before / just after q.
    Applied to ``tuple(range(m))``, each getter gives its index map.
    """
    ident = tuple(range(m))
    table = []
    for p in ident:
        p1 = (p + 1) % m
        swapped = list(ident)
        swapped[p], swapped[p1] = p1, p
        rest = ident[:p1] + ident[p1 + 1 :]
        row = []
        for q in ident:
            # q's index in the word with p+1 taken out
            at = q - 1 if p1 < q else q
            before = (*rest[:at], p1, *rest[at:])
            after = (*rest[: at + 1], p1, *rest[at + 1 :])
            row.append(tuple(itemgetter(*t) for t in (swapped, before, after)))
        table.append(tuple(row))
    return tuple(table)


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

    With ``sample`` None every (basepointed diagram, neighboring-end
    position) at the given order counts, each class run once
    (:func:`diagram_source`); otherwise ``sample`` quadruples are drawn
    from the seed.  f must be a function of the rotation class: it is
    called once per class, on the first diagram of the class met.
    Violations are data, not errors; the report is deterministic
    byte-for-byte under a fixed seed.
    """
    quads = diagram_source(order, sample, seed, None, True)
    evaluate, combine = by_class(lambda ds: [f(d) for d in ds]), signed_sum(signs)
    return relation_sums(invariant, order, quads, evaluate, combine)


def sharded(items: Iterable, shard: tuple[int, int] | None = None) -> Iterator:
    """The items at indexes i with i % count == index for
    ``shard=(index, count)``; every item without a shard."""
    index, count = shard or (0, 1)
    return itertools.islice(items, index, None, count)


def windowed(pairs: Iterable[tuple], size: int) -> Iterator[tuple]:
    """Windows of ``size`` consecutive pairs, the last one shorter, each
    as the tuple of the pairs' first members and the tuple of their
    second ones: (items, weights) for a weighted source."""
    pairs = iter(pairs)
    while window := list(itertools.islice(pairs, size)):
        yield tuple(zip(*window))


def diagram_source(
    order: int,
    sample: int | None,
    seed: int,
    shard: tuple[int, int] | None,
    four_term: bool,
) -> Iterator[tuple[Sequence, tuple[int, ...]]]:
    """The one source of every diagram check: windows (items, weights)
    for :func:`relation_sums`, _WINDOW_WORDS words a window but the last.
    An item is a diagram's word, or with ``four_term`` the four words of
    a 4-term instance; its weight is the number of basepointed cases it
    stands for.  ``shard`` splits the stream of items.

    With ``sample`` None the items are tuples of tuple words over the
    rotation classes of the order
    (:func:`~chordlab.diagrams.rotation_classes`), which the shards
    split: each representative's ``(word,)`` weighted by its orbit size
    or, with ``four_term``, its instance at each neighboring-end
    position, weighted by the orbit size.  Rotating a diagram by r takes
    its instance at p to the one at p + r, up to rotating the words,
    which neither codes nor class functions see.

    Otherwise ``sample`` draws from the seed, each of weight 1, come as
    int8 arrays of shape (W, 1, 2n) or (W, 4, 2n) whose rows are the
    items, built a window at a time in numpy with no ChordDiagram and no
    tuple word per draw.  A draw is one
    :func:`~chordlab.diagrams.random_slots` call, the diagram that
    :func:`~chordlab.diagrams.random_diagram` reads from the same
    generator state; a 4-term draw then takes the position that
    ``rng.choice(neighbor_positions(d))`` would, by the rejection
    sampling of ``randrange`` on ``rng.getrandbits``, and its terms by
    one gather through the moves of :func:`_four_term_moves`.

    Raises ValueError at the call, before any diagram is built or drawn:
    above :data:`~chordlab.diagrams.MAX_EXHAUSTIVE_ORDER` when exhaustive;
    above :data:`~chordlab.diagrams.MAX_DIAGRAM_ORDER`, for a negative
    ``sample`` and, with ``four_term``, below order 2 when sampled.
    """
    window = _WINDOW_WORDS // 4 if four_term else _WINDOW_WORDS
    if sample is None:
        require_order("exhaustive run", order, MAX_EXHAUSTIVE_ORDER)
        classes = sharded(rotation_classes(order), shard)
        if not four_term:
            return windowed((((d.word,), orbit) for d, orbit in classes), window)
        quads = (
            (four_term_words(d.word, p), orbit)
            for d, orbit in classes
            for p in neighbor_positions(d)
        )
        return windowed(quads, window)
    require_order("sampled run", order, MAX_DIAGRAM_ORDER)
    if sample < 0:
        raise ValueError(f"--sample must be nonnegative, got {sample}")
    # below two chords no diagram has neighboring ends of distinct chords,
    # so no position could be drawn
    if four_term and order < 2:
        raise ValueError(f"4-term instances need order >= 2, got {order}")
    return _sampled_arrays(order, sample, random.Random(seed), shard, window, four_term)


def _sampled_arrays(order, sample, rng, shard, window, four_term):
    """The windows of the sampled :func:`diagram_source`, drawn from ``rng``."""
    m = 2 * order
    # slot differences of a chord whose two ends are cyclically adjacent
    adjacent = {1, -1, m - 1, 1 - m}.__contains__

    getrandbits = rng.getrandbits

    def draw():
        slots = random_slots(order, rng)
        if not four_term:
            return slots, 0
        gaps = map(sub, slots[::2], slots[1::2])
        # rng.randrange(count), by its rejection sampling
        count = m - sum(map(adjacent, gaps))
        bits = count.bit_length()
        j = getrandbits(bits)
        while j >= count:
            j = getrandbits(bits)
        return slots, j

    if four_term:
        # the index maps of all four terms, per (p, q)
        ident = tuple(range(m))
        table = _four_term_moves(m)
        maps = [[[ident, *(g(ident) for g in e)] for e in row] for row in table]
        moves = np.array(maps, dtype=np.int8)
    labels = np.arange(order, dtype=np.int8).repeat(2)
    draws = sharded((draw() for _ in range(sample)), shard)
    for slots, picks in windowed(draws, window):
        at = np.arange(len(slots))
        weights = (1,) * len(at)
        # chord c of a draw has its ends at slots 2c and 2c + 1
        ends = np.array(slots, dtype=np.int8).reshape(len(at), -1, 2)
        # each chord's (first, second) end, the chords relabeled in
        # order of first appearance
        by_first = np.argsort(ends.min(axis=2), axis=1)[:, :, None]
        ends = np.sort(np.take_along_axis(ends, by_first, axis=1), axis=2)
        rows = np.empty((len(at), m), dtype=np.int8)
        np.put_along_axis(rows, ends.reshape(len(at), m), labels[None], axis=1)
        if not four_term:
            yield rows[:, None], weights
            continue
        # the drawn position: the j-th p whose neighbor p+1 holds another chord
        neighboring = rows != np.roll(rows, -1, axis=1)
        p = np.argmax(neighboring.cumsum(axis=1) > np.array(picks)[:, None], axis=1)
        # q: the other end of the chord at p
        first, second = ends[at, rows[at, p]].T
        q = np.where(first == p, second, first)
        yield np.take_along_axis(rows[:, None], moves[p, q], axis=2), weights


def relation_sums(
    invariant: str,
    order: int,
    windows: Iterable[tuple[Sequence, Sequence[int]]],
    evaluate: Callable[[Sequence], Iterable],
    combine: Callable[[Sequence], object],
) -> VerificationReport:
    """One check per item, the items read a window at a time.

    A window is a pair (items, weights).  Items are tuples of raw tuple
    words (four for a 4-term quadruple, one for a per-class check), or
    an int8 array whose rows are such items (:func:`diagram_source`).
    ``evaluate(items)`` gives each item's term values;
    ``combine(values)`` is falsy when the item passes, else the signed
    sum recorded with the canonical codes of the item's words.  An
    item's weight, the cases it stands for, adds to ``checked``, and a
    failing item's record is written that many times.  Codes are
    computed for violating items only, an array row's words turned into
    tuples first.
    """
    report = VerificationReport(invariant=invariant, order=order)
    for items, weights in windows:
        report.checked += sum(weights)
        for words, weight, values in zip(items, weights, evaluate(items)):
            if total := combine(values):
                codes = [canonical_word_bytes(tuple(w)).decode("ascii") for w in words]
                for _ in range(weight):
                    report.add_violation(codes, total)
    return report.finalize()


def by_class(values_of: Callable[[list[ChordDiagram]], list]) -> Callable:
    """An ``evaluate`` for :func:`relation_sums` that looks each word up
    by its canonical key.

    ``values_of(diagrams)`` gives the value of each diagram of a list.
    It runs once per window, on the first diagram met of each class not
    seen before in the run, so it must be a function of the rotation
    class; a word becomes a ChordDiagram only for that call.  The rows of
    an int8 array window are turned into tuple words first.  The run
    keys words through one :func:`~chordlab.diagrams.class_keyer`, whose
    memo is bounded: an exhaustive run relabels and keys each distinct
    relabeled word once, and the class representative that an
    exhaustive 4-term item starts with is found in the memo as it
    stands.  The run keeps the values of its classes.
    """
    values: dict[bytes, object] = {}
    class_key = class_keyer()

    def evaluate(items):
        if not isinstance(items, tuple):
            items = [tuple(map(tuple, item)) for item in items.tolist()]
        keys = [[class_key(w) for w in words] for words in items]
        fresh: dict[bytes, Sequence[int]] = {}
        for key, w in zip(itertools.chain(*keys), itertools.chain(*items)):
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
