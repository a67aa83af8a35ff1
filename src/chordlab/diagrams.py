"""Chord diagrams: encoding, canonical codes, enumeration, and surgery.

A chord diagram of order n is stored as a double-occurrence word of
length 2n read counterclockwise from a fixed basepoint; chord ids are
normalized to 0..n-1 in order of first appearance.  ``==`` compares
these basepointed words; :func:`canonical_code` identifies rotation
classes (the circle's orientation is fixed, so reflections are *not*
quotiented out).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence


class DiagramError(ValueError):
    """Raised for malformed diagram words or invalid surgery arguments."""


# resource ceilings: the largest order the diagram evaluators accept (the
# R_k cycle DP keeps 2^n n path counts and the sl2 oracle up to 3^n
# contraction states), the largest order of the labeled graph tables
# (2^(n(n-1)/2) graphs), and the largest order checked exhaustively
# ((2n-1)!! basepointed diagrams)
MAX_DIAGRAM_ORDER = 8
MAX_GRAPH_ORDER = 6
MAX_EXHAUSTIVE_ORDER = 6
# a class keyer's memo is emptied when it holds this many relabeled words:
# every basepointed word at the exhaustive ceiling, (2n-1)!!
_KEYER_WORDS = math.prod(range(1, 2 * MAX_EXHAUSTIVE_ORDER, 2))


def require_order(what: str, order: int, ceiling: int) -> None:
    """Raise ValueError unless 0 <= order <= ceiling.

    The one comparison of an order with a resource ceiling; the library
    makes it where work starts, before anything is enumerated.
    """
    if not 0 <= order <= ceiling:
        raise ValueError(f"{what}: order {order} outside 0..{ceiling}")


def _normalize(word: Iterable) -> tuple[int, ...]:
    """Relabel chord ids to 0..n-1 in order of first appearance."""
    labels: dict = {}
    return tuple([labels.setdefault(ch, len(labels)) for ch in word])


@dataclass(frozen=True)
class ChordDiagram:
    """A chord diagram as a normalized double-occurrence word."""

    word: tuple[int, ...]

    def __init__(self, word: Iterable):
        w = _normalize(tuple(word))
        if len(w) % 2 != 0:
            raise DiagramError("diagram word must have even length")
        counts: dict[int, int] = {}
        for ch in w:
            counts[ch] = counts.get(ch, 0) + 1
        bad = sorted(ch for ch, k in counts.items() if k != 2)
        if bad:
            raise DiagramError(f"every chord must occur exactly twice (bad: {bad})")
        object.__setattr__(self, "word", w)

    @property
    def n(self) -> int:
        return len(self.word) // 2

    def endpoints(self, chord: int) -> tuple[int, int]:
        """Positions (i, j), i < j, of the chord's two endpoints."""
        i = self.word.index(chord)
        j = self.word.index(chord, i + 1)
        return i, j

    def chord_positions(self) -> list[tuple[int, int]]:
        """Endpoint position pairs for all chords, indexed by chord id."""
        return word_positions(self.word)

    def __str__(self) -> str:
        return format_diagram(self)


def word_positions(word: Sequence[int]) -> list[tuple[int, int]]:
    """Endpoint position pairs of a normalized word, indexed by chord id."""
    n = len(word) // 2
    first: list[int] = [-1] * n
    pairs: list[tuple[int, int]] = [(-1, -1)] * n
    for pos, ch in enumerate(word):
        if first[ch] < 0:
            first[ch] = pos
        else:
            pairs[ch] = (first[ch], pos)
    return pairs


def parse_diagram(text: str) -> ChordDiagram:
    """Parse a letter word ("ABAB") or a position pair list ("1-3,2-4").

    Both formats are loss-free inverses of :func:`format_diagram`.
    """
    s = text.strip()
    if not s:
        raise DiagramError("empty diagram text")
    if "-" in s:
        pairs = []
        for item in s.split(","):
            item = item.strip()
            halves = item.split("-")
            if len(halves) != 2:
                raise DiagramError(f"bad position pair: {item!r}")
            try:
                i, j = int(halves[0]), int(halves[1])
            except ValueError as exc:
                raise DiagramError(f"bad position pair: {item!r}") from exc
            pairs.append((i, j))
        m = 2 * len(pairs)
        seen = set()
        for i, j in pairs:
            for p in (i, j):
                if not 1 <= p <= m or p in seen:
                    raise DiagramError(
                        f"positions must form a perfect matching of 1..{m}"
                    )
                seen.add(p)
        word = [0] * m
        for ch, (i, j) in enumerate(pairs):
            word[i - 1] = ch
            word[j - 1] = ch
        return ChordDiagram(word)
    if not s.isalpha():
        raise DiagramError(f"diagram word must be letters only: {s!r}")
    return ChordDiagram(s.upper())


def format_diagram(d: ChordDiagram, style: str = "letters") -> str:
    """Render as a letter word or a 1-based position pair list.

    Both forms parse back to an equal diagram; words with more than 26
    chords fall back to the pair list.
    """
    if style == "pairs" or d.n > 26:
        return ",".join(f"{i + 1}-{j + 1}" for i, j in d.chord_positions())
    if style != "letters":
        raise ValueError(f"unknown style: {style!r}")
    return "".join(chr(ord("A") + ch) for ch in d.word)


def canonical_word_bytes(word: Sequence[int]) -> bytes:
    """Minimum over rotations of the first-appearance relabeled word.

    Equal byte strings exactly characterize diagrams that agree up to
    basepoint rotation and chord relabeling.  Labels are letters from
    "A" up to 26 chords, raw label bytes beyond.

    Rotations are compared on a rotation-local integer key instead of
    relabeled words: in rotation r, a chord's first end reads m and its
    second end reads the forward offset to its partner.  Among second
    ends a smaller label means an earlier first end and so a smaller
    forward offset, and a new label exceeds every old one as m exceeds
    every offset; the two orders agree.  The least rotation is found by
    eliminating candidates position by position, and only the winner is
    relabeled.
    """
    m = len(word)
    if m <= 4:
        if m == 0:
            return b""
        if m == 2:
            return b"AA"
        return b"ABAB" if word[0] == word[2] else b"AABB"
    # forward offset of every position to its partner, doubled so that
    # rotation r reads position k at ff[r + k]
    ff = [0] * m
    first: dict = {}
    for p, ch in enumerate(word):
        q = first.pop(ch, -1)
        if q < 0:
            first[ch] = p
        else:
            ff[q] = p - q
            ff[p] = m - p + q
    ff += ff
    cands: Sequence[int] = range(m)
    for k in range(1, m):
        # offset >= m - k: the partner lies before position k in rotation
        # r, so this is a second end; any other position is a first end
        lim = m - k
        best = m
        for r in cands:
            v = ff[r + k]
            if lim <= v < best:
                best = v
        if best < m:
            cands = [r for r in cands if ff[r + k] == best]
            if len(cands) == 1:
                break
    r = cands[0]
    labels: dict = {}
    rot = word[r:] + word[:r]
    base = ord("A") if m <= 52 else 0
    return bytes([base + labels.setdefault(ch, len(labels)) for ch in rot])


def class_keyer() -> Callable[[tuple[int, ...]], bytes]:
    """A function giving :func:`canonical_word_bytes` of a word, each
    distinct first-appearance relabeled word keyed once while it stays in
    the memo.

    The key does not depend on chord labels, so the memo, keyed by the
    relabeled word, is exact.  It lives as long as the returned function
    and is emptied when it holds :data:`_KEYER_WORDS` words, every
    basepointed word at :data:`MAX_EXHAUSTIVE_ORDER`: an exhaustive run
    keys each relabeled word once, and a sampled one stays bounded.
    Words must be tuples: a word found in the memo as it stands is a
    relabeled word keyed before, so it is not relabeled again.
    """
    memo: dict[tuple[int, ...], bytes] = {}
    cap = _KEYER_WORDS

    def key(word: tuple[int, ...]) -> bytes:
        code = memo.get(word)
        if code is None:
            w = _normalize(word)
            code = memo.get(w)
            if code is None:
                if len(memo) >= cap:
                    memo.clear()
                code = memo[w] = canonical_word_bytes(w)
        return code

    return key


def canonical_code(d: ChordDiagram) -> bytes:
    """Canonical byte string; equal codes iff equal up to rotation/relabeling."""
    return canonical_word_bytes(d.word)


def enumerate_diagrams(n: int, mode: str = "basepointed") -> Iterator[ChordDiagram]:
    """Yield chord diagrams of order n.

    mode="basepointed" yields all (2n-1)!! distinct words;
    mode="up-to-rotation" yields one representative per rotation class,
    the class's least relabeled word (its canonical code), in sorted code
    order.  The classes come from an orderly generator
    (:func:`rotation_classes`) that keys no word.  Raises ValueError
    above :data:`MAX_DIAGRAM_ORDER`.
    """
    if mode not in ("basepointed", "up-to-rotation"):
        raise ValueError(f"enumerate_diagrams: unknown mode {mode!r}")
    require_order("enumerate_diagrams", n, MAX_DIAGRAM_ORDER)
    if mode == "basepointed":
        yield from map(_trusted_diagram, _matchings(2 * n))
    else:
        yield from (_trusted_diagram(w) for w, _ in _least_words(n))


def rotation_classes(n: int) -> Iterator[tuple[ChordDiagram, int]]:
    """(representative, orbit size) of every rotation class of order n,
    the representatives those of ``enumerate_diagrams(n, "up-to-rotation")``
    in the same order; the orbit size is the number of basepointed
    diagrams in the class, so the sizes sum to (2n-1)!!.  Raises
    ValueError at the call above :data:`MAX_DIAGRAM_ORDER`.
    """
    require_order("rotation_classes", n, MAX_DIAGRAM_ORDER)
    return ((_trusted_diagram(w), orbit) for w, orbit in _least_words(n))


def _least_words(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each normalized word of order n that is least among its relabeled
    rotations, in increasing order, with its orbit size: orderly
    generation after Sawada (*A fast algorithm for generating
    nonisomorphic chord diagrams*, SIAM J. Discrete Math. 15, 2002).

    Let s be the word's shortest arc: the least, over chords, cyclic
    distance between a chord's ends.  A relabeled rotation reads new
    labels until a chord first closes, and the earliest possible close is
    s positions in, by the chord that opened at the start; so the least
    rotation starts at an end of a length-s arc and reads 0, 1, ..,
    s-1, 0.  Words are therefore built position by position for s = 1..n
    in turn, from that prefix, with every later chord's two arcs at
    least s long, each position taking its smallest label first; only
    the rotations that start a length-s arc can then be smaller.
    """
    m = 2 * n
    if n == 0:
        yield (), 1
        return
    word = [0] * m
    opened = [0] * n
    for s in range(1, n + 1):
        word[: s + 1] = [*range(s), 0]
        opened[:s] = range(s)
        yield from _extend(word, opened, s, s + 1, s, list(range(1, s)))


def _extend(word: list, opened: list, s: int, p: int, label: int, live: list):
    """Fill positions p.. of ``word`` in increasing order: close a chord
    of ``live`` (labels read once, oldest first) or open chord ``label``
    (``opened`` holds each label's first position), every arc at least
    s; at the end keep the word if no relabeled rotation is smaller."""
    m = len(word)
    if p == m:
        w = tuple(word)
        for r in range(1, m):
            if w[r] == w[(r + s) % m]:
                rot = _normalize(w[r:] + w[:r])
                if rot < w:
                    return
                if rot == w:
                    # the least rotation fixing w: its orbit has r words
                    yield w, r
                    return
        yield w, m
        return
    for i, ch in enumerate(live):
        d = p - opened[ch]
        if d < s:
            break
        if d > m - s:
            return
        word[p] = ch
        yield from _extend(word, opened, s, p + 1, label, live[:i] + live[i + 1 :])
        if d == m - s:
            # the oldest chord's last chance to close
            return
    if label < m // 2:
        word[p] = label
        opened[label] = p
        yield from _extend(word, opened, s, p + 1, label + 1, live + [label])


def _matchings(m: int) -> Iterator[tuple[int, ...]]:
    """All perfect matchings of positions 0..m-1 as normalized words:
    chord ``label`` opens at the first free position and closes at each
    later free one in turn, so labels follow first appearance."""
    n = m // 2
    if n == 0:
        yield ()
        return
    word = [-1] * m
    opens, closes = [0] * n, [0] * n
    word[0] = label = 0
    while label >= 0:
        j = closes[label]
        if j != opens[label]:
            word[j] = -1
        j += 1
        while j < m and word[j] >= 0:
            j += 1
        if j == m:
            word[opens[label]] = -1
            label -= 1
            continue
        word[j], closes[label] = label, j
        if label == n - 1:
            yield tuple(word)
        else:
            label += 1
            i = opens[label] = closes[label] = word.index(-1)
            word[i] = label


def _trusted_diagram(word: tuple[int, ...]) -> ChordDiagram:
    """ChordDiagram(word) for a normalized word, without validating it."""
    d = object.__new__(ChordDiagram)
    object.__setattr__(d, "word", word)
    return d


def random_slots(n: int, rng) -> list[int]:
    """The one draw of a uniform random basepointed diagram of order n
    from a random.Random instance: the positions 0..2n-1 shuffled, the
    ends of one chord at slots 2c and 2c + 1 for each c.  Chord labels
    follow first appearance, so a chord's label is the rank of its
    first end among the chords'.  Raises ValueError for n < 0.

    The Fisher-Yates swaps of ``rng.shuffle`` are made here, each swap
    index drawn as ``shuffle`` draws it, by rejection sampling on
    ``rng.getrandbits``: the same slots from the same generator state,
    which is left as ``shuffle`` leaves it.
    """
    if n < 0:
        raise ValueError(f"random diagram order must be nonnegative, got {n}")
    slots = list(range(2 * n))
    getrandbits = rng.getrandbits
    for i, bits in _swap_bits(2 * n):
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        slots[i], slots[j] = slots[j], slots[i]
    return slots


@lru_cache(maxsize=64)
def _swap_bits(m: int) -> tuple[tuple[int, int], ...]:
    """The swaps of a shuffle of m items, in the order it makes them: the
    position i, from m - 1 down to 1, and the bit length of i + 1, the
    number of choices for the item swapped into it."""
    return tuple((i, (i + 1).bit_length()) for i in range(m - 1, 0, -1))


def random_diagram(n: int, rng) -> ChordDiagram:
    """Uniform random basepointed diagram from a random.Random instance:
    the :func:`random_slots` draw read into a word."""
    slots = random_slots(n, rng)
    word = [0] * (2 * n)
    for ch in range(n):
        word[slots[2 * ch]] = ch
        word[slots[2 * ch + 1]] = ch
    return _trusted_diagram(_normalize(word))


@dataclass(frozen=True)
class Share:
    """Two disjoint circular arcs closed under chords.

    Arcs are (start, length) position runs; an empty second arc is a
    degenerate gap location.  ``chords`` is the set filling the arcs.
    """

    arcs: tuple[tuple[int, int], tuple[int, int]]
    chords: frozenset[int]


class MutationKind(enum.Enum):
    """The three nontrivial symmetries re-gluing a share."""

    ROTATION = "rotation"
    # reflection fixing each arc setwise (axis through both arcs)
    REFLECTION_VERTICAL = "reflection-vertical"
    # reflection exchanging the two arcs
    REFLECTION_HORIZONTAL = "reflection-horizontal"


# the kinds in definition order, as the share table holds their moves
_KINDS = tuple(MutationKind)


def find_shares(d: ChordDiagram) -> list[Share]:
    """All shares of d, one per chord subset (including empty and full),
    in increasing order of the subset's bit mask; the arcs are read from
    the share table of :func:`share_moves`.  Raises ValueError above
    :data:`MAX_DIAGRAM_ORDER`.
    """
    require_order("find_shares", d.n, MAX_DIAGRAM_ORDER)
    chord_sets = _subset_chords(d.n)
    return [
        Share(arcs=arcs, chords=chord_sets[mask])
        for mask, arcs, _ in share_moves(d.word)
    ]


@lru_cache(maxsize=None)
def _subset_chords(n: int) -> tuple[frozenset[int], ...]:
    """The chord set of every subset of n chords, indexed by its bit mask;
    :func:`find_shares` checks the order first, so at most 2^8 sets are
    kept per order."""
    return tuple(
        frozenset(ch for ch in range(n) if mask >> ch & 1) for mask in range(1 << n)
    )


def share_moves(word: tuple[int, ...]) -> Iterator[tuple[int, tuple, tuple]]:
    """(subset mask, arcs, moves) for each chord subset of a tuple word
    with labels 0..n-1 that is a share, in increasing mask order.

    A chord subset is a share iff its endpoint positions form at most two
    circular runs; the runs then are the arcs, and the closure property
    holds automatically because runs contain no foreign endpoints.  A
    subset's positions are one bit mask, its lowest chord's ends or'ed
    into the mask of the rest, and the arcs and moves are read from the
    per-order table :func:`_share_table` under that mask.  ``moves``
    holds one itemgetter per :class:`MutationKind`, in definition order,
    each giving :func:`mutated_word` of the word for that kind.  The
    order is not checked: the caller checks it against a ceiling.
    """
    m = len(word)
    table = _share_table(m)
    ends = [0] * (m // 2)
    for p, ch in enumerate(word):
        ends[ch] |= 1 << p
    covered = [0] * (1 << len(ends))
    for mask in range(len(covered)):
        if mask:
            low = mask & -mask
            covered[mask] = covered[mask ^ low] | ends[low.bit_length() - 1]
        pm = covered[mask]
        entry = table.get(pm, False)
        if entry is False:
            entry = table[pm] = _share_entry(m, pm)
        if entry is not None:
            yield mask, *entry


@lru_cache(maxsize=None)
def _share_table(m: int) -> dict[int, tuple | None]:
    """The mutations on words of length m: covered position mask -> None
    when its positions form more than two circular runs, else the arcs
    and moves of the share covering them.  Each entry is made by
    :func:`_share_entry` on first use, so an order holds at most 2^(m-1),
    one per even-sized position set."""
    return {}


def _share_entry(m: int, pm: int) -> tuple | None:
    """The share table's entry for the positions of bit mask pm on words
    of length m.  A run starts at each position whose cyclic predecessor
    is outside the mask.  Each move re-glues ``tuple(range(m))`` by
    :func:`_share_segments` and :func:`_reglue`, and applied to that
    word gives its index map; the empty word's moves give ``()``."""
    if pm == 0 or pm == (1 << m) - 1:
        # the empty subset, or every position covered (one full run)
        arcs = ((0, pm.bit_count()), (0, 0))
    else:
        starts = pm & ~(pm << 1 | pm >> (m - 1))
        if starts.bit_count() > 2:
            return None
        k = pm.bit_count()
        s1 = (starts & -starts).bit_length() - 1
        if starts == 1 << s1:
            arcs = ((s1, k), ((s1 + k) % m, 0))
        else:
            # the first run cannot wrap: it ends before the second starts
            run = pm >> s1
            l1 = (~run & (run + 1)).bit_length() - 1
            arcs = ((s1, l1), (starts.bit_length() - 1, k - l1))
    segments = _share_segments(tuple(range(m)), arcs)
    moves = [_reglue(segments, kind) for kind in _KINDS]
    # itemgetter needs an index: the empty word is its own mutant
    return arcs, tuple(itemgetter(*t) if t else tuple for t in moves)


def _share_segments(word: tuple[int, ...], arcs):
    """Split the word into (arc1, gap1, arc2, gap2) starting at arc1: four
    consecutive slices of the doubled word, ending one turn after arc1
    starts."""
    m = len(word)
    if m == 0:
        return (), (), (), ()
    (s1, l1), (s2, l2) = arcs
    twice = word + word
    # where arc1 ends, arc2 begins and arc2 ends, on the doubled word
    e1 = s1 + l1
    b2 = e1 + (s2 - e1) % m
    e2 = b2 + l2
    return twice[s1:e1], twice[e1:b2], twice[b2:e2], twice[e2 : s1 + m]


def _check_share(d: ChordDiagram, share: Share) -> None:
    m = len(d.word)
    (s1, l1), (s2, l2) = share.arcs
    in_arcs = [False] * m if m else []
    for s, l in ((s1, l1), (s2, l2)):
        for t in range(l):
            in_arcs[(s + t) % m] = True
    hit = set()
    for pos in range(m):
        if in_arcs[pos]:
            hit.add(d.word[pos])
    for ch in hit:
        i, j = d.endpoints(ch)
        if not (in_arcs[i] and in_arcs[j]):
            raise DiagramError(f"arcs are not closed under chord {ch}")
    if hit != set(share.chords):
        raise DiagramError("share chord set does not match its arcs")


def mutated_word(d: ChordDiagram, share: Share, kind: MutationKind) -> tuple[int, ...]:
    """Re-glued word with original chord ids preserved (not normalized)."""
    _check_share(d, share)
    return _reglue(_share_segments(d.word, share.arcs), kind)


def _reglue(segments, kind: MutationKind) -> tuple[int, ...]:
    a1, g1, a2, g2 = segments
    if kind is MutationKind.ROTATION:
        return a2 + g1 + a1 + g2
    if kind is MutationKind.REFLECTION_VERTICAL:
        return a1[::-1] + g1 + a2[::-1] + g2
    if kind is MutationKind.REFLECTION_HORIZONTAL:
        return a2[::-1] + g1 + a1[::-1] + g2
    raise ValueError(f"unknown mutation kind: {kind!r}")


def apply_mutation(d: ChordDiagram, share: Share, kind: MutationKind) -> ChordDiagram:
    """Mutate d by re-gluing the share with the chosen symmetry."""
    return ChordDiagram(mutated_word(d, share, kind))
