"""The universal sl2 weight system, valued in integer polynomials in the
Casimir variable c.

Two independent implementations are provided:

* an oracle that contracts the diagram in the irreducible representations
  of dimensions 2..n+2 (in the weight basis, exact integers) and recovers
  the polynomial by exact rational interpolation at the Casimir
  eigenvalues, and
* a fast recursive evaluator built on the leaf/isolated-chord rules and
  the local six-term relations, memoized on canonical codes.

The invariant bilinear form is fixed as twice the trace form of the
2-dimensional defining representation, so the Casimir eigenvalue on the
(lam+1)-dimensional irreducible is lam*(lam+2)/4, a single chord
evaluates to c, and deleting a leaf contributes a factor (c - 1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .diagrams import ChordDiagram, _normalize, canonical_word_bytes, word_positions
from .graphs import interleave_rows
from .polynomials import C, ONE, IntPolynomial


class NormalizationError(ArithmeticError):
    """Contraction results incompatible with the integer polynomial model."""


# ---------------------------------------------------------------------------
# irreducible representations


def rep_matrices(lam: int) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Integer matrices of (e, f, h) on the irreducible of highest weight lam."""
    m = lam + 1
    e = [[0] * m for _ in range(m)]
    f = [[0] * m for _ in range(m)]
    h = [[0] * m for _ in range(m)]
    for k in range(m):
        h[k][k] = lam - 2 * k
        if k + 1 < m:
            f[k + 1][k] = 1
            e[k][k + 1] = (k + 1) * (lam - k)
    return e, f, h


def casimir_eigenvalue(lam: int) -> Fraction:
    return Fraction(lam * (lam + 2), 4)


# ---------------------------------------------------------------------------
# exact contraction in the weight basis


def _contraction_trace(word: Sequence[int], lam: int) -> int:
    """Sum over chord assignments of the trace of the circular product of
    (2e, 2f, h) at each chord's first end and (f, e, h) at its second end.

    In the weight basis e, f and h each send a basis vector to a multiple
    of one basis vector, so a path from start index i sits at i plus the
    shifts (+1, -1, 0) of the chords it has opened and not closed.  Paths
    that agree on the open chords merge into one vector of exact ints,
    one per start index, and the trace is the sum of the final vector.
    """
    m = lam + 1
    e, f, h = rep_matrices(lam)
    up = [e[j][j + 1] for j in range(lam)] + [0]
    down = [0] + [f[j][j - 1] for j in range(1, m)]
    diag = [h[j][j] for j in range(m)]
    opens = ([2 * x for x in up], [2 * x for x in down], diag)
    closes = (down, up, diag)
    states: dict[tuple[int, ...], list[int]] = {(): [1] * m}
    opened: list[int] = []
    for ch in word:
        if ch in opened:
            r = opened.index(ch)
            del opened[r]
            moves = [(key, key[:r] + key[r + 1 :], closes[key[r]]) for key in states]
        else:
            opened.append(ch)
            moves = [(key, key + (t,), opens[t]) for key in states for t in range(3)]
        nxt: dict[tuple[int, ...], list[int]] = {}
        for key, new_key, fac in moves:
            s = key.count(0) - key.count(1)
            # only zero entries can sit off the weights 0..lam: fac is 0 at the ends
            vec = [x * fac[i + s] if x else 0 for i, x in enumerate(states[key])]
            if not any(vec):
                continue
            old = nxt.get(new_key)
            nxt[new_key] = vec if old is None else [a + b for a, b in zip(old, vec)]
        states = nxt
    return sum(states.get((), ()))


def _interpolate(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients (ascending) of the unique degree <= k-1 interpolant."""
    k = len(xs)
    coeffs = [Fraction(0)] * k
    for i in range(k):
        num = [Fraction(1)]
        denom = Fraction(1)
        for j in range(k):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for t in range(len(num) - 1):
                num[t] -= xs[j] * num[t + 1]
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for t, co in enumerate(num):
            coeffs[t] += co * scale
    return coeffs


_ORACLE_MEMO: dict[bytes, IntPolynomial] = {}


def sl2_oracle(d: ChordDiagram) -> IntPolynomial:
    """Value of the sl2 weight system by contraction and interpolation.

    Contracts the diagram in the n+1 irreducibles of dimension 2..n+2,
    reads off the scalar by which the resulting central element acts,
    and interpolates at the Casimir eigenvalues with exact rationals.
    Raises NormalizationError instead of ever rounding.
    """
    n = d.n
    if n == 0:
        return IntPolynomial([1])
    code = canonical_word_bytes(d.word)
    cached = _ORACLE_MEMO.get(code)
    if cached is not None:
        return cached
    xs = [casimir_eigenvalue(lam) for lam in range(1, n + 2)]
    ys = []
    for lam in range(1, n + 2):
        tr = _contraction_trace(d.word, lam)
        ys.append(Fraction(tr, (lam + 1) * 4**n))
    coeffs = _interpolate(xs, ys)
    if any(co.denominator != 1 for co in coeffs):
        raise NormalizationError(f"non-integer coefficients: {coeffs}")
    poly = IntPolynomial([int(co) for co in coeffs])
    if poly.degree != n or poly.leading_coefficient != 1 or poly.coefficient(0) != 0:
        raise NormalizationError(f"contraction gave {poly} for order {n}")
    _ORACLE_MEMO[code] = poly
    return poly


# ---------------------------------------------------------------------------
# recursive evaluation: leaf / isolated-chord rules + six-term relations

def _delete_chord(word: tuple[int, ...], ch: int) -> tuple[int, ...]:
    return _normalize(x for x in word if x != ch)


def _swap(word: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    w = list(word)
    w[i], w[j] = w[j], w[i]
    return tuple(w)


def _word_from_partner(m: int, partner: dict[int, int], removed: frozenset[int]):
    label: dict[tuple[int, int], int] = {}
    out = []
    for pos in range(m):
        if pos in removed:
            continue
        mate = partner[pos]
        key = (pos, mate) if pos < mate else (mate, pos)
        if key not in label:
            label[key] = len(label)
        out.append(label[key])
    return tuple(out)


_SL2_MEMO: dict[bytes, IntPolynomial] = {b"": ONE}


def _sl2_value(word: tuple[int, ...]) -> IntPolynomial:
    code = canonical_word_bytes(word)
    cached = _SL2_MEMO.get(code)
    if cached is not None:
        return cached
    val: IntPolynomial | None = None
    rows = interleave_rows(word)
    for ch, row in enumerate(rows):
        k = row.bit_count()
        if k == 0:
            val = C * _sl2_value(_delete_chord(word, ch))
            break
        if k == 1:
            val = (C - 1) * _sl2_value(_delete_chord(word, ch))
            break
    if val is None:
        val = _six_term_step(word, rows)
    _SL2_MEMO[code] = val
    return val


def _six_term_step(word: tuple[int, ...], rows: Sequence[int]) -> IntPolynomial:
    """Expand across the six-term relation at a minimal arc.

    ``rows`` are the word's :func:`interleave_rows`.

    For the chord x bounding the shortest arc, both extreme endpoints of
    that arc belong to distinct chords a, b crossing x (any chord fully
    inside would bound a shorter arc; leaves and isolated chords have
    been removed already).  Writing d for the current diagram, the value
    satisfies

        v(d) = v(d with a flipped past x) + v(d with b flipped past x)
             - v(d with both flipped)
             + v(x deleted; near ends joined, far ends joined)
             - v(x deleted; each near end joined to the other far end)

    where "flipped" transposes the two adjacent endpoints, removing that
    crossing, and the last two terms re-pair the four endpoints of a and
    b into two fresh chords.
    """
    m = len(word)
    pairs = word_positions(word)
    best: tuple[int, int, int] | None = None
    for i, j in pairs:
        inner = j - i - 1
        outer = m - inner - 2
        for length, pp, qq in ((inner, i, j), (outer, j, i)):
            if best is None or (length, pp) < (best[0], best[1]):
                best = (length, pp, qq)
    if best is None or best[0] < 2:
        raise AssertionError("reduction invariant violated")
    _, p, q = best
    a_near = (p + 1) % m
    b_near = (q - 1) % m
    x, a, b = word[p], word[a_near], word[b_near]
    if len({x, a, b}) != 3:
        raise AssertionError("arc extremes must be two distinct chords")
    if not (rows[x] >> a & 1 and rows[x] >> b & 1):
        raise AssertionError("arc extremes must cross the chord")
    a_far = pairs[a][0] if pairs[a][1] == a_near else pairs[a][1]
    b_far = pairs[b][0] if pairs[b][1] == b_near else pairs[b][1]

    d_a = _swap(word, p, a_near)
    d_b = _swap(word, b_near, q)
    d_ab = _swap(d_a, b_near, q)

    partner: dict[int, int] = {}
    for i, j in pairs:
        partner[i] = j
        partner[j] = i
    removed = frozenset((p, q))
    nn = dict(partner)
    nn[a_near], nn[b_near] = b_near, a_near
    nn[a_far], nn[b_far] = b_far, a_far
    nf = dict(partner)
    nf[a_near], nf[b_far] = b_far, a_near
    nf[b_near], nf[a_far] = a_far, b_near
    d_nn = _word_from_partner(m, nn, removed)
    d_nf = _word_from_partner(m, nf, removed)

    val = _sl2_value(d_a) + _sl2_value(d_b) - _sl2_value(d_ab)
    return val + _sl2_value(d_nn) - _sl2_value(d_nf)


def sl2_recursive(d: ChordDiagram) -> IntPolynomial:
    """Value of the sl2 weight system by the recurrence relations.

    Agrees with :func:`sl2_oracle` everywhere; memoized on canonical
    codes, so repeated and related evaluations are cheap.  The memo
    table only ever receives idempotent inserts, which keeps it safe
    under concurrent use.
    """
    return _sl2_value(d.word)
