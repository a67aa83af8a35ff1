"""The universal sl2 weight system, valued in integer polynomials in the
Casimir variable c.

Two independent implementations are provided:

* an oracle that contracts the diagram in the irreducible representations
  of dimensions 2..n+2 and recovers the polynomial by exact rational
  interpolation at the Casimir eigenvalues, and
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

import numpy as np

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
# exact contraction via CRT over word-sized primes

_PRIMES: list[int] = []


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _primes_with_product_above(bound: int) -> list[int]:
    """Deterministic 25-bit primes whose product exceeds the bound."""
    prod = 1
    out = []
    candidate = (1 << 25) - 1
    for p in _PRIMES:
        out.append(p)
        prod *= p
        if prod > bound:
            return out
    if _PRIMES:
        candidate = _PRIMES[-1] - 2
    while prod <= bound:
        while not _is_prime(candidate):
            candidate -= 2
        _PRIMES.append(candidate)
        out.append(candidate)
        prod *= candidate
        candidate -= 2
    return out


def _trace_mod(word: Sequence[int], lam: int, p: int) -> int:
    """Sum over chord assignments of the trace of the circular product,
    with metric weights folded in, reduced mod p."""
    m = lam + 1
    e, f, h = rep_matrices(lam)
    E = np.array(e, dtype=np.int64) % p
    F = np.array(f, dtype=np.int64) % p
    H = np.array(h, dtype=np.int64) % p
    opens = [(2 * E) % p, (2 * F) % p, H]
    closes = [F, E, H]

    T = np.eye(m, dtype=np.int64)[None, :, :]
    rank_of: dict[int, int] = {}
    for ch in word:
        if ch not in rank_of:
            rank_of[ch] = len(rank_of)
            T = np.concatenate([(T @ M) % p for M in opens], axis=0)
        else:
            r = rank_of[ch]
            V = T.reshape(-1, 3, 3**r, m, m)
            for t in range(3):
                V[:, t] = (V[:, t] @ closes[t]) % p
            T = V.reshape(-1, m, m)
    return int(np.trace(T, axis1=1, axis2=2).sum() % p)


def _contraction_trace(word: Sequence[int], lam: int) -> int:
    """Exact contraction trace via CRT over enough primes."""
    n = len(word) // 2
    m = lam + 1
    e_max = max(((k + 1) * (lam - k) for k in range(lam)), default=1)
    entry = max(2 * e_max, lam, 2)
    bound = 3**n * m * (m * entry) ** (2 * n)
    primes = _primes_with_product_above(2 * bound + 1)
    residues = [_trace_mod(word, lam, p) for p in primes]
    x, modulus = 0, 1
    for r, p in zip(residues, primes):
        # incremental CRT
        t = ((r - x) * pow(modulus, -1, p)) % p
        x += modulus * t
        modulus *= p
    if x > modulus // 2:
        x -= modulus
    return x


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
