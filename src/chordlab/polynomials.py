"""Exact integer polynomials in the Casimir variable c.

Coefficients are arbitrary-precision Python ints stored densely,
lowest degree first, with no trailing zeros.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return tuple(coeffs[:k])


class IntPolynomial:
    """Immutable polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = _trim(list(coeffs))
        if any(not isinstance(x, int) for x in cs):
            raise TypeError("coefficients must be ints")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, k: int) -> int:
        """Coefficient of c**k (0 for k beyond the stored degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == _trim([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "IntPolynomial":
        return _combine(self.coeffs, _coerce(other).coeffs, 1)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return _trusted([-x for x in self.coeffs])

    def __sub__(self, other) -> "IntPolynomial":
        return _combine(self.coeffs, _coerce(other).coeffs, -1)

    def __rsub__(self, other) -> "IntPolynomial":
        return _coerce(other) - self

    def __mul__(self, other) -> "IntPolynomial":
        a, b = self.coeffs, _coerce(other).coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _trusted(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate with Horner's rule (x may be int or Fraction)."""
        acc = 0
        for co in reversed(self.coeffs):
            acc = acc * x + co
        return acc

    def pretty(self) -> str:
        """Render as signed monomials, e.g. ``c^4-4c^3+8c^2-4c``."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            a = self.coeffs[k]
            if a == 0:
                continue
            sign = "-" if a < 0 else ("+" if parts else "")
            mag = abs(a)
            if k == 0:
                body = str(mag)
            else:
                var = "c" if k == 1 else f"c^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + body)
        return "".join(parts)

    __str__ = pretty

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


def _combine(a: tuple[int, ...], b: tuple[int, ...], sign: int) -> IntPolynomial:
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] += sign * x
    return _trusted(out)


def _trusted(out: list[int]) -> IntPolynomial:
    """Operator results: ``out`` holds ints only and nothing else holds
    it, so it is trimmed in place and not copied or checked again."""
    while out and not out[-1]:
        out.pop()
    poly = object.__new__(IntPolynomial)
    object.__setattr__(poly, "coeffs", tuple(out))
    return poly


def _coerce(x) -> IntPolynomial:
    if isinstance(x, IntPolynomial):
        return x
    if isinstance(x, int):
        return IntPolynomial([x])
    raise TypeError(f"cannot coerce {type(x).__name__} to IntPolynomial")


ZERO = IntPolynomial()
ONE = IntPolynomial([1])
C = IntPolynomial([0, 1])
