"""Polynomials over GF(p) and the cyclic ring GF(p)[x]/(x^N - 1).

Coefficients are stored in ascending degree order (index i holds the
coefficient of x^i), normalized so the tuple has no trailing zeros; the
zero polynomial is the empty tuple. The degree of the zero polynomial is
reported as -1.

The one non-obvious convention in this module is
:func:`reversed_coefficient_row`: the length-N row vector whose cyclic
shifts build the circulant matrices used elsewhere places the *leading*
coefficient first and the constant term at index deg(h), with zeros
after. That placement is what makes the circulant's first N-k rows a
parity-check matrix for the cyclic code with check polynomial h.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import ModulusMismatchError, PrimeField


def _normalize(coeffs, p: int) -> tuple[int, ...]:
    out = [int(c) % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class FieldPoly:
    """Dense univariate polynomial over GF(p), ascending coefficients."""

    coeffs: tuple[int, ...]
    field: PrimeField

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _normalize(self.coeffs, self.field.p))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "FieldPoly":
        return cls((), field)

    @classmethod
    def one(cls, field: PrimeField) -> "FieldPoly":
        return cls((1,), field)

    @classmethod
    def monomial(cls, field: PrimeField, degree: int, coeff: int = 1) -> "FieldPoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (coeff,), field)

    # -- basics --------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _check(self, other: "FieldPoly") -> None:
        if not isinstance(other, FieldPoly):
            raise TypeError(f"expected FieldPoly, got {type(other).__name__}")
        if other.field != self.field:
            raise ModulusMismatchError(
                f"cannot combine polynomials over {self.field!r} and {other.field!r}"
            )

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "FieldPoly") -> "FieldPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FieldPoly(
            tuple(self.coeff(i) + other.coeff(i) for i in range(n)), self.field
        )

    def __sub__(self, other: "FieldPoly") -> "FieldPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FieldPoly(
            tuple(self.coeff(i) - other.coeff(i) for i in range(n)), self.field
        )

    def __neg__(self) -> "FieldPoly":
        return FieldPoly(tuple(-c for c in self.coeffs), self.field)

    def __mul__(self, other: "FieldPoly") -> "FieldPoly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return FieldPoly.zero(self.field)
        p = self.field.p
        acc = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                acc[i + j] = (acc[i + j] + a * b) % p
        return FieldPoly(tuple(acc), self.field)

    def scaled(self, c: int) -> "FieldPoly":
        return FieldPoly(tuple(c * a for a in self.coeffs), self.field)

    def __pow__(self, e: int) -> "FieldPoly":
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = FieldPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "FieldPoly") -> tuple["FieldPoly", "FieldPoly"]:
        """Euclidean division; remainder degree < divisor degree."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead_inv = self.field.inv(div[-1])
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            q = (rem[i] * lead_inv) % p
            if q == 0:
                continue
            quot[i - dd] = q
            for j, b in enumerate(div):
                rem[i - dd + j] = (rem[i - dd + j] - q * b) % p
        return FieldPoly(tuple(quot), self.field), FieldPoly(tuple(rem), self.field)

    def __floordiv__(self, other: "FieldPoly") -> "FieldPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FieldPoly") -> "FieldPoly":
        return divmod(self, other)[1]

    def monic(self) -> "FieldPoly":
        if self.is_zero():
            return self
        return self.scaled(self.field.inv(self.coeffs[-1]))

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                parts.append(f"{head}x" if i == 1 else f"{head}x^{i}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"FieldPoly({self}, {self.field!r})"


def reversed_coefficient_row(poly: FieldPoly, n: int) -> tuple[int, ...]:
    """Length-n row: coefficients in descending degree, zeros after.

    For h of degree d this is (h_d, h_{d-1}, ..., h_0, 0, ..., 0). Cyclic
    right-shifts of this row are the rows of the circulant matrices built
    from check polynomials.
    """
    if poly.degree >= n:
        raise ValueError(f"degree {poly.degree} polynomial does not fit in a length-{n} row")
    rev = tuple(reversed(poly.coeffs))
    return rev + (0,) * (n - len(rev))


@dataclass(frozen=True)
class CyclicRing:
    """The quotient ring GF(p)[x] / (x^n - 1)."""

    n: int
    field: PrimeField

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ring length must be at least 1")

    def reduce(self, poly: FieldPoly) -> FieldPoly:
        """Fold exponents mod n."""
        if poly.field != self.field:
            raise ModulusMismatchError("polynomial field does not match ring field")
        acc = [0] * self.n
        for i, c in enumerate(poly.coeffs):
            acc[i % self.n] = (acc[i % self.n] + c) % self.field.p
        return FieldPoly(tuple(acc), self.field)

    def mul(self, a: FieldPoly, b: FieldPoly) -> FieldPoly:
        """Product with exponents folded mod n.

        Both factors must already live in the ring (degree < n).
        """
        if a.field != self.field or b.field != self.field:
            raise ModulusMismatchError("polynomial field does not match ring field")
        if a.degree >= self.n or b.degree >= self.n:
            raise ValueError("factors must have degree below the ring length")
        p = self.field.p
        acc = [0] * self.n
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                k = (i + j) % self.n
                acc[k] = (acc[k] + x * y) % p
        return FieldPoly(tuple(acc), self.field)

    def from_vector(self, v) -> FieldPoly:
        """Interpret a length-n vector (v_0, ..., v_{n-1}) as sum v_i x^i."""
        v = list(v)
        if len(v) != self.n:
            raise ValueError(f"expected a length-{self.n} vector, got {len(v)}")
        return FieldPoly(tuple(v), self.field)

    def to_vector(self, poly: FieldPoly) -> tuple[int, ...]:
        """The length-n coefficient vector of a ring element (degree < n)."""
        if poly.degree >= self.n:
            raise ValueError(f"polynomial of degree {poly.degree} does not fit in length {self.n}")
        return poly.coeffs + (0,) * (self.n - len(poly.coeffs))

    def inverse(self, c: FieldPoly) -> tuple[int, FieldPoly | None]:
        """(Res(x^n - 1, c), c^-1 or None) from one Euclidean remainder sequence.

        The resultant is the determinant of the circulant whose first column is
        c; it is nonzero iff gcd(c, x^n - 1) = 1, and then c^-1 is c's Bezout
        coefficient. Each step a = q*b + r uses Res(a, b) = (-1)^(deg a deg b)
        lc(b)^(deg a - deg r) Res(b, r), and Res(a, b0) = b0^(deg a).
        """
        if c.field != self.field:
            raise ModulusMismatchError("polynomial field does not match ring field")
        p = self.field.p
        a, b = FieldPoly.monomial(self.field, self.n) - FieldPoly.one(self.field), c
        # s_a * c = a and s_b * c = b modulo x^n - 1
        s_a, s_b = FieldPoly.zero(self.field), FieldPoly.one(self.field)
        res = 1
        while b.degree > 0:
            q, r = divmod(a, b)
            if r.is_zero():
                return 0, None
            sign = -1 if a.degree * b.degree % 2 else 1
            res = res * sign * pow(b.coeffs[-1], a.degree - r.degree, p) % p
            a, b, s_a, s_b = b, r, s_b, s_a - q * s_b
        if b.is_zero():
            return 0, None
        b0 = b.coeffs[0]
        return res * pow(b0, a.degree, p) % p, s_b.scaled(pow(b0, -1, p))
