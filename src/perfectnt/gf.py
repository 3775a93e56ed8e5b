"""Prime fields GF(p) and the bound on the moduli this package accepts.

Values are canonical residues in [0, p), held as plain ints or int64
arrays. The layers above reduce after each product, which is exact only
while p is below :data:`MAX_MODULUS`; larger moduli are refused here,
before anything is computed with them. Code lengths past
:data:`MAX_LENGTH` are refused by the constructions in
:mod:`perfectnt.codes` in the same way.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

# Keeps every int64 product exact; the bounds are stated once, in the
# docstring of perfectnt.matrix.
MAX_MODULUS = 2**21

# The longest code accepted by the Hamming constructions, which refuse a
# longer one from p and m alone, before anything is enumerated. A dense N x N
# int64 view of a transform then takes at most 2 GiB, and the longest binary
# Hamming code it admits is N = 2**14 - 1 (m = 14).
MAX_LENGTH = 2**14


class ModulusMismatchError(ValueError):
    """Raised when values from different prime fields are combined."""


def require_integer(value, name: str) -> int:
    """`value` as an int; a float, string, bool or other object is a ValueError."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def is_prime(n: int) -> bool:
    """Trial-division primality test; the moduli used here are tiny."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, repr=False)
class PrimeField:
    """The field GF(p). Doubles as the modulus tag carried by values."""

    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", require_integer(self.p, "modulus"))
        # checked first so trial division below runs at most ~1450 steps
        if self.p >= MAX_MODULUS:
            raise ValueError(
                f"modulus {self.p} is too large: int64 arithmetic is exact "
                f"only for p < 2**21 = {MAX_MODULUS}"
            )
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero residue."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, -1, self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"
