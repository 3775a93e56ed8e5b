import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perfectnt.gf import MAX_MODULUS, ModulusMismatchError, PrimeField, is_prime
from perfectnt.matrix import FieldMatrix

PRIMES = [2, 3, 5, 7, 11, 13]
LARGEST_PRIME = 2_097_143  # the largest prime below MAX_MODULUS


def test_is_prime_small_values():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("bad", [-7, 0, 1, 4, 9, 15, 21])
def test_nonprime_modulus_rejected(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_field_scalar_ops():
    f = PrimeField(7)
    assert [f.inv(a) for a in range(1, 7)] == [1, 4, 5, 2, 3, 6]
    assert f.inv(-4) == 5  # reduced before inverting
    assert f.inv(10) == 5


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(10)


def test_mixed_moduli_rejected():
    f5, f7 = PrimeField(5), PrimeField(7)
    with pytest.raises(ModulusMismatchError):
        _ = FieldMatrix(f5, [[2]]) @ FieldMatrix(f7, [[2]])


@given(st.sampled_from(PRIMES), st.integers(-100, 100))
def test_inverse_property(p, x):
    f = PrimeField(p)
    if x % p == 0:
        with pytest.raises(ZeroDivisionError):
            f.inv(x)
        return
    inv = f.inv(x)
    assert 0 < inv < p
    assert (x * inv) % p == 1
    assert f.inv(inv) == x % p


def test_modulus_bound():
    assert PrimeField(LARGEST_PRIME).p == LARGEST_PRIME
    assert LARGEST_PRIME < MAX_MODULUS == 2**21
    for bad in (2_097_169, 3_000_017, 2**31 - 1, 2**61 - 1):  # all prime
        with pytest.raises(ValueError, match="too large"):
            PrimeField(bad)


def test_huge_modulus_refused_before_primality_test():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        PrimeField(10**18 + 3)
    assert time.perf_counter() - start < 0.1
