import pytest
from hypothesis import given, strategies as st

from shaclass.arith import (
    count_roots_mod,
    factor,
    is_prime,
    legendre,
    primes_up_to,
    quadratic_roots_count,
    valuation,
)
from shaclass.errors import FactorizationTooHard

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 97, 101, 1009, 104729]
SMALL_COMPOSITES = [1, 4, 6, 91, 561, 1105, 104728, 2**31 - 2]


def test_is_prime_known_values():
    for p in SMALL_PRIMES:
        assert is_prime(p)
    for n in SMALL_COMPOSITES:
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # Cole's factorization


@given(st.integers(min_value=2, max_value=10**9))
def test_factor_reconstructs(n):
    f = factor(n)
    prod = 1
    for p, e in f.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_factor_big_semiprime():
    p, q = 1000003, 1000033
    assert factor(p * q) == {p: 1, q: 1}


def test_factor_too_hard_guard():
    # two 70-digit-ish primes: cofactor after trial division exceeds 2^128
    n = (2**89 - 1) * (2**107 - 1)
    with pytest.raises(FactorizationTooHard):
        factor(n)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(-2**12, 2) == 12


@given(st.integers(min_value=0, max_value=10**6))
def test_legendre_matches_squares(a):
    p = 101
    squares = {x * x % p for x in range(1, p)}
    sym = legendre(a, p)
    if a % p == 0:
        assert sym == 0
    elif a % p in squares:
        assert sym == 1
    else:
        assert sym == -1


@pytest.mark.parametrize("p", [3, 5, 7, 101, 10007])
def test_count_roots_matches_enumeration(p):
    import random

    rng = random.Random(p)
    for _ in range(20):
        f = [rng.randrange(p) for _ in range(4)]
        if not any(f):
            f[3] = 1
        expected = sum(
            1
            for x in range(p)
            if (f[0] + f[1] * x + f[2] * x * x + f[3] * x**3) % p == 0
        )
        if p > 100:
            # enumeration is the oracle only for small p; for large p spot
            # check with polynomials of known splitting
            break
        assert count_roots_mod(f, p) == expected
    # x^2 - 1 has two roots everywhere; x^2 - n for a nonresidue has none
    assert count_roots_mod([-1, 0, 1], p) == 2


def test_quadratic_roots_count():
    assert quadratic_roots_count(0, -1, 5) == 2  # T^2 - 1
    assert quadratic_roots_count(0, 2, 5) == 0  # T^2 + 2 irreducible mod 5
    assert quadratic_roots_count(3, 0, 5) == 2
    assert quadratic_roots_count(1, 1, 2) == 0
    assert quadratic_roots_count(1, 0, 2) == 2


def test_primes_up_to():
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(primes_up_to(1000)) == 168
    assert primes_up_to(0) == primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert len(primes_up_to(10**6)) == 78498
