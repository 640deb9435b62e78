import random

import pytest
import sympy
from hypothesis import given, strategies as st

from shaclass import arith
from shaclass.arith import (
    RHO_CUTOFF,
    TRIAL_DIVISION_BOUND,
    count_roots_mod,
    exact_quotient,
    factor,
    is_prime,
    legendre,
    lift_rational_factor,
    primes_up_to,
    quadratic_roots,
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


def _plain_sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(range(i * i, limit + 1, i))
    return [i for i, prime in enumerate(flags) if prime]


def test_is_prime_matches_sieve():
    assert [n for n in range(-2, 10_001) if is_prime(n)] == _plain_sieve(10_000)


def _reference_factor(n, table):
    """factor's policy, written plainly: trial division by the whole table of
    primes up to 10^6, then sympy on a cofactor of at most 2^128."""
    out = {}
    for p in table:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if not sympy.isprime(n) and n > RHO_CUTOFF:
            return "too hard"
        for q, e in sympy.factorint(n).items():
            out[q] = out.get(q, 0) + e
    return out


def test_factor_matches_plain_trial_division():
    """Same factorizations with the prime tables built from scratch, in both orders of n."""
    table = _plain_sieve(TRIAL_DIVISION_BOUND)
    near = [999953, 999959, 999961, 999979, 999983, 1000003, 1000033]
    rng = random.Random(11)
    cases = [p * q for p in near for q in near]  # cofactors just around 10^12
    cases += [10**12 + k for k in range(-6, 7)]
    cases += [rng.randrange(2, 10 ** rng.randrange(2, 16)) for _ in range(60)]
    cases += [2**64 * 999983, 3**5 * 7 * 1000003**2, (2**89 - 1) * 999983]
    cases += [(2**89 - 1) * (2**107 - 1)]  # beyond the rho cutoff
    cases += [999983 * 1000003 * (2**89 - 1)]  # within it only once 999983 is divided out
    for order in (sorted(cases), sorted(cases, reverse=True)):
        primes_up_to.cache_clear()
        for n in order:
            try:
                got = factor(n)
            except FactorizationTooHard:
                got = "too hard"
            assert got == _reference_factor(n, table), n


def test_factor_sieves_only_power_of_16_limits(monkeypatch):
    """From cleared caches, factor builds the tables up to 16, 256, 4096,
    65536 and 10^6 in turn, and the next only while limit^2 < the cofactor."""
    built = []

    def recording(limit):
        if limit not in built:
            built.append(limit)
        return primes_up_to(limit)

    monkeypatch.setattr(arith, "primes_up_to", recording)

    def tables(n, want):
        primes_up_to.cache_clear()
        built.clear()
        assert factor(n) == want
        assert primes_up_to.cache_info().misses == len(built)
        return built

    assert tables(1009 * 1013, {1009: 1, 1013: 1}) == [16, 256, 4096]
    assert primes_up_to(4096)[-1] == 4093 and primes_up_to.cache_info().hits == 1
    for k in range(1, 100):
        assert tables(2**k, {2: k}) == [16]
    # 999983 < 1009^2 is left once the 2s are gone: no table past 4096
    assert tables(2**64 * 999983, {2: 64, 999983: 1}) == [16, 256, 4096]
    # a corpus-style gcd(c4, c6): its largest prime factor is 31
    assert tables(2**30 * 3 * 7 * 31, {2: 30, 3: 1, 7: 1, 31: 1}) == [16]
    assert tables(999983 * 1000003, {999983: 1, 1000003: 1}) == [16, 256, 4096, 65536, 10**6]
    assert list(primes_up_to(TRIAL_DIVISION_BOUND)) == _plain_sieve(TRIAL_DIVISION_BOUND)


def _monic_mod(g, ell):
    inv = pow(g[-1], -1, ell)
    return [c * inv % ell for c in g]


def test_lift_rational_factor_finds_each_factor():
    x = sympy.Symbol("x")
    product = sympy.Poly((2 * x - 3) * (x**2 + 5) * (3 * x**3 - x + 7), x)
    f = [int(c) for c in product.all_coeffs()[::-1]]
    ell = 23  # roots mod 23: 13 of 2x - 3, 8 and 15 of x^2 + 5, 9 of the cubic
    for g in ([-3, 2], [5, 0, 1], [7, -1, 0, 3]):
        assert lift_rational_factor(f, _monic_mod(g, ell), ell) == g
    # factors mod 23 that come from no factor over Q
    assert lift_rational_factor(f, [-8 % ell, 1], ell) is None
    x13_x9 = _monic_mod([13 * 9, -22, 1], ell)  # (x - 13)(x - 9)
    assert lift_rational_factor(f, x13_x9, ell) is None


def test_exact_quotient_raises_on_a_remainder():
    assert exact_quotient([-1, 0, 1], [1, 1]) == [-1, 1]
    with pytest.raises(ArithmeticError):
        exact_quotient([1, 0, 1], [1, 1])
    with pytest.raises(ArithmeticError):
        exact_quotient([1, 0, 1], [0, 2])  # x^2 + 1 over 2x: not integral


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
        assert count_roots_mod(f, p) == expected
    # x^2 - 1 has two roots everywhere; x^2 - n for a nonresidue has none
    assert count_roots_mod([-1, 0, 1], p) == 2


def test_quadratic_roots_count():
    assert quadratic_roots(1, 0, -1, 5) == (2, None)  # T^2 - 1
    assert quadratic_roots(1, 0, 2, 5) == (0, None)  # T^2 + 2 irreducible mod 5
    assert quadratic_roots(1, 3, 0, 5) == (2, None)
    assert quadratic_roots(1, 1, 1, 2) == (0, None)
    assert quadratic_roots(1, 1, 0, 2) == (2, None)
    assert quadratic_roots(3, 4, 3, 5) == (1, 1)  # 3 (T - 1)^2 mod 5


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quadratic_roots_exhaustive(p):
    for A in range(1, p):
        for B in range(p):
            for C in range(p):
                roots = [x for x in range(p) if (A * x * x + B * x + C) % p == 0]
                count, double = quadratic_roots(A, B, C, p)
                assert count == len(roots), (A, B, C, p)
                distinct = B % 2 == 1 if p == 2 else (B * B - 4 * A * C) % p != 0
                if distinct:
                    assert double is None, (A, B, C, p)
                else:
                    assert double in roots and (2 * A * double + B) % p == 0, (A, B, C, p)


def test_primes_up_to():
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(primes_up_to(1000)) == 168
    assert primes_up_to(0) == primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert len(primes_up_to(10**6)) == 78498
