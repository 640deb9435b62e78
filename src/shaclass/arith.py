"""Exact integer and F_p arithmetic helpers.

Everything here works on plain Python ints (arbitrary precision).  The
factorization routine follows a fixed policy: trial division by all primes
up to 10**6, then Brent's variant of Pollard rho, but only if the remaining
cofactor is at most 2**128; larger cofactors raise FactorizationTooHard
instead of stalling.
"""

from functools import lru_cache
from itertools import compress
from math import gcd

from .errors import FactorizationTooHard

TRIAL_DIVISION_BOUND = 10**6
RHO_CUTOFF = 2**128

# Deterministic Miller-Rabin base set, valid for n < 3,317,044,064,679,887,385,961,981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def primes_up_to(limit):
    """Primes up to limit (inclusive), as a tuple."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return tuple(compress(range(limit + 1), flags))


def _miller_rabin(n, base):
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n):
    """Primality test; deterministic for n below ~3.3e24, BPSW above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_miller_rabin(n, b) for b in _MR_BASES)
    import sympy

    return sympy.isprime(n)


def rational_factors(coeffs):
    """Irreducible factors over Q of an integer polynomial.

    coeffs are the integer coefficients, lowest degree first; returns
    (factor coefficients, multiplicity) pairs, each factor primitive in Z[x].
    """
    import sympy

    poly = sympy.Poly(coeffs[::-1], sympy.symbols("x"))
    return [([int(c) for c in f.all_coeffs()[::-1]], e) for f, e in poly.factor_list()[1]]


def _pollard_rho(n, seed=1):
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    while True:
        y, c, m = seed % n, seed % n + 1, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def factor(n):
    """Factor |n| into {prime: exponent}. n must be nonzero.

    Raises FactorizationTooHard if the cofactor left after trial division
    exceeds 2**128.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out = {}
    for p in primes_up_to(TRIAL_DIVISION_BOUND):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return out
    if n > RHO_CUTOFF:
        raise FactorizationTooHard(f"cofactor {n} exceeds 2^128")
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def valuation(n, p):
    """Exponent of p in n (n nonzero)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre(a, p):
    """Legendre symbol (a/p) for odd prime p: 1, -1, or 0."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


# ---------------------------------------------------------------------------
# Polynomial arithmetic.  Polynomials are lists of coefficients in ascending
# degree order.  _zmul and _zsub work over Z, on division polynomials of
# degree up to (p^2-1)/2 among others; the rest reduce over F_p.
# ---------------------------------------------------------------------------


def _zmul(*polys):
    """Product of integer polynomials (coefficient lists, lowest degree first)."""
    out = [1]
    for g in polys:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        out = prod
    return out


def _zsub(f, g):
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]


def _ptrim(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _prem(f, g, p):
    """Remainder of f modulo g over F_p (g nonzero)."""
    f = _ptrim(f, p)
    g = _ptrim(g, p)
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        for i, b in enumerate(g):
            f[i + shift] = (f[i + shift] - c * b) % p
        f = _ptrim(f, p)
        if not f:
            break
    return f


def _pgcd(f, g, p):
    f, g = _ptrim(f, p), _ptrim(g, p)
    while g:
        f, g = g, _prem(f, g, p)
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def count_roots_mod(f, p):
    """Number of distinct roots of f in F_p: the degree of gcd(f, x^p - x)."""
    f = _ptrim(f, p)
    if not f:
        raise ValueError("zero polynomial")
    # x^p mod f by square-and-multiply
    xp, base, e = [1], [0, 1], p
    while e:
        if e & 1:
            xp = _prem(_zmul(xp, base), f, p)
        base = _prem(_zmul(base, base), f, p)
        e >>= 1
    return len(_pgcd(f, _zsub(xp, [0, 1]), p)) - 1


def quadratic_roots(A, B, C, p):
    """Roots in F_p of A X^2 + B X + C, for A a unit mod p (p any prime).

    Returns (number of distinct roots in F_p, double root or None); the
    double root is None exactly when the roots are distinct over the closure.
    """
    if p == 2:  # A = 1 mod 2
        if B % 2 == 0:
            return 1, C % 2  # X^2 + C = (X + C)^2
        return (2 if C % 2 == 0 else 0), None
    disc = (B * B - 4 * A * C) % p
    if disc == 0:
        return 1, -B * pow(2 * A, -1, p) % p
    return (2 if legendre(disc, p) == 1 else 0), None
