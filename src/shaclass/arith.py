"""Exact integer and F_p arithmetic helpers.

Everything here works on plain Python ints (arbitrary precision).  The
factorization routine follows a fixed policy: trial division by all primes
up to 10**6, then Brent's variant of Pollard rho, but only if the remaining
cofactor is at most 2**128; larger cofactors raise FactorizationTooHard
instead of stalling.  Trial division walks cached prime tables up to 16,
256, 4096, 65536 and 10**6 in turn, each from where the last one ended, and
builds the next table only while the last one's limit squared is below the
cofactor still left, so small factors never cost a large sieve.
"""

from functools import lru_cache
from itertools import compress, islice
from math import comb, gcd, isqrt

from .errors import FactorizationTooHard

TRIAL_DIVISION_BOUND = 10**6
_TABLE_LIMITS = (16, 256, 4096, 65536, TRIAL_DIVISION_BOUND)
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
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
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
    if n < 43 * 43:  # a composite below 43^2 has a prime factor <= 41
        return True
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
    # each table is read past the end of the previous one, and the next is
    # built only while limit^2 < n for the cofactor n left: the primes tried
    # are those up to min(isqrt(n), 10^6), stopping at the first p^2 > n
    start = 0
    for limit in _TABLE_LIMITS:
        table = primes_up_to(limit)
        for p in islice(table, start, None):
            if p * p > n:
                break
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        if limit * limit >= n:
            break
        start = len(table)
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


def exact_div(x, q):
    """x // q, raising ArithmeticError unless q divides x."""
    quo, rem = divmod(x, q)
    if rem:
        raise ArithmeticError(f"expected {q} | {x}")
    return quo


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
# degree order.  _zmul, _zsub and _zadd work over Z, on division polynomials
# of degree up to (p^2-1)/2 among others; the _p helpers reduce over Z/m,
# dividing only by polynomials whose leading coefficient is a unit mod m.
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


def _zadd(f, g):
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]


def _ptrim(f, m):
    f = [c % m for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _pdivmod(f, g, m):
    """Quotient and remainder of f by g over Z/m (g nonzero, unit leading coefficient)."""
    f = _ptrim(f, m)
    g = _ptrim(g, m)
    inv = pow(g[-1], -1, m)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = f[shift + dg] * inv % m
        if c:
            q[shift] = c
            for i in range(dg):  # the top coefficient cancels and is not read again
                f[shift + i] = (f[shift + i] - c * g[i]) % m
    r = f[:dg]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _prem(f, g, p):
    """Remainder of f modulo g over F_p (g nonzero)."""
    return _pdivmod(f, g, p)[1]


def _pgcd(f, g, p):
    f, g = _ptrim(f, p), _ptrim(g, p)
    while g:
        f, g = g, _prem(f, g, p)
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def _pinvmod(a, h, p):
    """Inverse of a modulo h over F_p; raises ArithmeticError unless gcd(a, h) = 1."""
    r0, r1 = _ptrim(h, p), _prem(a, h, p)
    s0, s1 = [], [1]  # r_i = s_i a mod h
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _ptrim(_zsub(s0, _zmul(q, s1)), p)
    if len(r0) != 1:
        raise ArithmeticError("polynomials are not coprime mod p")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0]


def _ppow(b, e, f, p):
    """b^e mod f over F_p (f nonzero), by square-and-multiply."""
    out = [1]
    while e:
        if e & 1:
            out = _prem(_zmul(out, b), f, p)
        b = _prem(_zmul(b, b), f, p)
        e >>= 1
    return out


def count_roots_mod(f, p):
    """Number of distinct roots of f in F_p: the degree of gcd(f, x^p - x)."""
    f = _ptrim(f, p)
    if not f:
        raise ValueError("zero polynomial")
    return len(_pgcd(f, _zsub(_ppow([0, 1], p, f, p), [0, 1]), p)) - 1


def hensel_lifts(f, h, ell):
    """Lift a monic factor h of the integer polynomial f mod the prime ell.

    h must be coprime mod ell to its cofactor g, and ell must not divide the
    leading coefficient of f.  Yields (M, H) for M = ell^2, ell^4, ...: H is
    monic, H = h mod ell, and H divides f mod M.  Each step is a Newton step
    on H and on s = 1/g mod H, so it works modulo H and costs one division
    of f by H, not products with the cofactor.
    """
    g, r = _pdivmod(f, h, ell)
    if r:
        raise ValueError("h does not divide f mod ell")
    s = _pinvmod(g, h, ell)
    m = ell
    while True:
        m *= m
        # f = g h + r with r = 0 mod sqrt(m); h + (s r mod h) divides f mod m
        r = _pdivmod(f, h, m)[1]
        h = _ptrim(_zadd(h, _pdivmod(_zmul(s, r), h, m)[1]), m)
        g = _pdivmod(f, h, m)[0]
        gs = _pdivmod(_zmul(g, s), h, m)[1]
        s = _pdivmod(_zmul(s, _zsub([2], gs)), h, m)[1]  # 1 - g s is squared
        yield m, h


def exact_quotient(f, g):
    """f / g in Z[x]; raises ArithmeticError unless g divides f exactly.

    For a primitive g this decides divisibility in Q[x] too (Gauss's lemma).
    """
    f = list(f)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    for shift in range(len(q) - 1, -1, -1):
        c, r = divmod(f[shift + dg], g[-1])
        if r:
            raise ArithmeticError("quotient is not integral")
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] -= c * b
    if any(f):
        raise ArithmeticError("nonzero remainder")
    return q


def _root_bound_log2(f):
    """log2 of a power of two bounding every complex root of f.

    Fujiwara: |z| <= 2 max_i |f_(n-i) / f_n|^(1/i).
    """
    n, lead = len(f) - 1, abs(f[-1])
    log_r = 0
    for i in range(1, n + 1):
        ratio = -(-abs(f[n - i]) // lead)  # ceil |f_(n-i) / f_n| < 2^bits
        log_r = max(log_r, -(-ratio.bit_length() // i))
    return log_r + 1


def lift_rational_factor(f, h, ell):
    """A primitive factor of f in Z[x] that is h times a unit mod ell, or None.

    f is an integer polynomial, ell a prime not dividing its leading
    coefficient, and h a monic factor of f mod ell coprime to its cofactor.
    A factor g of f in Z[x] has lc(g) | lc(f), so lc(f) g / lc(g) is an
    integer polynomial: lc(f) times the Hensel-lifted monic h.  Its
    coefficients are read as symmetric residues of lc(f) times the lift, and
    the primitive part is kept only if it divides f exactly.

    If f has a factor g over Q that reduces to h, the coefficient of x^i in
    lc(f) g / lc(g) is at most C(d, i) R^(d-i) |lc(f)|, for d = deg h and R
    a bound on the roots of f.  Once the modulus exceeds twice that bound, a
    residue outside it proves that no such g exists, which ends the lift
    early for most h.
    """
    lead, d = abs(f[-1]), len(h) - 1
    r = 1 << _root_bound_log2(f)
    bounds = [comb(d, i) * r ** (d - i) * lead for i in range(d + 1)]
    for m, lifted in hensel_lifts(f, h, ell):
        g = []
        for c, bound in zip(lifted, bounds):
            value = (lead * c + m // 2) % m - m // 2
            if abs(value) > bound and m > 2 * bound:
                return None
            g.append(value)
        content = gcd(*g) if g[-1] > 0 else -gcd(*g)
        g = [c // content for c in g]
        try:
            exact_quotient(f, g)
            return g
        except ArithmeticError:
            if m > 2 * max(bounds):  # every coefficient was read exactly
                return None


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
