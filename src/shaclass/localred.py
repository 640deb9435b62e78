"""Tate's algorithm, Tamagawa numbers, and the auxiliary prime set T.

The algorithm runs on the globally minimal model, v-minimal at every prime,
and takes one path at every prime, 2 and 3 included: each coordinate change
is a closed form (Cremona, Algorithms for Modular Elliptic Curves, 3.2;
Silverman, Advanced Topics, IV.9), checked by raised errors, not asserts.
"""

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .arith import (
    count_roots_mod,
    exact_div,
    factor,
    is_prime,
    quadratic_roots,
    valuation,
)
from .curve import CURVE_CACHE_SIZE, b_invariants, c_invariants, compute_invariants, minimal_model
from .curve import translate
from .errors import InvalidInput

GOOD = "good"
SPLIT_MULTIPLICATIVE = "split multiplicative"
NONSPLIT_MULTIPLICATIVE = "nonsplit multiplicative"
ADDITIVE_POT_MULTIPLICATIVE = "additive potentially multiplicative"
ADDITIVE_POT_GOOD = "additive potentially good"

MULTIPLICATIVE_CLASSES = (SPLIT_MULTIPLICATIVE, NONSPLIT_MULTIPLICATIVE)


class LocalReductionData(NamedTuple):
    kodaira: str
    reduction_class: str
    c_v: int
    val_delta_min: int
    conductor_exponent: int

    def is_multiplicative(self):
        return self.reduction_class in MULTIPLICATIVE_CLASSES


def _check(ok, what):
    if not ok:
        raise ArithmeticError(what)


def _y_roots(a, p, k):
    """quadratic_roots of Y^2 + (a3 / p^k) Y - a6 / p^(2k), the quadratic in y."""
    return quadratic_roots(1, exact_div(a[2], p**k), -exact_div(a[4], p ** (2 * k)), p)


def _singular_point(ai, p):
    """Coordinates mod p of the singular point of the reduced curve."""
    a1, a2, a3, a4, a6 = ai
    b2, b4, b6, _ = b_invariants(*ai)
    if p == 2 and b2 % 2 == 0:
        x, y = a4, a4 * (1 + a2 + a4) + a6
    elif p == 2:
        x, y = a3, a3 + a4
    elif p == 3:
        x = -b6 if b2 % 3 == 0 else -b2 * b4
        y = a1 * x + a3
    else:
        c4, c6 = c_invariants(b2, b4, b6)
        if c4 % p == 0:
            x = -b2 * pow(12, -1, p)
        else:
            x = -(c6 + b2 * c4) * pow(12 * c4, -1, p)
        y = -(a1 * x + a3) * pow(2, -1, p)
    return x % p, y % p


def _normalize_step6(ai, p):
    """Reach p | a1, a2; p^2 | a3, a4; p^3 | a6 (entering the cubic P(T))."""
    if p == 2:
        s, t = ai[1] % 2, 2 * (ai[4] // 4 % 2)
    else:
        s, t = -ai[0] * (p + 1) // 2, -ai[2] * (p + 1) // 2
    b = translate(ai, 0, s, t)
    _check(all(a % p**k == 0 for a, k in zip(b, (1, 1, 2, 2, 3))), f"step 6 at p={p}")
    return b


def _cubic_structure(A, B, C, p):
    """Root structure of P(T) = T^3 + A T^2 + B T + C over F_p.

    Returns ('distinct', #roots in F_p), ('double', root), or ('triple', root).
    """
    A, B, C = A % p, B % p, C % p
    disc = (18 * A * B * C - 4 * A**3 * C + A * A * B * B - 4 * B**3 - 27 * C * C) % p
    if disc != 0:
        return ("distinct", count_roots_mod([C, B, A, 1], p))
    # a multiple root is triple iff x = 0; each root is read off the
    # coefficients of (T - r)^3 or (T - r)^2 (T - s), s != r
    x = (A * A - 3 * B) % p
    if p == 2:
        return ("triple", A) if x == 0 else ("double", B)
    if p == 3:
        return ("triple", -C % p) if x == 0 else ("double", A * B % p)
    if x == 0:
        return ("triple", -A * pow(3, -1, p) % p)
    return ("double", (9 * C - A * B) * pow(2 * x, -1, p) % p)


def tate_algorithm(model, v):
    """Kodaira type, Tamagawa number and local data of the curve at prime v."""
    if not is_prime(v):
        raise InvalidInput(f"v must be prime, got {v}")
    p = v
    m = minimal_model(model)
    ai = m.ainvs()
    inv = compute_invariants(m)
    c4, disc = inv.c4, inv.disc
    if disc % p != 0:
        return LocalReductionData("I0", GOOD, 1, 0, 0)
    n = valuation(disc, p)

    x0, y0 = _singular_point(tuple(a % p for a in ai), p)
    ai2 = translate(ai, x0, 0, y0)
    _check(all(a % p == 0 for a in ai2[2:]), f"no singular point at the origin mod {p}")
    b2_2, _, b6_2, b8_2 = b_invariants(*ai2)

    if b2_2 % p != 0:
        # split iff the tangent quadratic T^2 + a1 T - a2 at the node has
        # two roots in F_p
        if quadratic_roots(1, ai2[0], -ai2[1], p)[0] == 2:
            cls, c = SPLIT_MULTIPLICATIVE, n
        else:
            cls, c = NONSPLIT_MULTIPLICATIVE, 2 if n % 2 == 0 else 1
        return LocalReductionData(f"I{n}", cls, c, n, 1)

    # v(j) = 3 v(c4) - n: potentially multiplicative iff j is not integral at p
    add_class = ADDITIVE_POT_MULTIPLICATIVE if c4 != 0 and 3 * valuation(c4, p) < n else ADDITIVE_POT_GOOD

    def done(kod, c, ncomp):
        return LocalReductionData(kod, add_class, c, n, n - ncomp + 1)

    if ai2[4] % p**2:
        return done("II", 1, 1)
    if b8_2 % p**3:
        return done("III", 2, 2)
    if b6_2 % p**3:
        nr, _ = _y_roots(ai2, p, 1)
        return done("IV", 3 if nr == 2 else 1, 3)

    ai3 = _normalize_step6(ai2, p)
    A = exact_div(ai3[1], p)
    B = exact_div(ai3[3], p * p)
    C = exact_div(ai3[4], p**3)
    kind, info = _cubic_structure(A, B, C, p)

    if kind == "distinct":
        return done("I0*", 1 + info, 5)

    if kind == "double":
        a = translate(ai3, p * info, 0, 0)
        _check(a[1] % p == 0 and a[1] % p**2 != 0, f"double root: v(a2) != 1 at p={p}")
        _check(a[3] % p**3 == 0 and a[4] % p**4 == 0, f"double root at p={p}")
        nstar, k = 1, 2
        while True:
            _check(nstar <= n, "runaway In* loop")
            nr, root = _y_roots(a, p, k)
            if root is None:
                return done(f"I{nstar}*", 2 + nr, nstar + 5)
            a = translate(a, 0, 0, p**k * root)
            nstar += 1
            Aq = exact_div(a[1], p)
            Bq = exact_div(a[3], p ** (k + 1))
            Cq = exact_div(a[4], p ** (2 * k + 1))
            nr, root = quadratic_roots(Aq, Bq, Cq, p)
            if root is None:
                return done(f"I{nstar}*", 2 + nr, nstar + 5)
            a = translate(a, p**k * root, 0, 0)
            nstar += 1
            k += 1

    # triple root of P: move it to T = 0
    a = translate(ai3, p * info, 0, 0)
    _check(a[1] % p**2 == 0, f"triple root: v(a2) < 2 at p={p}")
    _check(a[3] % p**3 == 0 and a[4] % p**4 == 0, f"triple root at p={p}")
    nr, root = _y_roots(a, p, 2)
    if root is None:
        return done("IV*", 3 if nr == 2 else 1, 7)
    a = translate(a, 0, 0, p * p * root)
    _check(a[2] % p**3 == 0 and a[4] % p**5 == 0, f"IV* translation at p={p}")
    if a[3] % p**4:
        return done("III*", 2, 8)
    if a[4] % p**6:
        return done("II*", 1, 9)
    # minimal_model is minimal at every prime, so this is never reached
    raise ArithmeticError(f"model is not minimal at {p}")


def bad_primes(model):
    """Primes dividing the minimal discriminant, in increasing order."""
    disc = compute_invariants(minimal_model(model)).disc
    return tuple(sorted(factor(abs(disc))))


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def local_data(model):
    """Read-only map from each bad prime, in increasing order, to its LocalReductionData."""
    return MappingProxyType({q: tate_algorithm(model, q) for q in bad_primes(model)})


def tamagawa_unit_check(model, p):
    """For each bad prime v != p: is c_v prime to p?"""
    return {q: d.c_v % p != 0 for q, d in local_data(model).items() if q != p}


def compute_t_set(model, p):
    """The set T of primes v != p where E(Q_v^ur)[p] has rank one.

    For v != p, E(Q_v^ur)[p] is the p-torsion of the special fibre of the
    Neron model: the formal group has no p-torsion, and the etale p-torsion
    of the fibre lifts by Hensel (Serre-Tate 1968, section 1; Bosch-
    Lutkebohmert-Raynaud, Neron Models, 7.3).  The identity component is
    G_m (p-rank one) at multiplicative v and G_a (none) at additive v.  So
    a multiplicative v belongs iff p does not divide v(disc_min), the order
    of the geometric component group.  An additive v belongs iff p = 3 and
    the type is IV or IV*, the only additive types whose component group
    has 3-torsion (Silverman, Advanced Topics, IV.9, Table 4.1).  The rule
    is the same at every v, v = 2 included.
    """
    members = set()
    for q, data in local_data(model).items():
        if q == p:
            continue
        if data.is_multiplicative():
            if data.val_delta_min % p != 0:
                members.add(q)
        elif p == 3 and data.kodaira in ("IV", "IV*"):
            members.add(q)
    return frozenset(members)
