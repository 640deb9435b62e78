"""Tate's algorithm, Tamagawa numbers, and the auxiliary prime set T.

The algorithm runs on the globally minimal model (so it is v-minimal at
every prime).  Normalizing coordinate changes use closed forms for p >= 5;
for p in {2, 3} the required (r, s, t) are found by a small exhaustive
search, which sidesteps the usual case analysis at wild primes.
"""

from dataclasses import dataclass
from functools import lru_cache

from .arith import (
    count_roots_mod,
    factor,
    is_prime,
    legendre,
    quadratic_roots,
    valuation,
)
from .curve import (
    b_invariants,
    c_invariants,
    compute_invariants,
    discriminant_from_b,
    minimal_model,
    translate,
)
from .errors import InvalidInput

GOOD = "good"
SPLIT_MULTIPLICATIVE = "split multiplicative"
NONSPLIT_MULTIPLICATIVE = "nonsplit multiplicative"
ADDITIVE_POT_MULTIPLICATIVE = "additive potentially multiplicative"
ADDITIVE_POT_GOOD = "additive potentially good"

MULTIPLICATIVE_CLASSES = (SPLIT_MULTIPLICATIVE, NONSPLIT_MULTIPLICATIVE)


@dataclass(frozen=True)
class LocalReductionData:
    v: int
    kodaira: str
    reduction_class: str
    c_v: int
    val_delta_min: int
    val_j_denominator: int
    conductor_exponent: int

    def is_multiplicative(self):
        return self.reduction_class in MULTIPLICATIVE_CLASSES


def _exact_div(x, q):
    quo, rem = divmod(x, q)
    assert rem == 0, f"expected {q} | {x}"
    return quo


def _val_at_least(x, p, k):
    return x == 0 or x % p**k == 0


def _singular_point(ai, p):
    """Coordinates mod p of the singular point of the reduced curve."""
    a1, a2, a3, a4, a6 = ai
    if p <= 3:
        for x in range(p):
            for y in range(p):
                on = (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p
                fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
                fy = (2 * y + a1 * x + a3) % p
                if on == 0 and fx == 0 and fy == 0:
                    return x, y
        raise AssertionError(f"no singular point found mod {p}")
    b2, b4, b6, _ = b_invariants(*ai)
    # x0 is the multiple root mod p of g/4, g = 4x^3 + b2 x^2 + 2 b4 x + b6
    inv4 = pow(4, -1, p)
    kind, x0 = _cubic_structure(b2 * inv4, 2 * b4 * inv4, b6 * inv4, p)
    assert kind != "distinct", "expected a multiple root"
    y0 = (-(a1 * x0 + a3) * pow(2, -1, p)) % p
    return x0, y0


def _normalize_step6(ai, p):
    """Reach p | a1, a2; p^2 | a3, a4; p^3 | a6 (entering the cubic P(T))."""

    def ok(b):
        return (
            b[0] % p == 0
            and b[1] % p == 0
            and b[2] % p**2 == 0
            and b[3] % p**2 == 0
            and b[4] % p**3 == 0
        )

    if p >= 5:
        s = (-ai[0] * pow(2, -1, p)) % p
        b = translate(ai, 0, s, 0)
        t = (-b[2] * pow(2, -1, p * p)) % (p * p)
        b = translate(b, 0, 0, t)
        assert ok(b)
        return b
    for r in range(0, p**3, p):
        for s in range(p):
            for t in range(p**3):
                b = translate(ai, r, s, t)
                if ok(b):
                    return b
    raise AssertionError(f"step-6 normalization not found at p={p}")


def _cubic_structure(A, B, C, p):
    """Root structure of P(T) = T^3 + A T^2 + B T + C over F_p.

    Returns ('distinct', #roots in F_p), ('double', root), or ('triple', root).
    """
    A, B, C = A % p, B % p, C % p
    if p <= 3:
        roots = [t for t in range(p) if (t**3 + A * t * t + B * t + C) % p == 0]
        for r in roots:
            q2 = (A + r) % p  # P = (T - r)(T^2 + q2 T + q1)
            q1 = (B + r * q2) % p
            if (r * r + q2 * r + q1) % p == 0:
                q3 = (q2 + r) % p  # second deflation: T + q3
                if (r + q3) % p == 0:
                    return ("triple", r)
                return ("double", r)
        return ("distinct", len(roots))
    disc = (18 * A * B * C - 4 * A**3 * C + A * A * B * B - 4 * B**3 - 27 * C * C) % p
    if disc != 0:
        return ("distinct", count_roots_mod([C, B, A, 1], p))
    r_tri = (-A * pow(3, -1, p)) % p
    if (3 * r_tri * r_tri - B) % p == 0 and (r_tri**3 + C) % p == 0:
        return ("triple", r_tri)
    denom = (2 * (A * A - 3 * B)) % p
    r_dbl = ((9 * C - A * B) * pow(denom, -1, p)) % p
    assert (r_dbl**3 + A * r_dbl**2 + B * r_dbl + C) % p == 0
    return ("double", r_dbl)


@lru_cache(maxsize=None)
def tate_algorithm(model, v):
    """Kodaira type, Tamagawa number and local data of the curve at prime v."""
    if not is_prime(v):
        raise InvalidInput(f"v must be prime, got {v}")
    p = v
    ai = minimal_model(model).ainvs()

    while True:
        b2, b4, b6, b8 = b_invariants(*ai)
        c4, _c6 = c_invariants(b2, b4, b6)
        disc = discriminant_from_b(b2, b4, b6, b8)
        if disc % p != 0:
            return LocalReductionData(p, "I0", GOOD, 1, 0, 0, 0)
        n = valuation(disc, p)
        if c4 == 0:
            val_j_den = 0  # j = 0 is integral
        elif c4 % p == 0:
            val_j_den = max(0, n - 3 * valuation(c4, p))
        else:
            val_j_den = n  # multiplicative: v(j) = -n

        x0, y0 = _singular_point(tuple(a % p for a in ai), p)
        ai2 = translate(ai, x0, 0, y0)
        assert all(a % p == 0 for a in ai2[2:])
        b2_2, b4_2, b6_2, b8_2 = b_invariants(*ai2)

        if b2_2 % p != 0:
            # split iff -c6 is a square mod p (odd p); at p = 2 test the
            # tangent quadratic T^2 + a1 T - a2 at the translated node
            if p == 2:
                split = quadratic_roots(1, ai2[0], -ai2[1], p)[0] == 2
            else:
                _, c6_2 = c_invariants(b2_2, b4_2, b6_2)
                split = legendre(-c6_2, p) == 1
            if split:
                cls, c = SPLIT_MULTIPLICATIVE, n
            else:
                cls, c = NONSPLIT_MULTIPLICATIVE, 2 if n % 2 == 0 else 1
            return LocalReductionData(p, f"I{n}", cls, c, n, n, 1)

        add_class = (
            ADDITIVE_POT_MULTIPLICATIVE if val_j_den > 0 else ADDITIVE_POT_GOOD
        )

        def done(kod, c, ncomp):
            return LocalReductionData(
                p, kod, add_class, c, n, val_j_den, n - ncomp + 1
            )

        if not _val_at_least(ai2[4], p, 2):
            return done("II", 1, 1)
        if not _val_at_least(b8_2, p, 3):
            return done("III", 2, 2)
        if not _val_at_least(b6_2, p, 3):
            b = _exact_div(ai2[2], p)
            c = -_exact_div(ai2[4], p * p)
            nr, _ = quadratic_roots(1, b, c, p)
            return done("IV", 3 if nr == 2 else 1, 3)

        ai3 = _normalize_step6(ai2, p)
        A = _exact_div(ai3[1], p)
        B = _exact_div(ai3[3], p * p)
        C = _exact_div(ai3[4], p**3)
        kind, info = _cubic_structure(A, B, C, p)

        if kind == "distinct":
            return done("I0*", 1 + info, 5)

        if kind == "double":
            a = translate(ai3, p * info, 0, 0)
            assert a[1] != 0 and valuation(a[1], p) == 1
            assert _val_at_least(a[3], p, 3) and _val_at_least(a[4], p, 4)
            nstar, k = 1, 2
            while True:
                assert nstar <= n, "runaway In* loop"
                b = _exact_div(a[2], p**k)
                c = -_exact_div(a[4], p ** (2 * k))
                nr, root = quadratic_roots(1, b, c, p)
                if root is None:
                    return done(f"I{nstar}*", 2 + nr, nstar + 5)
                a = translate(a, 0, 0, p**k * root)
                nstar += 1
                Aq = _exact_div(a[1], p)
                Bq = _exact_div(a[3], p ** (k + 1))
                Cq = _exact_div(a[4], p ** (2 * k + 1))
                nr, root = quadratic_roots(Aq, Bq, Cq, p)
                if root is None:
                    return done(f"I{nstar}*", 2 + nr, nstar + 5)
                a = translate(a, p**k * root, 0, 0)
                nstar += 1
                k += 1

        # triple root of P: move it to T = 0
        a = translate(ai3, p * info, 0, 0)
        assert _val_at_least(a[1], p, 2)
        assert _val_at_least(a[3], p, 3) and _val_at_least(a[4], p, 4)
        b = _exact_div(a[2], p * p)
        c = -_exact_div(a[4], p**4)
        nr, root = quadratic_roots(1, b, c, p)
        if root is None:
            return done("IV*", 3 if nr == 2 else 1, 7)
        a = translate(a, 0, 0, p * p * root)
        assert _val_at_least(a[2], p, 3) and _val_at_least(a[4], p, 5)
        if not _val_at_least(a[3], p, 4):
            return done("III*", 2, 8)
        if not _val_at_least(a[4], p, 6):
            return done("II*", 1, 9)
        # not p-minimal after all: rescale by u = p and restart
        ai = (
            _exact_div(a[0], p),
            _exact_div(a[1], p * p),
            _exact_div(a[2], p**3),
            _exact_div(a[3], p**4),
            _exact_div(a[4], p**6),
        )


@lru_cache(maxsize=None)
def bad_primes(model):
    """Primes dividing the minimal discriminant, in increasing order."""
    disc = compute_invariants(minimal_model(model)).disc
    return tuple(sorted(factor(abs(disc))))


def local_data(model, v=None):
    """LocalReductionData at v, or at every bad prime when v is None."""
    if v is not None:
        return tate_algorithm(model, v)
    return {q: tate_algorithm(model, q) for q in bad_primes(model)}


def tamagawa_unit_check(model, p):
    """For each bad prime v != p: is c_v prime to p?"""
    out = {}
    for q in bad_primes(model):
        if q != p:
            out[q] = tate_algorithm(model, q).c_v % p != 0
    return out


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
