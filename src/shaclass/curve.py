"""Weierstrass models over Q: invariants, minimal models, point counts.

Models are long Weierstrass equations

    y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6

with integer coefficients.  All arithmetic is exact.
"""

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .arith import ascii_int, exact_div, factor, require_analyzable_prime, valuation
from .errors import BadReductionAtP, InvalidInput, SingularModel

CURVE_CACHE_SIZE = 1024  # entries each per-curve cache keeps; a batch call reads 100 curves
TRACE_CACHE_SIZE = 8 * CURVE_CACHE_SIZE  # (curve, p) pairs: a_p and an image scan's few traces per curve
TABLE_CACHE_BOUND = 1000  # p up to here keep their character table: galrep's image scan reads them all
TABLE_CACHE_SIZE = 256  # over the 167 odd primes up to TABLE_CACHE_BOUND
_COUNT_CHUNK = 1 << 16  # x values per list a count sums: a 512 KB list at most

# The thirteen j-invariants of elliptic curves over Q with complex
# multiplication, all integers, keyed by j, valued by the CM order's
# discriminant.
CM_J_INVARIANTS = {
    0: -3, 1728: -4, -3375: -7, 8000: -8, -32768: -11, 54000: -12, 287496: -16,
    -884736: -19, -12288000: -27, 16581375: -28, -884736000: -43,
    -147197952000: -67, -262537412640768000: -163,
}


def b_invariants(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def c_invariants(b2, b4, b6):
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    return c4, c6


def discriminant_from_b(b2, b4, b6, b8):
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


class CurveModel(NamedTuple("CurveModel", [(a, int) for a in ("a1", "a2", "a3", "a4", "a6")])):
    """Integral Weierstrass model; rejects singular equations."""

    __slots__ = ()

    def __new__(cls, a1, a2, a3, a4, a6):
        self = super().__new__(cls, a1, a2, a3, a4, a6)
        for name, v in zip(self._fields, self):
            if not isinstance(v, int):
                raise InvalidInput(f"{name} must be an integer, got {v!r}")
        if self.discriminant() == 0:
            raise SingularModel(f"discriminant is zero for {self.ainvs()}")
        return self

    def _replace(self, **changes):
        # tuple's _replace skips __new__, and with it the checks above
        return CurveModel(**{**self._asdict(), **changes})

    def ainvs(self):
        return tuple(self)

    def discriminant(self):
        return discriminant_from_b(*b_invariants(*self))

    def __str__(self):
        return "[{},{},{},{},{}]".format(*self)


class Invariants(NamedTuple):
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    disc: int

    @property
    def j(self):
        """c4^3 / disc as a Fraction, built on each read; only j needs fractions."""
        from fractions import Fraction

        return Fraction(self.c4**3, self.disc)

    def cm_discriminant(self):
        """CM discriminant or None, by integers: a CM j is integral, i.e. disc | c4^3."""
        j, rem = divmod(self.c4**3, self.disc)
        return None if rem else detect_cm(j)


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def compute_invariants(model):
    """All standard invariants of the model.  Raises SingularModel on disc 0."""
    b2, b4, b6, b8 = b_invariants(*model.ainvs())
    c4, c6 = c_invariants(b2, b4, b6)
    disc = discriminant_from_b(b2, b4, b6, b8)
    if disc == 0:
        raise SingularModel("discriminant is zero")
    if c4**3 - c6**2 != 1728 * disc or 4 * b8 != b2 * b6 - b4 * b4:
        raise ArithmeticError(f"{model}: c4^3 - c6^2 != 1728 disc or 4 b8 != b2 b6 - b4^2")
    return Invariants(b2, b4, b6, b8, c4, c6, disc)


def translate(ai, r, s, t):
    """Coefficients after the u = 1 change x = x' + r, y = y' + s x' + t.

    Computed in whatever ring the inputs lie in: ints stay ints.
    """
    a1, a2, a3, a4, a6 = ai
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def transform_quintuple(ainvs, u, r, s, t):
    """Coefficients after the coordinate change x = u^2 x' + r, y = u^3 y' + u^2 s x' + t.

    Works over the rationals; returns a 5-tuple of Fractions.
    """
    from fractions import Fraction

    ai = tuple(Fraction(a) for a in ainvs)
    u, r, s, t = Fraction(u), Fraction(r), Fraction(s), Fraction(t)
    if u == 0:
        raise InvalidInput("u must be nonzero")
    return tuple(a / u**k for a, k in zip(translate(ai, r, s, t), (1, 2, 3, 4, 6)))


def transform_model(model, u, r, s, t):
    """Like transform_quintuple but demands an integral result model."""
    new = transform_quintuple(model.ainvs(), u, r, s, t)
    if any(f.denominator != 1 for f in new):
        raise InvalidInput(f"transform ({u},{r},{s},{t}) does not yield an integral model")
    return CurveModel(*(int(f) for f in new))


def _kraus_ok_at_2(c4, c6):
    if c6 % 4 == 3:
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _kraus_ok_at_3(c6):
    return c6 == 0 or valuation(c6, 3) != 2


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def minimal_model(model):
    """Global minimal model, in the reduced form a1,a3 in {0,1}, a2 in {-1,0,1}.

    Laska-Kraus-Connell: strip the largest u with u^4 | c4, u^6 | c6,
    u^12 | disc subject to Kraus's local conditions at 2 and 3, then rebuild
    the equation from the minimal (c4, c6).
    """
    inv = compute_invariants(model)
    c4, c6, disc = inv.c4, inv.c6, inv.disc

    exps = {}
    for q in factor(gcd(c4, c6)):  # gcd(0, c) = |c|
        e = valuation(disc, q) // 12
        if c4 != 0:
            e = min(e, valuation(c4, q) // 4)
        if c6 != 0:
            e = min(e, valuation(c6, q) // 6)
        if e > 0:
            exps[q] = e

    if 3 in exps:
        while exps[3] > 0 and not _kraus_ok_at_3(c6 // 3 ** (6 * exps[3])):
            exps[3] -= 1

    def scaled(es):
        u = 1
        for q, e in es.items():
            u *= q**e
        return c4 // u**4, c6 // u**6

    while exps.get(2, 0) > 0 and not _kraus_ok_at_2(*scaled(exps)):
        exps[2] -= 1

    c4m, c6m = scaled(exps)
    if not (_kraus_ok_at_2(c4m, c6m) and _kraus_ok_at_3(c6m)):
        raise ArithmeticError(f"Kraus's conditions fail for c4 = {c4m}, c6 = {c6m}")

    b2 = (-c6m) % 12
    if b2 > 6:
        b2 -= 12
    b4 = exact_div(b2 * b2 - c4m, 24)
    b6 = exact_div(-(b2**3) + 36 * b2 * b4 - c6m, 216)
    a1 = b2 % 2
    a2 = exact_div(b2 - a1, 4)
    a3 = b6 % 2
    a6 = exact_div(b6 - a3, 4)
    a4 = exact_div(b4 - a1 * a3, 2)
    out = CurveModel(a1, a2, a3, a4, a6)
    new = compute_invariants(out)
    if new.c4**3 * disc != c4**3 * new.disc:  # j = c4^3 / disc, cross-multiplied
        raise ArithmeticError(f"minimal model {out} changes j")
    return out


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _character_table(p):
    """bytes t with t[g] = 1 + (g/p), the number of y in F_p with y^2 = g."""
    table = bytearray(p)
    table[0] = 1
    for x in range(1, (p + 1) // 2):
        table[x * x % p] = 2
    return bytes(table)


@lru_cache(maxsize=TRACE_CACHE_SIZE)
def trace_of_frobenius(model, p):
    """a_p = p + 1 - #E(F_p) at an odd prime p of good reduction.

    Counting runs over the minimal model.  Per x, the number of points is
    1 + (g(x)/p) where g = 4x^3 + b2 x^2 + 2 b4 x + b6 (complete the square
    in y), read from the character table of p, so a_p = p - sum over x.
    The tables of p <= TABLE_CACHE_BOUND are cached; a larger p's is built
    for its one count.  Cached per (model, p): the image scans of one curve
    at its many p read the same small-ell traces.
    """
    require_analyzable_prime(p)
    m = minimal_model(model)
    inv = compute_invariants(m)
    if inv.disc % p == 0:
        raise BadReductionAtP(f"{m} has bad reduction at {p}")
    table = _character_table(p) if p <= TABLE_CACHE_BOUND else _character_table.__wrapped__(p)
    b2, two_b4, b6 = inv.b2 % p, 2 * inv.b4 % p, inv.b6 % p
    a_p = p
    for lo in range(0, p, _COUNT_CHUNK):
        xs = range(lo, min(lo + _COUNT_CHUNK, p))
        a_p -= sum([table[(((4 * x + b2) * x + two_b4) * x + b6) % p] for x in xs])
    if a_p * a_p > 4 * p:
        raise ArithmeticError(f"a_{p} = {a_p} breaks the Hasse bound")
    return a_p


def detect_cm(j):
    """CM discriminant for the thirteen rational CM j-invariants, else None.

    j is an int or a Fraction; an integral Fraction hashes and compares
    equal to its int.
    """
    return CM_J_INVARIANTS.get(j)


def brute_force_point_count(model, p):
    """#E(F_p) by the full double loop over F_p x F_p, plus infinity.

    Independent oracle for trace_of_frobenius, and the point count behind
    galrep.a_ell at p = 2; O(p^2).
    """
    a1, a2, a3, a4, a6 = (a % p for a in model.ainvs())
    count = 1
    for x in range(p):
        rhs = (x**3 + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                count += 1
    return count


def _coefficients(parts, text):
    try:
        return [ascii_int(s) for s in parts]
    except ValueError as err:
        raise InvalidInput(f"bad coefficients: {text!r}") from err


def parse_curve_spec(text):
    """Parse a curve given as 'a1,a2,a3,a4,a6' or short form '[A,B]', in ASCII integers."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        parts = [s.strip() for s in text[1:-1].split(",")]
        if len(parts) != 2:
            raise InvalidInput(f"short form needs exactly [A, B]: {text!r}")
        return CurveModel(0, 0, 0, *_coefficients(parts, text))
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 5:
        raise InvalidInput(f"expected 5 comma-separated coefficients: {text!r}")
    return CurveModel(*_coefficients(parts, text))
