"""Mod-p Galois image certification and the ordinary local shape.

Surjectivity is certified one-sidedly from Frobenius data (a_ell, ell mod p):
a proper subgroup of GL_2(F_p) with full determinant lies in a Borel, the
normalizer of a split or nonsplit Cartan, or has exceptional projective
image A4/S4/A5; each class is ruled out by an explicit witness prime.  The
certificate is sound: SurjectiveCertified is only emitted with witnesses
against all four classes plus determinant surjectivity.  CM curves are
decided from j alone, before any scan.
"""

from dataclasses import dataclass
from functools import lru_cache

from .arith import legendre, primes_up_to
from .curve import (
    ORDINARY,
    SUPERSINGULAR,
    b_invariants,
    brute_force_point_count,
    compute_invariants,
    detect_cm,
    minimal_model,
    trace_of_frobenius,
)
from .errors import BadReductionAtP, InvalidInput, NotOrdinary

SURJECTIVE_CERTIFIED = "SurjectiveCertified"
SMALL_IMAGE_CERTIFIED = "SmallImageCertified"
INCONCLUSIVE = "Inconclusive"

BOREL = "Borel"
SPLIT_CARTAN_NORMALIZER = "SplitCartanNormalizer"
NONSPLIT_CARTAN_NORMALIZER = "NonsplitCartanNormalizer"
EXCEPTIONAL = "Exceptional"
ALL_CLASSES = (BOREL, SPLIT_CARTAN_NORMALIZER, NONSPLIT_CARTAN_NORMALIZER, EXCEPTIONAL)
# At p = 3, a != 0 (mod 3) makes a^2 - 4d = 1 - 4d either 0 or a non-square
# mod 3, so traces can rule out every class except the nonsplit Cartan.
P3_TRACE_CLASSES = frozenset((BOREL, SPLIT_CARTAN_NORMALIZER, EXCEPTIONAL))

VACUOUS = "Vacuous"
CM_CASE = "CMCase"
ASSUMED_BY_USER = "AssumedByUser"
UNKNOWN = "Unknown"

DEFAULT_SAMPLE_BOUND = 1000

KERNEL_CHARACTER_NOTE = "omega_p * psi^(-1) on C_p"


@dataclass(frozen=True)
class ImageCertificate:
    p: int
    status: str
    witnesses: tuple
    ruled_out: frozenset
    first_unruled: str | None = None


@dataclass(frozen=True)
class OrdinaryShape:
    p: int
    psi_frobenius_eigenvalue: int
    kernel_character_note: str
    star_nonzero: str


@dataclass(frozen=True)
class WildRamificationStatus:
    status: str


@lru_cache(maxsize=None)
def _exceptional_trace_set(p):
    """u = tr^2/det values of elements of projective order <= 5 (or p)."""
    bad = {0 % p, 1 % p, 2 % p, 4 % p}
    for u in range(p):
        if (u * u - 3 * u + 1) % p == 0:  # projective order 5
            bad.add(u)
    return frozenset(bad)


def a_ell(model, ell):
    """Trace of Frobenius at any good prime, including ell = 2."""
    if ell == 2:
        m = minimal_model(model)
        if compute_invariants(m).disc % 2 == 0:
            raise BadReductionAtP(f"{m} has bad reduction at 2")
        return 3 - brute_force_point_count(m, 2)
    return trace_of_frobenius(model, ell)


def _mult_closure(values, p):
    """Subgroup of (Z/p)^x generated by the given units."""
    group = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for s in frontier:
            for v in values:
                t = s * v % p
                if t not in group:
                    group.add(t)
                    nxt.append(t)
        frontier = nxt
    return group


def certify_image(model, p, sample_bound=DEFAULT_SAMPLE_BOUND):
    """One-sided surjectivity certificate for the mod-p representation.

    A CM curve is SmallImageCertified from its j-invariant alone: its image
    lies in the normalizer of a Cartan subgroup (Serre 1972), so no witness
    is scanned for.  Otherwise scans good primes ell <= sample_bound (ell not
    dividing p*disc) in increasing order, stopping as soon as every
    maximal-subgroup class is ruled out and the determinant witnesses
    generate (Z/p)^x; at p = 3 it stops once the determinant and the
    classes of P3_TRACE_CLASSES are done, as no later ell can add a witness.
    """
    if sample_bound < 10:
        raise InvalidInput("sample_bound must be at least 10")
    m = minimal_model(model)
    inv = compute_invariants(m)
    if inv.disc % p == 0:
        raise BadReductionAtP(f"bad reduction at {p}")
    if detect_cm(inv.j) is not None:
        return ImageCertificate(p, SMALL_IMAGE_CERTIFIED, (), frozenset(), BOREL)

    ruled_out = set()
    witnesses = []
    det_values = set()
    det_group = {1}
    det_full = False
    bad_u = _exceptional_trace_set(p)

    for ell in primes_up_to(sample_bound):
        if ell == p or inv.disc % ell == 0:
            continue
        a = a_ell(m, ell)
        a_mod, d_mod = a % p, ell % p
        useful = False

        if not det_full and d_mod not in det_group:
            det_values.add(d_mod)
            det_group = _mult_closure(det_values, p)
            useful = True
            det_full = len(det_group) == p - 1
            if det_full and p == 3:
                # projective image A4 = PSL_2(F_3) forces determinant 1,
                # so full determinant already excludes the exceptional class
                ruled_out.add(EXCEPTIONAL)

        if a_mod != 0:
            chi = legendre(a_mod * a_mod - 4 * d_mod, p)
            if chi == -1 and BOREL not in ruled_out:
                ruled_out.update((BOREL, SPLIT_CARTAN_NORMALIZER))
                useful = True
            if chi == 1 and NONSPLIT_CARTAN_NORMALIZER not in ruled_out:
                ruled_out.add(NONSPLIT_CARTAN_NORMALIZER)
                useful = True
            u = a_mod * a_mod * pow(d_mod, -1, p) % p
            if u not in bad_u and EXCEPTIONAL not in ruled_out:
                ruled_out.add(EXCEPTIONAL)
                useful = True

        if useful:
            witnesses.append((ell, a_mod, d_mod))
        if det_full and len(ruled_out) == 4:
            return ImageCertificate(
                p, SURJECTIVE_CERTIFIED, tuple(witnesses), frozenset(ruled_out)
            )
        if p == 3 and det_full and ruled_out == P3_TRACE_CLASSES:
            break

    if p == 3 and det_full and _mod3_projective_full(m):
        # At p = 3 trace data cannot separate the nonsplit Cartan normalizer
        # from the full group, so certify via the 3-division quartic instead:
        # its Galois group is the projective image inside PGL_2(F_3) = S4,
        # and a quartic with group S4 plus full determinant forces the whole
        # group (the unique-involution property of GL_2(F_3) leaves no proper
        # subgroup with projective image S4).
        return ImageCertificate(
            p, SURJECTIVE_CERTIFIED, tuple(witnesses), frozenset(ALL_CLASSES)
        )

    status = INCONCLUSIVE
    if p <= 13 and not _division_poly_irreducible(m, p):
        # full image acts transitively on the (p^2-1)/2 x-coordinates of
        # p-torsion, so a reducible division polynomial certifies a proper image
        status = SMALL_IMAGE_CERTIFIED
    missing = [c for c in ALL_CLASSES if c not in ruled_out]
    first = missing[0] if missing else "DetNotWitnessed"
    return ImageCertificate(p, status, tuple(witnesses), frozenset(ruled_out), first)


def _division_poly_irreducible(model, p):
    psi = division_polynomial(model, p)
    factors = psi.factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1


def _mod3_projective_full(model):
    """Is the Galois group of the 3-division quartic all of S4?

    Classical quartic criterion: irreducible, irreducible resolvent cubic,
    and non-square discriminant.
    """
    import sympy
    from math import isqrt

    psi = division_polynomial(model, 3)
    if not _division_poly_irreducible(model, 3):
        return False
    monic = psi.monic()
    _, a, b, c, d = monic.all_coeffs()
    y = sympy.symbols("y")
    resolvent = sympy.Poly(
        y**3 - b * y**2 + (a * c - 4 * d) * y - (a * a * d - 4 * b * d + c * c), y
    )
    res_factors = resolvent.factor_list()[1]
    if len(res_factors) != 1 or res_factors[0][0].degree() != 3:
        return False
    disc = sympy.discriminant(psi.as_expr())
    disc_int = int(disc)
    if disc_int <= 0:
        return True  # negative discriminant is never a rational square
    return isqrt(disc_int) ** 2 != disc_int


def division_polynomial(model, m):
    """The m-th division polynomial in x (m odd), monic up to the leading m."""
    if m % 2 == 0:
        raise InvalidInput("only odd division polynomials are univariate in x")
    return _division_pair(model, m)[0]


@lru_cache(maxsize=None)
def _division_pair(model, m):
    """psi_m as (poly, e) with psi_m = poly * psi2^e, psi2^2 eliminated."""
    import sympy

    x = sympy.symbols("x")
    b2, b4, b6, b8 = b_invariants(*model.ainvs())
    S = sympy.Poly(4 * x**3 + b2 * x**2 + 2 * b4 * x + b6, x)
    one = sympy.Poly(1, x)

    def mul(a, b):
        poly, e = a[0] * b[0], a[1] + b[1]
        return (poly * S ** (e // 2), e % 2)

    def power(a, k):
        out = (one, 0)
        for _ in range(k):
            out = mul(out, a)
        return out

    base = {
        0: (sympy.Poly(0, x), 0),
        1: (one, 0),
        2: (one, 1),
        3: (
            sympy.Poly(3 * x**4 + b2 * x**3 + 3 * b4 * x**2 + 3 * b6 * x + b8, x),
            0,
        ),
        4: (
            sympy.Poly(
                2 * x**6
                + b2 * x**5
                + 5 * b4 * x**4
                + 10 * b6 * x**3
                + 10 * b8 * x**2
                + (b2 * b8 - b4 * b6) * x
                + (b4 * b8 - b6 * b6),
                x,
            ),
            1,
        ),
    }

    def get(k):
        if k in base:
            return base[k]
        if k % 2 == 1:
            j = (k - 1) // 2
            lhs = mul(get(j + 2), power(get(j), 3))
            rhs = mul(get(j - 1), power(get(j + 1), 3))
        else:
            j = k // 2
            inner_l = mul(get(j + 2), power(get(j - 1), 2))
            inner_r = mul(get(j - 2), power(get(j + 1), 2))
            assert inner_l[1] == inner_r[1]
            prod = mul(get(j), (inner_l[0] - inner_r[0], inner_l[1]))
            poly, e = prod
            assert e == 0
            base[k] = (sympy.exquo(poly, S), 1)
            return base[k]
        assert lhs[1] == rhs[1]
        base[k] = (lhs[0] - rhs[0], lhs[1])
        return base[k]

    return get(m)


def ordinary_shape(profile, star_nonzero=UNKNOWN):
    """Upper-triangular local shape at a good ordinary prime."""
    if profile.reduction_kind != ORDINARY:
        raise NotOrdinary(f"reduction at {profile.p} is not ordinary")
    assert profile.alpha_p_mod_p and profile.alpha_p_mod_p % profile.p != 0
    if star_nonzero not in ("True", "False", UNKNOWN):
        raise InvalidInput(f"bad star_nonzero value {star_nonzero!r}")
    return OrdinaryShape(
        profile.p, profile.alpha_p_mod_p, KERNEL_CHARACTER_NOTE, star_nonzero
    )


def wild_ramification_status(model, profile, cm=None, assume_wild_ramification=False):
    """Status of the wild-ramification hypothesis at p.

    Vacuous when supersingular or a_p != 1 mod p; CMCase when the curve has
    complex multiplication; AssumedByUser only under the explicit flag;
    otherwise Unknown and the hypothesis stays unestablished.
    """
    p = profile.p
    if profile.reduction_kind == SUPERSINGULAR or profile.a_p % p != 1:
        return WildRamificationStatus(VACUOUS)
    if cm is not None:
        return WildRamificationStatus(CM_CASE)
    if assume_wild_ramification:
        return WildRamificationStatus(ASSUMED_BY_USER)
    return WildRamificationStatus(UNKNOWN)
