"""Mod-p Galois image certification and the ordinary local shape.

Surjectivity is certified one-sidedly from Frobenius data (a_ell, ell mod p):
a proper subgroup of GL_2(F_p) with full determinant lies in a Borel, the
normalizer of a split or nonsplit Cartan, or has exceptional projective
image A4/S4/A5; each class is ruled out by an explicit witness prime.  The
certificate is sound: SurjectiveCertified is only emitted with witnesses
against all four classes plus determinant surjectivity.  CM curves are
decided from j alone, before any scan.  Division polynomials are integer
coefficient lists, lowest degree first.
"""

from dataclasses import dataclass
from functools import lru_cache

from .arith import _zmul, _zsub, count_roots_mod, legendre, primes_up_to, rational_factors
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
    generate (Z/p)^x.  At p = 3, where traces never rule out the nonsplit
    Cartan normalizer, a 3-cycle of Frob_ell on the 3-division quartic does.
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

        if p == 3 and BOREL in ruled_out and NONSPLIT_CARTAN_NORMALIZER not in ruled_out:
            # psi_3 has four distinct roots mod ell (good reduction, ell != 3),
            # so exactly one root in F_ell makes Frob_ell a 3-cycle on them.
            # The nonsplit Cartan normalizer has projective image D4, with no
            # 3-cycle; full determinant and the chi = -1 witness then leave
            # projective image S4, and with full determinant only the whole
            # of GL_2(F_3) has that image (its involution is unique).
            if count_roots_mod(_division_polynomial(m, 3), ell) == 1:
                ruled_out.add(NONSPLIT_CARTAN_NORMALIZER)
                useful = True

        if useful:
            witnesses.append((ell, a_mod, d_mod))
        if det_full and len(ruled_out) == 4:
            return ImageCertificate(
                p, SURJECTIVE_CERTIFIED, tuple(witnesses), frozenset(ruled_out)
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
    factors = rational_factors(division_polynomial(model, p))
    return len(factors) == 1 and factors[0][1] == 1


def division_polynomial(model, m):
    """The m-th division polynomial psi_m (m odd) as integer coefficients,
    lowest degree first; the leading coefficient is m."""
    if m % 2 == 0 or m < 1:
        raise InvalidInput("only odd positive division polynomials are univariate in x")
    return list(_division_polynomial(model, m))


@lru_cache(maxsize=None)
def _division_polynomial(model, m):
    """f_m as a tuple: psi_m for odd m, psi_m / psi_2 for even m.

    The doubling recurrence on psi_m, rewritten on f_k so that only
    S = psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 appears.
    """
    b2, b4, b6, b8 = b_invariants(*model.ainvs())
    S = [b6, 2 * b4, b2, 4]
    f = {
        1: [1],
        2: [1],
        3: [b8, 3 * b6, 3 * b4, b2, 3],
        4: [b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2],
    }

    def get(n):
        if n not in f:
            k = n // 2
            if n % 2:  # f_{2k+1} = f_{k+2} f_k^3 - f_{k-1} f_{k+1}^3, S^2 on the even-index term
                lhs = [get(k + 2)] + [get(k)] * 3
                rhs = [get(k - 1)] + [get(k + 1)] * 3
                (rhs if k % 2 else lhs).extend((S, S))
                f[n] = _zsub(_zmul(*lhs), _zmul(*rhs))
            else:  # f_2k = f_k (f_{k+2} f_{k-1}^2 - f_{k-2} f_{k+1}^2)
                inner = _zsub(
                    _zmul(get(k + 2), get(k - 1), get(k - 1)),
                    _zmul(get(k - 2), get(k + 1), get(k + 1)),
                )
                f[n] = _zmul(get(k), inner)
        return f[n]

    return tuple(get(m))


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
