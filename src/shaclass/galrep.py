"""Mod-p Galois image certification and the wild-ramification status at p.

Surjectivity is certified one-sidedly from Frobenius data (a_ell, ell mod p):
a proper subgroup of GL_2(F_p) with full determinant lies in a Borel, the
normalizer of a split or nonsplit Cartan, or has exceptional projective
image A4/S4/A5; each class is ruled out by an explicit witness prime.  The
certificate is sound: SurjectiveCertified is only emitted with witnesses
against all four classes plus determinant surjectivity.  CM curves are
decided from j alone, before any scan.  Division polynomials are integer
coefficient lists, lowest degree first.  The wild-ramification status of
hypothesis (b) is read off curve.GoodPrimeProfile, the local picture at p.
"""

from functools import lru_cache
from typing import NamedTuple

from .arith import _pgcd, _ppow, _prem, _zmul, _zsub, count_roots_mod, legendre
from .arith import TRIAL_DIVISION_BOUND, lift_rational_factor, primes_up_to, rational_factors
from .curve import (
    SUPERSINGULAR,
    b_invariants,
    brute_force_point_count,
    compute_invariants,
    minimal_model,
    trace_of_frobenius,
)
from .errors import BadReductionAtP, InvalidInput

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
# good primes scanned before a standing Borel class sends the scan to
# look for a rational factor of psi_p (at p <= 13)
SCAN_PREFIX = 10


class ImageCertificate(NamedTuple):
    p: int
    status: str
    witnesses: tuple
    ruled_out: frozenset
    first_unruled: str | None = None


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


def certify_image(model, p, sample_bound=DEFAULT_SAMPLE_BOUND):
    """One-sided surjectivity certificate for the mod-p representation.

    A CM curve is SmallImageCertified from its j-invariant alone: its image
    lies in the normalizer of a Cartan subgroup (Serre 1972), so no witness
    is scanned for.  Otherwise scans good primes ell <= sample_bound (ell not
    dividing p*disc) in increasing order, stopping as soon as every
    maximal-subgroup class is ruled out and the determinant witnesses
    generate (Z/p)^x.  At p = 3, where traces never rule out the nonsplit
    Cartan normalizer, a 3-cycle of Frob_ell on the 3-division quartic does.
    At p <= 13, if Borel still stands after SCAN_PREFIX good primes, a
    factor of psi_p over Q from exact_factor ends the scan SmallImageCertified
    with the witnesses of those primes only; witnesses a full scan would
    find at later primes are not listed.  After a scan of any length that
    certifies nothing, exact_factor on all the primes scanned and then
    sympy's factorization of psi_p are the last resort.
    """
    if not 10 <= sample_bound <= TRIAL_DIVISION_BOUND:
        raise InvalidInput(f"sample_bound must be between 10 and {TRIAL_DIVISION_BOUND}")
    m = minimal_model(model)
    inv = compute_invariants(m)
    if inv.disc % p == 0:
        raise BadReductionAtP(f"bad reduction at {p}")
    if inv.cm_discriminant() is not None:
        return ImageCertificate(p, SMALL_IMAGE_CERTIFIED, (), frozenset(), BOREL)

    ruled_out = set()
    witnesses = []
    frobenius = []
    det_order = 1  # of the subgroup of (Z/p)^x the witnesses generate
    bad_u = _exceptional_trace_set(p)

    for ell in primes_up_to(sample_bound):
        if ell == p or inv.disc % ell == 0:
            continue
        a = a_ell(m, ell)
        a_mod, d_mod = a % p, ell % p
        frobenius.append((ell, a_mod, d_mod))
        before = (len(ruled_out), det_order)

        # (Z/p)^x is cyclic: its subgroup of order n is {x : x^n = 1}, and
        # adding d_mod gives the least multiple of n that kills d_mod
        if pow(d_mod, det_order, p) != 1:
            det_order = next(n for n in range(det_order, p, det_order) if pow(d_mod, n, p) == 1)
            if det_order == p - 1 and p == 3:
                # projective image A4 = PSL_2(F_3) forces determinant 1,
                # so full determinant already excludes the exceptional class
                ruled_out.add(EXCEPTIONAL)

        if a_mod != 0:
            chi = legendre(a_mod * a_mod - 4 * d_mod, p)
            if chi == -1:
                ruled_out.update((BOREL, SPLIT_CARTAN_NORMALIZER))
            if chi == 1:
                ruled_out.add(NONSPLIT_CARTAN_NORMALIZER)
            u = a_mod * a_mod * pow(d_mod, -1, p) % p
            if u not in bad_u:
                ruled_out.add(EXCEPTIONAL)

        if p == 3 and BOREL in ruled_out and NONSPLIT_CARTAN_NORMALIZER not in ruled_out:
            # psi_3 has four distinct roots mod ell (good reduction, ell != 3),
            # so exactly one root in F_ell makes Frob_ell a 3-cycle on them.
            # The nonsplit Cartan normalizer has projective image D4, with no
            # 3-cycle; full determinant and the chi = -1 witness then leave
            # projective image S4, and with full determinant only the whole
            # of GL_2(F_3) has that image (its involution is unique).
            if count_roots_mod(_division_polynomial(m, 3), ell) == 1:
                ruled_out.add(NONSPLIT_CARTAN_NORMALIZER)

        if (len(ruled_out), det_order) != before:  # a class or a determinant is new
            witnesses.append((ell, a_mod, d_mod))
        if det_order == p - 1 and len(ruled_out) == 4:
            return ImageCertificate(
                p, SURJECTIVE_CERTIFIED, tuple(witnesses), frozenset(ruled_out)
            )
        if (
            len(frobenius) == SCAN_PREFIX
            and p <= 13
            and BOREL not in ruled_out
            and exact_factor(m, p, frobenius) is not None
        ):
            # full image acts transitively on the (p^2-1)/2 x-coordinates of
            # p-torsion, so a factor of psi_p over Q certifies a proper image
            return _unsurjective(p, SMALL_IMAGE_CERTIFIED, witnesses, ruled_out)

    status = INCONCLUSIVE
    if p <= 13 and (exact_factor(m, p, frobenius) or _division_poly_reducible(m, p)):
        status = SMALL_IMAGE_CERTIFIED
    return _unsurjective(p, status, witnesses, ruled_out)


def _unsurjective(p, status, witnesses, ruled_out):
    missing = [c for c in ALL_CLASSES if c not in ruled_out]
    first = missing[0] if missing else "DetNotWitnessed"
    return ImageCertificate(p, status, tuple(witnesses), frozenset(ruled_out), first)


def _x_multiple(model, c):
    """(N, D) with x(cP) = N(x) / D(x) on the curve, for c >= 1.

    phi_c / psi_c^2 with phi_c = x psi_c^2 - psi_(c+1) psi_(c-1), written on
    f_m = psi_m (m odd) or psi_m / psi_2 (m even) and S = psi_2^2.
    """
    if c == 1:
        return [0, 1], [1]
    b2, b4, b6, _ = b_invariants(*model.ainvs())
    S = [b6, 2 * b4, b2, 4]
    f = {m: list(_division_polynomial(model, m)) for m in (c - 1, c, c + 1)}
    if c % 2:
        D, E = _zmul(f[c], f[c]), _zmul(S, f[c + 1], f[c - 1])
    else:
        D, E = _zmul(S, f[c], f[c]), _zmul(f[c + 1], f[c - 1])
    return _zsub(_zmul([0, 1], D), E), D


def exact_factor(model, p, frobenius):
    """A factor of psi_p over Q of degree (p-1)/2, read off from Frobenius data, or None.

    frobenius holds (ell, a_ell mod p, ell mod p) at good primes ell != p.
    For an eigenvalue lam of Frob_ell on E[p], the roots of psi_p mod ell
    with x^ell = x(lam P) are the x-coordinates of the points that Frob_ell
    sends to +-lam P: gcd(psi_p, x^ell D_lam - N_lam) mod ell.  When that
    has degree (p-1)/2 it is one eigenline, and it is lifted to Q and kept
    only if it divides psi_p exactly.  If the image lies in a Borel with
    stable line C, the first prime that gives any eigenline gives C among
    its one or two, so the search ends at that prime.
    """
    psi = _division_polynomial(model, p)
    half = (p - 1) // 2
    for ell, a_mod, d_mod in frobenius:
        # eigenvalues up to sign; lam and -lam have the same x-coordinate map
        signs = {
            min(lam, p - lam)
            for lam in range(1, p)
            if (lam * lam - a_mod * lam + d_mod) % p == 0
        }
        if not signs:
            continue
        frob = _ppow([0, 1], ell, psi, ell)  # x^ell mod psi_p
        candidates = []
        for c in sorted(signs):
            N, D = _x_multiple(model, c)
            line = _pgcd(psi, _zsub(_prem(_zmul(frob, D), psi, ell), N), ell)
            if len(line) - 1 == half:
                candidates.append(line)
            elif half == 1 and len(line) == 3:
                # p = 3, a_ell = 0 mod 3: the two eigenlines, one root each
                candidates += [[-x, 1] for x in range(ell) if not _prem(line, [-x, 1], ell)]
        for h in candidates:
            factor = lift_rational_factor(psi, h, ell)
            if factor is not None:
                return factor
        if candidates:
            return None
    return None


def _division_poly_reducible(model, p):
    """Whether psi_p factors over Q, by sympy."""
    factors = rational_factors(division_polynomial(model, p))
    return len(factors) > 1 or factors[0][1] > 1


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


def wild_ramification_status(profile, assume_wild_ramification=False):
    """Status string of the wild-ramification hypothesis at p.

    Vacuous when supersingular or a_p != 1 mod p; CMCase when the curve has
    complex multiplication; AssumedByUser only under the explicit flag;
    otherwise Unknown and the hypothesis stays unestablished.
    """
    p = profile.p
    if profile.reduction_kind == SUPERSINGULAR or profile.a_p % p != 1:
        return VACUOUS
    if profile.cm_discriminant is not None:
        return CM_CASE
    if assume_wild_ramification:
        return ASSUMED_BY_USER
    return UNKNOWN
