"""Mod-p Galois image certification.

Surjectivity is certified one-sidedly from Frobenius data (a_ell, ell mod p):
a proper subgroup of GL_2(F_p) with full determinant lies in a Borel, the
normalizer of a split or nonsplit Cartan, or has exceptional projective
image A4/S4/A5; each class is ruled out by an explicit witness prime.  The
certificate is sound: SurjectiveCertified is only emitted with witnesses
against all four classes plus determinant surjectivity.  CM curves are
decided from j alone, before any scan.  Division polynomials are integer
coefficient lists, lowest degree first.
"""

from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .arith import _pdivmod, _pgcd, _ppow, _zmul, _zsub, count_roots_mod, legendre, lift_rational_factor
from .arith import factor, primes_up_to, require_analyzable_prime
from .curve import CURVE_CACHE_SIZE, TABLE_CACHE_BOUND, brute_force_point_count, compute_invariants
from .curve import minimal_model, trace_of_frobenius
from .errors import BadReductionAtP, InvalidInput

SURJECTIVE_CERTIFIED = "SurjectiveCertified"
SMALL_IMAGE_CERTIFIED = "SmallImageCertified"
INCONCLUSIVE = "Inconclusive"

BOREL = "Borel"
SPLIT_CARTAN_NORMALIZER = "SplitCartanNormalizer"
NONSPLIT_CARTAN_NORMALIZER = "NonsplitCartanNormalizer"
EXCEPTIONAL = "Exceptional"
ALL_CLASSES = (BOREL, SPLIT_CARTAN_NORMALIZER, NONSPLIT_CARTAN_NORMALIZER, EXCEPTIONAL)

SCAN_BOUND = TABLE_CACHE_BOUND  # every scan takes the good primes up to here, whose character tables stay cached
PRIME_CACHE_SIZE = 1024  # values of p whose p - 1 stays factored; a corpus pass reads 24
FACTOR_SEARCH_MAX_P = 13  # up to here a standing Borel class sends the scan to psi_p's factors
FACTOR_WINDOW = 20  # good primes scanned before a standing Borel class does so


class ImageCertificate(NamedTuple):
    status: str
    witnesses: tuple
    ruled_out: frozenset
    first_unruled: str | None = None


def a_ell(model, ell):
    """Trace of Frobenius at any good prime, including ell = 2."""
    if ell == 2:
        return _trace_at_2(minimal_model(model))
    return trace_of_frobenius(model, ell)


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def _trace_at_2(m):
    """a_2 = 3 - #E(F_2) of a minimal model, by counting points."""
    if compute_invariants(m).disc % 2 == 0:
        raise BadReductionAtP(f"{m} has bad reduction at 2")
    return 3 - brute_force_point_count(m, 2)


@lru_cache(maxsize=PRIME_CACHE_SIZE)
def _unit_primes(p):
    """The primes of p - 1, the order of (Z/p)^x."""
    return tuple(factor(p - 1))


def certify_image(model, p):
    """One-sided surjectivity certificate for the mod-p representation.

    A CM curve is SmallImageCertified from its j-invariant alone: its image
    lies in the normalizer of a Cartan subgroup (Serre 1972), so no witness
    is scanned for.  Otherwise scans the good primes ell <= SCAN_BOUND (ell
    not dividing p*disc) in increasing order, stopping as soon as every
    maximal-subgroup class is ruled out and the determinant witnesses
    generate (Z/p)^x.  At p = 3, where traces never rule out the nonsplit
    Cartan normalizer, a 3-cycle of Frob_ell on the 3-division quartic does.
    At p <= FACTOR_SEARCH_MAX_P, once Borel has stood through FACTOR_WINDOW
    good primes, and again if the scan ends with Borel still standing,
    exact_factor looks on the primes scanned so far for a factor of psi_p
    over Q; a factor ends the scan SmallImageCertified with the witnesses
    found so far.  Past the window the scan goes on for a chi = -1 witness,
    which no image with a stable line has.  After a scan that certifies
    nothing, sympy's factorization of psi_p is the last resort.  p must pass
    require_analyzable_prime: an odd prime, where the class list and witness
    rules hold, at most TRIAL_DIVISION_BOUND, so p - 1 is factored by trial
    division alone.
    """
    require_analyzable_prime(p)
    m = minimal_model(model)
    inv = compute_invariants(m)
    if inv.disc % p == 0:
        raise BadReductionAtP(f"bad reduction at {p}")
    if inv.cm_discriminant() is not None:
        return ImageCertificate(SMALL_IMAGE_CERTIFIED, (), frozenset(), BOREL)

    ruled_out = set()
    witnesses = []
    frobenius = []
    det_order = 1  # of the subgroup of (Z/p)^x the witnesses generate
    unit_primes = _unit_primes(p)
    psi3 = _division_polynomial(m, 3)[3] if p == 3 else None

    for ell in primes_up_to(SCAN_BOUND):
        if ell == p or inv.disc % ell == 0:
            continue
        a = a_ell(m, ell)
        a_mod, d_mod = a % p, ell % p
        frobenius.append((ell, a_mod, d_mod))
        before = (len(ruled_out), det_order)

        # (Z/p)^x is cyclic, so adding d_mod to a subgroup of order n gives
        # one of order lcm(n, ord(d_mod))
        if pow(d_mod, det_order, p) != 1:
            det_order = lcm(det_order, _unit_order(d_mod, p, unit_primes))
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
            # u = tr^2/det: in {0, 1, 2, 4} at projective order <= 4 (or p), u^2 = 3u - 1 at order 5
            u = a_mod * a_mod * pow(d_mod, -1, p) % p
            if u not in (0, 1, 2, 4 % p) and (u * u - 3 * u + 1) % p:
                ruled_out.add(EXCEPTIONAL)

        if p == 3 and BOREL in ruled_out and NONSPLIT_CARTAN_NORMALIZER not in ruled_out:
            # psi_3 has four distinct roots mod ell (good reduction, ell != 3),
            # so exactly one root in F_ell makes Frob_ell a 3-cycle on them.
            # The nonsplit Cartan normalizer has projective image D4, with no
            # 3-cycle; full determinant and the chi = -1 witness then leave
            # projective image S4, and with full determinant only the whole
            # of GL_2(F_3) has that image (its involution is unique).  Only
            # +-(a nontrivial unipotent) has projective order 3, with
            # characteristic polynomial (x -+ 1)^2: d = 1 and a != 0 mod 3.
            if d_mod == 1 and a_mod != 0 and count_roots_mod(psi3, ell) == 1:
                ruled_out.add(NONSPLIT_CARTAN_NORMALIZER)

        if (len(ruled_out), det_order) != before:  # a class or a determinant is new
            witnesses.append((ell, a_mod, d_mod))
        if det_order == p - 1 and len(ruled_out) == 4:
            return ImageCertificate(SURJECTIVE_CERTIFIED, tuple(witnesses), frozenset(ruled_out))
        if p <= FACTOR_SEARCH_MAX_P and BOREL not in ruled_out and len(frobenius) == FACTOR_WINDOW:
            # full image acts transitively on the (p^2-1)/2 x-coordinates of
            # p-torsion, so a factor of psi_p over Q certifies a proper image
            if exact_factor(m, p, frobenius) is not None:
                return _unsurjective(SMALL_IMAGE_CERTIFIED, witnesses, ruled_out)
    status = INCONCLUSIVE
    # a factor exact_factor returns spans a stable line, which a chi = -1 witness rules out
    if p <= FACTOR_SEARCH_MAX_P and (
        BOREL not in ruled_out and exact_factor(m, p, frobenius) or _division_poly_reducible(m, p)
    ):
        status = SMALL_IMAGE_CERTIFIED
    return _unsurjective(status, witnesses, ruled_out)


def _unit_order(d, p, primes):
    """Order of d in (Z/p)^x: from n = p - 1, divide by each prime q of p - 1 while d^(n/q) = 1."""
    n = p - 1
    for q in primes:
        while n % q == 0 and pow(d, n // q, p) == 1:
            n //= q
    return n


def _unsurjective(status, witnesses, ruled_out):
    missing = [c for c in ALL_CLASSES if c not in ruled_out]
    first = missing[0] if missing else "DetNotWitnessed"
    return ImageCertificate(status, tuple(witnesses), frozenset(ruled_out), first)


def _x_multiple(f, S, c):
    """(N, D) with x(cP) = N(x) / D(x) on the curve, for c >= 1.

    phi_c / psi_c^2 with phi_c = x psi_c^2 - psi_(c+1) psi_(c-1), written on
    the memo f of _division_polynomial and S = psi_2^2.
    """
    if c == 1:  # psi_0 = 0
        return [0, 1], [1]
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
    half = (p - 1) // 2
    f = _division_polynomial(model, p, *range(2, half + 2))  # at p <= 13 f_p's build has them all
    psi = f[p]
    b2, b4, b6 = compute_invariants(model)[:3]
    S = [b6, 2 * b4, b2, 4]
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
            N, D = _x_multiple(f, S, c)
            line = _pgcd(psi, _zsub(_pdivmod(_zmul(frob, D), psi, ell)[1], N), ell)
            if len(line) - 1 == half:
                candidates.append(line)
            elif half == 1 and len(line) == 3:
                # p = 3, a_ell = 0 mod 3: the two eigenlines, one root each
                candidates += [[-x, 1] for x in range(ell) if not _pdivmod(line, [-x, 1], ell)[1]]
        for h in candidates:
            factor = lift_rational_factor(psi, h, ell)
            if factor is not None:
                return factor
        if candidates:
            return None
    return None


def _division_poly_reducible(model, p):
    """Whether psi_p factors over Q, by sympy."""
    import sympy

    factors = sympy.Poly(division_polynomial(model, p)[::-1], sympy.Symbol("x")).factor_list()[1]
    return len(factors) > 1 or factors[0][1] > 1


def division_polynomial(model, m):
    """psi_m for odd m >= 1 as integer coefficients, lowest degree first; its leading coefficient is m."""
    if m % 2 == 0 or m < 1:
        raise InvalidInput("only odd positive division polynomials are univariate in x")
    return _division_polynomial(model, m)[m]


def _division_polynomial(model, *indices):
    """The memo {n: f_n} of one build of f_m for each m in indices: every f_n
    that build met, f_1 to f_4 always, with f_n = psi_n for odd n and
    psi_n / psi_2 for even n.  The doubling recurrence on psi_n, rewritten on
    f_k so that only S = psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 appears."""
    b2, b4, b6, b8 = compute_invariants(model)[:4]
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

    for m in indices:
        get(m)
    return f

