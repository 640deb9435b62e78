import builtins
import json
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import DATA_DIR
from oracles import det_order_by_search, duplication_fixed_x_count, exceptional_traces
from shaclass import galrep
from shaclass.arith import legendre, primes_up_to, rational_factors
from shaclass.curve import (
    CurveModel,
    compute_invariants,
    minimal_model,
    trace_of_frobenius,
)
from shaclass.engine import ASSUMED_BY_USER, CM_CASE, UNKNOWN_STATUS, VACUOUS, wild_ramification_status
from shaclass.errors import BadReductionAtP, InvalidInput
from shaclass.galrep import (
    EXCEPTIONAL,
    INCONCLUSIVE,
    SMALL_IMAGE_CERTIFIED,
    SURJECTIVE_CERTIFIED,
    NONSPLIT_CARTAN_NORMALIZER,
    SCAN_PREFIX,
    _unit_order,
    a_ell,
    certify_image,
    division_polynomial,
    exact_factor,
)

CURVE_1058D1 = CurveModel(1, -1, 0, -332311, -73733731)
CURVE_11A1 = CurveModel(0, -1, 1, -10, -20)
CURVE_43A1 = CurveModel(0, 1, 1, 0, 0)

# j-invariants of the thirteen imaginary quadratic orders of class number one
CM_J = frozenset(
    (0, 1728, -3375, 8000, -32768, 54000, 287496, -884736, -12288000, 16581375,
     -884736000, -147197952000, -262537412640768000)
)


def _j_and_disc(ainvs):
    """j = c4^3 / disc from the a-invariants, written out independently."""
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    c4 = b2 * b2 - 24 * b4
    return Fraction(c4**3, disc), disc


def _has_three_cycle_witness(model, witnesses):
    """Some witness ell has exactly one x in F_ell with x(2P) = x(P): Frob_ell
    is then a 3-cycle on the four x-coordinates of E[3]."""
    return any(duplication_fixed_x_count(model, ell) == 1 for ell, _, _ in witnesses)


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@pytest.fixture(scope="module")
def corpus_models(tate_corpus, image_corpus):
    """{label: ainvs} over both corpora, which agree on shared labels."""
    return {
        label: tuple(entry["ainvs"])
        for corpus in (tate_corpus, image_corpus)
        for label, entry in corpus.items()
    }


class TestCertifyImage:
    def test_corpus_soundness(self, image_corpus):
        """Full-image fixtures certify; proper-image fixtures never do."""
        fulls = propers = 0
        for label, entry in image_corpus.items():
            model = CurveModel(*entry["ainvs"])
            cert = certify_image(model, entry["p"], 1000)
            if entry["image"] == "full":
                assert cert.status == SURJECTIVE_CERTIFIED, label
                fulls += 1
            else:
                assert cert.status != SURJECTIVE_CERTIFIED, label
                propers += 1
        assert fulls >= 10
        assert propers >= 5
        assert fulls + propers >= 30

    def test_witness_validity(self, image_corpus):
        for entry in image_corpus.values():
            model = CurveModel(*entry["ainvs"])
            p = entry["p"]
            cert = certify_image(model, p, 1000)
            disc = compute_invariants(minimal_model(model)).disc
            for ell, a_mod, d_mod in cert.witnesses:
                assert ell != p and disc % ell != 0 and (p * disc) % ell != 0
                assert a_ell(model, ell) % p == a_mod
                assert ell % p == d_mod

    def test_monotonicity(self, image_corpus):
        for entry in list(image_corpus.values())[:6]:
            model = CurveModel(*entry["ainvs"])
            first = certify_image(model, 5, 1000).status
            second = certify_image(model, 5, 2000).status
            if first == SURJECTIVE_CERTIFIED:
                assert second == SURJECTIVE_CERTIFIED

    def test_isogeny_curve_not_certified(self):
        cert = certify_image(CURVE_11A1, 5, 1000)
        assert cert.status == SMALL_IMAGE_CERTIFIED
        assert cert.first_unruled == "Borel"

    def test_cm_curve_small_image(self):
        cert = certify_image(CurveModel(0, 0, 1, 0, -7), 5, 1000)  # 27a1
        assert cert.status == SMALL_IMAGE_CERTIFIED

    def test_cm_decided_from_j_without_scan(self, corpus_models, monkeypatch):
        def no_scan(model, ell):
            raise AssertionError(f"a_ell({ell}) called for a CM curve")

        monkeypatch.setattr("shaclass.galrep.a_ell", no_scan)
        cm_curves = 0
        for label, ainvs in corpus_models.items():
            j, disc = _j_and_disc(ainvs)
            if j not in CM_J:
                continue
            cm_curves += 1
            for p in primes_up_to(97)[1:]:
                if disc % p == 0:
                    continue
                cert = certify_image(CurveModel(*ainvs), p, 1000)
                assert cert.status == SMALL_IMAGE_CERTIFIED, (label, p)
                assert cert.witnesses == (), (label, p)
        assert cm_curves >= 10

    def test_p3_traces_never_rule_out_nonsplit_cartan(self):
        # why p = 3 needs the 3-cycle witness: for a, d != 0 mod 3,
        # a^2 - 4d is never a nonzero square mod 3
        for a in (1, 2):
            for d in (1, 2):
                assert legendre(a * a - 4 * d, 3) != 1

    def test_golden_image_witnesses(self, corpus_models):
        """Status and witnesses at p in {3, 5, 7} match the committed table."""
        golden = json.loads((DATA_DIR / "golden" / "image_witnesses.json").read_text())
        assert sorted(golden) == sorted(corpus_models)
        for label, ainvs in corpus_models.items():
            _, disc = _j_and_disc(ainvs)
            rows = {}
            for p in (3, 5, 7):
                if disc % p:
                    cert = certify_image(CurveModel(*ainvs), p)
                    rows[str(p)] = {
                        "image_status": cert.status,
                        "image_witnesses": [list(w) for w in cert.witnesses],
                    }
            assert rows == golden[label], label

    def test_p3_golden_certificates_have_three_cycle_witness(self, corpus_models):
        golden = json.loads((DATA_DIR / "golden" / "image_witnesses.json").read_text())
        certified = 0
        for label, rows in golden.items():
            row = rows.get("3")
            if row is None or row["image_status"] != SURJECTIVE_CERTIFIED:
                continue
            model = CurveModel(*corpus_models[label])
            witnesses = row["image_witnesses"]
            assert _has_three_cycle_witness(model, witnesses), label
            # the check is not vacuous: swap the 3-cycle prime for a good
            # prime with 0 or 2 such x and it must fail
            disc = _j_and_disc(corpus_models[label])[1]
            index = next(i for i, w in enumerate(witnesses)
                         if duplication_fixed_x_count(model, w[0]) == 1)
            swap = next(q for q in primes_up_to(100)
                        if q != 3 and disc % q and duplication_fixed_x_count(model, q) in (0, 2))
            mutated = witnesses[:index] + [[swap, *witnesses[index][1:]]] + witnesses[index + 1:]
            assert not _has_three_cycle_witness(model, mutated), label
            certified += 1
        assert certified == 27

    def test_p3_sample_bound_covers_the_three_cycle_prime(self):
        # 43a1's first 3-cycle prime is 13 > 10
        small = certify_image(CURVE_43A1, 3, sample_bound=10)
        assert small.status == INCONCLUSIVE
        assert small.first_unruled == NONSPLIT_CARTAN_NORMALIZER
        assert certify_image(CURVE_43A1, 3).status == SURJECTIVE_CERTIFIED

    def test_preconditions(self):
        with pytest.raises(InvalidInput):
            certify_image(CURVE_1058D1, 5, 5)
        with pytest.raises(BadReductionAtP):
            certify_image(CURVE_11A1, 11, 1000)

    @pytest.mark.parametrize("bound", [0, 5, -3, 1000001])
    def test_sample_bound_out_of_range_is_invalid_input(self, bound):
        # a short or long scan is a library call only; analyze scans to 1000
        with pytest.raises(InvalidInput, match="sample_bound must be between 10 and 1000000"):
            certify_image(CURVE_11A1, 5, sample_bound=bound)

    @pytest.mark.parametrize("p", [2, 9, 15, 25, -5, 1, 0])
    def test_p_not_an_odd_prime_is_invalid_input(self, p):
        # at 2, 37a1's 2-division cubic 4x^3 - 4x + 1 is irreducible with
        # discriminant 592, not a square, so its image is all of GL_2(F_2):
        # a small-image verdict there would be unsound
        with pytest.raises(InvalidInput, match="odd prime"):
            certify_image(CurveModel(0, 0, 1, -1, 0), p)

    def test_p3_certification(self):
        # 37a1 has full mod-3 image as well; the determinant rule closes the
        # exceptional class at p = 3
        cert = certify_image(CurveModel(0, 0, 1, -1, 0), 3, 1000)
        assert cert.status == SURJECTIVE_CERTIFIED


ODD_PRIMES_BELOW_2000 = [q for q in primes_up_to(2000) if q > 2]


class TestUnitGroupFacts:
    """The image scan's closed forms for (Z/p)^x against the linear passes of oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ODD_PRIMES_BELOW_2000), st.integers(1, 10**6), st.integers(0, 10**6))
    def test_unit_order_and_lcm_match_the_search(self, p, d, k):
        d = 1 + d % (p - 1)
        divisors = [n for n in range(1, p) if (p - 1) % n == 0]
        n = divisors[k % len(divisors)]
        order = _unit_order(d, p, galrep.factor(p - 1))
        assert order == det_order_by_search(d, p)
        assert lcm(n, order) == det_order_by_search(d, p, n)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([q for q in ODD_PRIMES_BELOW_2000 if q > 13]),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
    )
    def test_exceptional_ruled_out_exactly_off_the_traces(self, p, a, u):
        # a one-prime scan with a_ell = a and ell = d mod p, d = a^2 / u: the
        # exceptional class is ruled out iff u is no trace of projective
        # order <= 5; 11a1's discriminant is -11^5, so ell avoids 11
        a, u = 1 + a % (p - 1), 1 + u % (p - 1)
        d = a * a * pow(u, -1, p) % p
        ell = next(e for e in (d + p, d + 2 * p) if e % 11)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(galrep, "primes_up_to", lambda bound: (ell,))
            mp.setattr(galrep, "a_ell", lambda model, e: a)
            cert = certify_image(CURVE_11A1, p)
        assert (EXCEPTIONAL in cert.ruled_out) == (u not in exceptional_traces(p))

    def test_large_p_costs_few_pow_calls(self, monkeypatch):
        # no pass over F_p: at p = 999983 the scan needs a few dozen powers
        calls = 0

        def counting_pow(*args):
            nonlocal calls
            calls += 1
            return builtins.pow(*args)

        monkeypatch.setattr(galrep, "pow", counting_pow, raising=False)
        assert certify_image(CURVE_11A1, 999983).status == SURJECTIVE_CERTIFIED
        assert 0 < calls < 1000


# the corpus jobs whose mod-p image is reducible (not CM), with p
REDUCIBLE_JOBS = (
    ("11a1", 5), ("11a2", 5), ("11a3", 5),
    ("14a1", 3), ("19a1", 3), ("37b1", 3), ("1058c1", 3),
)


def _sympy_psi(model, p):
    return sympy.Poly(division_polynomial(model, p)[::-1], sympy.Symbol("x"))


def _psi_reducible_by_sympy(model, p):
    factors = _sympy_psi(model, p).factor_list()[1]
    return len(factors) > 1 or factors[0][1] > 1


def _frobenius_prefix(model, p):
    """(ell, a_ell mod p, ell mod p) at the first SCAN_PREFIX good primes ell != p."""
    m = minimal_model(model)
    disc = compute_invariants(m).disc
    good = [ell for ell in primes_up_to(200) if ell != p and disc % ell][:SCAN_PREFIX]
    return m, [(ell, a_ell(m, ell) % p, ell % p) for ell in good]


def _curve_with_j(j, d):
    """y^2 = x^3 - 3 j (j - 1728) d^2 x - 2 j (j - 1728)^2 d^3, scaled to integers:
    a twist by d of a curve with j-invariant j (j != 0, 1728)."""
    a4, a6 = -3 * j * (j - 1728) * d * d, -2 * j * (j - 1728) ** 2 * d**3
    u = a4.denominator * a6.denominator
    return CurveModel(0, 0, 0, int(a4 * u**4), int(a6 * u**6))


# X_0(p) for p = 3, 5, 7: j(t) of a curve with a rational p-isogeny
_X0_J = {
    3: lambda t: (t + 27) * (t + 3) ** 3 / t,
    5: lambda t: (t * t + 10 * t + 5) ** 3 / t,
    7: lambda t: (t * t + 13 * t + 49) * (t * t + 5 * t + 1) ** 3 / t,
}


@st.composite
def small_curves(draw):
    """(model, p): a small non-CM curve, good at p in {3, 5, 7}; half of them
    twists of curves on X_0(p), whose image is reducible."""
    p = draw(st.sampled_from((3, 5, 7)))
    if draw(st.booleans()):
        t = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 4)))
        j = _X0_J[p](t)
        if j in (0, 1728):
            j = Fraction(_X0_J[p](Fraction(11)))
        model = _curve_with_j(j, draw(st.sampled_from((1, -1, 2, -3, 5))))
    else:
        ainvs = [draw(st.integers(-1, 1)), draw(st.integers(-2, 2)), draw(st.integers(-1, 1)),
                 draw(st.integers(-30, 30)), draw(st.integers(-60, 60))]
        try:
            model = CurveModel(*ainvs)
        except Exception:
            model = CURVE_11A1
    inv = compute_invariants(minimal_model(model))
    if inv.disc % p == 0 or inv.j in CM_J:
        model, p = CURVE_11A1, 5
    return model, p


class TestExactFactor:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_curves())
    def test_small_image_exactly_when_psi_reducible(self, case):
        """SmallImageCertified iff the scan leaves surjectivity open and
        sympy (the oracle) factors psi_p; a returned factor divides psi_p."""
        model, p = case
        cert = certify_image(model, p)
        reducible = _psi_reducible_by_sympy(model, p)
        if cert.status == SURJECTIVE_CERTIFIED:
            assert not reducible
        assert (cert.status == SMALL_IMAGE_CERTIFIED) == (
            cert.status != SURJECTIVE_CERTIFIED and reducible
        )
        m, frobenius = _frobenius_prefix(model, p)
        factor = exact_factor(m, p, frobenius)
        if factor is not None:
            assert len(factor) - 1 == (p - 1) // 2
            divisor = sympy.Poly(factor[::-1], sympy.Symbol("x"))
            quotient, remainder = sympy.div(_sympy_psi(m, p), divisor)
            assert remainder.is_zero and quotient.degree() > 0

    def test_x0_curves_are_found_by_the_exact_factor(self):
        found = 0
        for p, j_of in _X0_J.items():
            for t in (-4, -2, 2, 3, 5):
                for d in (1, -1, 2):
                    model = minimal_model(_curve_with_j(j_of(Fraction(t)), d))
                    if compute_invariants(model).disc % p == 0:
                        continue
                    m, frobenius = _frobenius_prefix(model, p)
                    factor = exact_factor(m, p, frobenius)
                    assert factor is not None, (p, t, d)
                    found += 1
        assert found >= 20

    def test_surjective_curve_has_no_exact_factor(self):
        m, frobenius = _frobenius_prefix(CURVE_1058D1, 5)
        assert exact_factor(m, 5, frobenius) is None

    @pytest.mark.parametrize("label, p", REDUCIBLE_JOBS)
    def test_reducible_corpus_jobs_scan_only_the_prefix(self, label, p, corpus_models, monkeypatch):
        calls = []

        def counted(model, ell):
            calls.append(ell)
            return a_ell(model, ell)

        def no_fallback(model, p):
            raise AssertionError("the sympy fallback was reached")

        monkeypatch.setattr("shaclass.galrep.a_ell", counted)
        monkeypatch.setattr("shaclass.galrep._division_poly_reducible", no_fallback)
        cert = certify_image(CurveModel(*corpus_models[label]), p)
        assert cert.status == SMALL_IMAGE_CERTIFIED
        assert cert.first_unruled == "Borel"
        assert len(calls) <= SCAN_PREFIX

    def test_scan_shorter_than_the_prefix_tries_the_exact_factor(self, monkeypatch):
        def no_fallback(model, p):
            raise AssertionError("the sympy fallback was reached")

        monkeypatch.setattr("shaclass.galrep._division_poly_reducible", no_fallback)
        cert = certify_image(CURVE_11A1, 5, sample_bound=20)  # 6 good primes
        assert cert.status == SMALL_IMAGE_CERTIFIED
        assert cert.first_unruled == "Borel"

    def test_certificate_lists_the_prefix_witnesses_only(self, monkeypatch):
        """A factor found after SCAN_PREFIX good primes ends the scan: the
        certificate lists the witnesses a full scan finds at those primes."""
        checked = 0
        for p, j_of in _X0_J.items():
            for t, d in ((-4, 1), (2, -1), (3, 2), (5, -1), (-2, 5)):
                model = minimal_model(_curve_with_j(j_of(Fraction(t)), d))
                if compute_invariants(model).disc % p == 0:
                    continue
                prefix = {ell for ell, _, _ in _frobenius_prefix(model, p)[1]}
                cert = certify_image(model, p)
                with monkeypatch.context() as patched:
                    patched.setattr("shaclass.galrep.exact_factor", lambda *args: None)
                    full = certify_image(model, p)
                assert cert.status == full.status == SMALL_IMAGE_CERTIFIED
                assert cert.witnesses == tuple(w for w in full.witnesses if w[0] in prefix)
                assert cert.ruled_out <= full.ruled_out
                checked += 1
        assert checked >= 8


class TestSympyFallback:
    """(1, 1, 1, 3, -5), conductor 338, j = 1331/8: psi_3 is a product of two
    quadratics over Q with no linear factor, so the curve has no rational
    3-isogeny and exact_factor, which looks for a factor of degree 1, finds
    nothing.  Only sympy's factorization of psi_3 certifies its small image."""

    MODEL = CurveModel(1, 1, 1, 3, -5)

    def test_psi3_splits_two_by_two_over_q(self):
        inv = compute_invariants(self.MODEL)
        assert (inv.disc, inv.j) == (-(2**3) * 13**3, Fraction(1331, 8))
        factors = _sympy_psi(self.MODEL, 3).factor_list()[1]
        assert sorted((f.degree(), e) for f, e in factors) == [(2, 1), (2, 1)]

    def test_exact_factor_finds_nothing_on_the_prefix(self):
        m, frobenius = _frobenius_prefix(self.MODEL, 3)
        assert len(frobenius) == SCAN_PREFIX
        assert exact_factor(m, 3, frobenius) is None

    def test_certified_only_after_the_full_scan_and_the_fallback(self, monkeypatch):
        scanned, fallback = [], []

        def counted(model, ell):
            scanned.append(ell)
            return a_ell(model, ell)

        def reducible(model, p):
            fallback.append(p)
            return _psi_reducible_by_sympy(model, p)

        monkeypatch.setattr("shaclass.galrep.a_ell", counted)
        monkeypatch.setattr("shaclass.galrep._division_poly_reducible", reducible)
        cert = certify_image(self.MODEL, 3)
        assert cert.status == SMALL_IMAGE_CERTIFIED
        assert cert.witnesses == ((5, 0, 2),)
        assert cert.first_unruled == "Borel"
        assert fallback == [3]
        good = [ell for ell in primes_up_to(galrep.DEFAULT_SAMPLE_BOUND) if ell not in (2, 3, 13)]
        assert scanned == good


class TestDivisionPolynomials:
    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_degree(self, p):
        psi = division_polynomial(CURVE_1058D1, p)
        assert all(type(c) is int for c in psi)
        assert len(psi) - 1 == (p * p - 1) // 2

    def test_psi3_closed_form(self):
        from shaclass.curve import b_invariants

        b2, b4, b6, b8 = b_invariants(*CURVE_11A1.ainvs())
        expected = [b8, 3 * b6, 3 * b4, b2, 3]
        assert division_polynomial(CURVE_11A1, 3) == expected

    def test_11a1_psi5_has_quadratic_factor(self):
        # the rational 5-isogeny forces a degree <= 2 factor over Q
        factors = rational_factors(division_polynomial(CURVE_11A1, 5))
        degrees = sorted(len(f) - 1 for f, _ in factors)
        assert 2 in degrees
        assert len(factors) > 1

    def test_full_image_psi5_irreducible(self):
        factors = rational_factors(division_polynomial(CURVE_1058D1, 5))
        assert len(factors) == 1 and len(factors[0][0]) - 1 == 12

    def test_even_m_rejected(self):
        with pytest.raises(InvalidInput):
            division_polynomial(CURVE_11A1, 4)
        with pytest.raises(InvalidInput):
            division_polynomial(CURVE_11A1, -1)

    def test_roots_are_torsion_x_coordinates(self):
        # every rational root of psi_5 of 11a1 is the x-coordinate of an
        # actual 5-torsion point: check x = 5 (the famous (5, 5) point)
        psi = division_polynomial(CURVE_11A1, 5)
        assert _horner(psi, 5) == 0
        assert _horner(psi, 16) == 0  # x(2P) for P = (5,5)


class TestWildRamification:
    """engine.wild_ramification_status(a_p, p, cm_discriminant, flag): the
    status of (b), which the engine decides beside its ledger row."""

    def test_vacuous_when_ap_not_one(self):
        a_5 = trace_of_frobenius(CURVE_1058D1, 5)
        assert a_5 == 2
        assert wild_ramification_status(a_5, 5, None) == VACUOUS
        assert wild_ramification_status(a_5, 5, None, assume_wild_ramification=True) == VACUOUS

    def test_vacuous_when_supersingular(self):
        # a_p = 0 mod p, with or without CM or the flag: a_p = 0, and at
        # p = 3 also a_3 = +-3, which the Hasse bound |a_3| <= 2 sqrt(3) allows
        for a_p, p in ((0, 5), (0, 3), (3, 3), (-3, 3)):
            for cm in (None, -3):
                for flag in (False, True):
                    assert wild_ramification_status(a_p, p, cm, flag) == VACUOUS

    def test_cm_case(self):
        assert wild_ramification_status(1, 7, -3) == CM_CASE
        assert wild_ramification_status(-6, 7, -3, assume_wild_ramification=True) == CM_CASE

    def test_assumed_by_user(self):
        status = wild_ramification_status(1, 7, None, assume_wild_ramification=True)
        assert status == ASSUMED_BY_USER

    def test_unknown_without_certificate(self):
        assert wild_ramification_status(1, 7, None) == UNKNOWN_STATUS
        assert wild_ramification_status(-4, 5, None) == UNKNOWN_STATUS  # 43a1's a_5
