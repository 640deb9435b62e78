import builtins
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import lcm, prod

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import DATA_DIR, TESTS_DIR
from oracles import add_points_mod, affine_points_mod, det_order_by_search, duplication_fixed_x_count
from oracles import exceptional_traces
from shaclass import galrep
from shaclass.arith import legendre, primes_up_to
from shaclass.curve import (
    CurveModel,
    b_invariants,
    brute_force_point_count,
    compute_invariants,
    discriminant_from_b,
    minimal_model,
    trace_of_frobenius,
)
from shaclass.engine import ASSUMED_BY_USER, CM_CASE, UNKNOWN_STATUS, VACUOUS, wild_ramification_status
from shaclass.errors import BadReductionAtP, InvalidInput
from shaclass.galrep import (
    EXCEPTIONAL,
    FACTOR_WINDOW,
    INCONCLUSIVE,
    NONSPLIT_CARTAN_NORMALIZER,
    SMALL_IMAGE_CERTIFIED,
    SURJECTIVE_CERTIFIED,
    _unit_order,
    a_ell,
    certify_image,
    division_polynomial,
    exact_factor,
)

CURVE_1058D1 = CurveModel(1, -1, 0, -332311, -73733731)
CURVE_11A1 = CurveModel(0, -1, 1, -10, -20)
CURVE_43A1 = CurveModel(0, 1, 1, 0, 0)
CURVE_83A1 = CurveModel(1, 1, 1, 1, 0)
CURVE_423801CI1 = CurveModel(0, 0, 1, -17034726259173, -27061436852750306309)

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
            cert = certify_image(model, entry["p"])
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
            cert = certify_image(model, p)
            disc = compute_invariants(minimal_model(model)).disc
            for ell, a_mod, d_mod in cert.witnesses:
                assert ell != p and disc % ell != 0 and (p * disc) % ell != 0
                assert a_ell(model, ell) % p == a_mod
                assert ell % p == d_mod

    def test_monotonicity(self, image_corpus, monkeypatch):
        for entry in list(image_corpus.values())[:6]:
            model = CurveModel(*entry["ainvs"])
            first = certify_image(model, 5).status
            with monkeypatch.context() as patched:
                patched.setattr("shaclass.galrep.SCAN_BOUND", 2000)
                second = certify_image(model, 5).status
            if first == SURJECTIVE_CERTIFIED:
                assert second == SURJECTIVE_CERTIFIED

    def test_isogeny_curve_not_certified(self):
        cert = certify_image(CURVE_11A1, 5)
        assert cert.status == SMALL_IMAGE_CERTIFIED
        assert cert.first_unruled == "Borel"

    def test_cm_curve_small_image(self):
        cert = certify_image(CurveModel(0, 0, 1, 0, -7), 5)  # 27a1
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
                cert = certify_image(CurveModel(*ainvs), p)
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
        """Status and witnesses at p in {3, 5, 7, 11, 13} match the committed table."""
        golden = json.loads((DATA_DIR / "golden" / "image_witnesses.json").read_text())
        assert sorted(golden) == sorted(corpus_models)
        for label, ainvs in corpus_models.items():
            _, disc = _j_and_disc(ainvs)
            rows = {}
            for p in (3, 5, 7, 11, 13):
                if disc % p:
                    cert = certify_image(CurveModel(*ainvs), p)
                    rows[str(p)] = {
                        "image_status": cert.status,
                        "image_witnesses": [list(w) for w in cert.witnesses],
                    }
            assert rows == golden[label], label

    def test_a_2_matches_point_count_on_small_models(self, gen_golden):
        """a_ell at 2, cached per minimal model, is 3 - #E(F_2) on every small
        model good at 2 and refuses every one bad at 2."""
        galrep._trace_at_2.cache_clear()
        good = 0
        for m in gen_golden.small_models():
            if compute_invariants(m).disc % 2:
                assert a_ell(m, 2) == 3 - brute_force_point_count(m, 2), m
                good += 1
            else:
                with pytest.raises(BadReductionAtP):
                    a_ell(m, 2)
        assert galrep._trace_at_2.cache_info().currsize == good > 0

    def test_golden_small_model_images(self, gen_golden):
        """Image tuples of the small models at each good p in {3, 5, 7, 11, 13}
        hash to the digests of the committed table."""
        def flat(table):
            return {(model, p): digest for model, rows in table.items() for p, digest in rows.items()}

        golden = flat(json.loads((DATA_DIR / "golden" / "small_model_images.json").read_text()))
        assert (len({model for model, _ in golden}), len(golden)) == (575, 2409)
        current = flat(gen_golden.small_model_table())
        differ = sorted(k for k in golden.keys() | current.keys() if golden.get(k) != current.get(k))
        assert not differ, f"image tuples differ at (model, p): {differ}"

    def test_golden_isogeny_images(self):
        """The twisted X_0(p) curves at their p hash to the digests of the
        committed table, every one certified without importing sympy."""
        script = str(TESTS_DIR.parent / "tools" / "gen_golden.py")
        code = (
            "import importlib.util, json, sys\n"
            f"spec = importlib.util.spec_from_file_location('gen_golden', {script!r})\n"
            "gen_golden = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(gen_golden)\n"
            "print(json.dumps(gen_golden.isogeny_table()), 'sympy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(TESTS_DIR.parent / "src")},
        )
        table, imported = proc.stdout.rsplit(" ", 1)
        assert imported == "False\n"
        golden = json.loads((DATA_DIR / "golden" / "isogeny_images.json").read_text())
        assert Counter(p for rows in golden.values() for p in rows) == {"3": 10, "5": 44, "7": 52, "13": 48}
        assert json.loads(table) == golden

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

    def test_p3_scan_lists_the_three_cycle_prime(self):
        # 43a1's first 3-cycle prime is 13, past its first good primes 2, 5, 7 and 11
        cert = certify_image(CURVE_43A1, 3)
        assert cert.status == SURJECTIVE_CERTIFIED
        assert (13, 1, 1) in cert.witnesses

    def test_preconditions(self):
        with pytest.raises(BadReductionAtP):
            certify_image(CURVE_11A1, 11)

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
        cert = certify_image(CurveModel(0, 0, 1, -1, 0), 3)
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
    """(ell, a_ell mod p, ell mod p) at the first 10 good primes ell != p."""
    m = minimal_model(model)
    disc = compute_invariants(m).disc
    good = [ell for ell in primes_up_to(200) if ell != p and disc % ell][:10]
    return m, [(ell, a_ell(m, ell) % p, ell % p) for ell in good]


def _twist_of_11a1_keeping(kept):
    """The quadratic twist of 11a1 by D, the product of the odd primes below
    SCAN_BOUND other than 5, 11 and those kept: y^2 = x^3 + D b2 x^2 +
    8 D^2 b4 x + 16 D^3 b6 with 11a1's b-invariants.  Every prime of D is bad,
    so the image scan at 5 sees only 2 and the kept primes, and 5 stays good."""
    b2, b4, b6 = b_invariants(*CURVE_11A1)[:3]
    D = prod(q for q in primes_up_to(galrep.SCAN_BOUND) if q not in (2, 5, 11, *kept))
    return CurveModel(0, D * b2, 0, 8 * D**2 * b4, 16 * D**3 * b6)


def _good_primes_below_scan_bound(model, p):
    disc = compute_invariants(minimal_model(model)).disc
    return [ell for ell in primes_up_to(galrep.SCAN_BOUND) if ell != p and disc % ell]


def _no_fallback(model, p):
    raise AssertionError("the sympy fallback was reached")


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

    def test_no_frobenius_eigenvalue_lifts_nothing(self, monkeypatch):
        # 37a1 at 5: x^2 - a x + d has no root mod 5 at ell = 3, 7 and 13,
        # so no prime gives an eigenline and the search ends with nothing lifted
        monkeypatch.setattr(galrep, "lift_rational_factor", lambda *args: pytest.fail("lifted"))
        assert exact_factor(CurveModel(0, 0, 1, -1, 0), 5, [(3, 2, 3), (7, 4, 2), (13, 3, 3)]) is None

    @pytest.mark.parametrize("label, p", REDUCIBLE_JOBS)
    def test_reducible_corpus_jobs_scan_only_the_prefix(self, label, p, corpus_models, monkeypatch):
        """Borel stands through the FACTOR_WINDOW good primes of the window;
        then one lift on all of them certifies."""
        calls = []

        def counted(model, ell):
            calls.append(ell)
            return a_ell(model, ell)

        monkeypatch.setattr("shaclass.galrep.a_ell", counted)
        monkeypatch.setattr("shaclass.galrep._division_poly_reducible", _no_fallback)
        searches = _count_calls(monkeypatch, "exact_factor")
        cert = certify_image(CurveModel(*corpus_models[label]), p)
        assert cert.status == SMALL_IMAGE_CERTIFIED
        assert cert.first_unruled == "Borel"
        assert len(calls) <= FACTOR_WINDOW
        assert [len(frobenius) for _, frobenius in searches] == [FACTOR_WINDOW]

    def test_scan_shorter_than_the_prefix_tries_the_exact_factor(self, monkeypatch):
        """A curve with fewer than FACTOR_WINDOW good primes up to SCAN_BOUND
        lifts once, on all of them, after its scan."""
        model = _twist_of_11a1_keeping((3, 7, 13, 17, 19, 23))
        assert _good_primes_below_scan_bound(model, 5) == [2, 3, 7, 13, 17, 19, 23]
        monkeypatch.setattr("shaclass.galrep._division_poly_reducible", _no_fallback)
        searches = _count_calls(monkeypatch, "exact_factor")
        cert = certify_image(model, 5)
        assert [len(frobenius) for _, frobenius in searches] == [7]
        assert cert.status == SMALL_IMAGE_CERTIFIED
        assert cert.first_unruled == "Borel"
        assert cert.witnesses == ((2, 3, 2),)

    def test_scan_ending_past_the_prefix_lifts_on_the_prefix(self, monkeypatch):
        """A curve whose scan ends with Borel standing before FACTOR_WINDOW
        good primes lifts once, on all the primes scanned."""
        model = _twist_of_11a1_keeping([q for q in primes_up_to(53) if q not in (2, 5, 11)])
        assert len(_good_primes_below_scan_bound(model, 5)) == 13
        monkeypatch.setattr("shaclass.galrep._division_poly_reducible", _no_fallback)
        searches = _count_calls(monkeypatch, "exact_factor")
        cert = certify_image(model, 5)
        assert [len(frobenius) for _, frobenius in searches] == [13]
        assert cert.status == SMALL_IMAGE_CERTIFIED
        assert cert.first_unruled == "Borel"
        assert cert.witnesses == ((3, 4, 3),)

    def test_certificate_lists_the_prefix_witnesses_only(self, monkeypatch):
        """A factor found after FACTOR_WINDOW good primes ends the scan: the
        certificate lists the witnesses a full scan finds at those primes."""
        checked = 0
        for p, j_of in _X0_J.items():
            for t, d in ((-4, 1), (2, -1), (3, 2), (5, -1), (-2, 5)):
                model = minimal_model(_curve_with_j(j_of(Fraction(t)), d))
                if compute_invariants(model).disc % p == 0:
                    continue
                window = set(_good_primes_below_scan_bound(model, p)[:FACTOR_WINDOW])
                cert = certify_image(model, p)
                with monkeypatch.context() as patched:
                    patched.setattr("shaclass.galrep.exact_factor", lambda *args: None)
                    full = certify_image(model, p)
                assert cert.status == full.status == SMALL_IMAGE_CERTIFIED
                assert cert.witnesses == tuple(w for w in full.witnesses if w[0] in window)
                assert cert.ruled_out <= full.ruled_out
                checked += 1
        assert checked >= 8

    def test_no_lift_once_borel_is_ruled_out(self, monkeypatch):
        """(0, -1, 0, 9, -53), j = 4^3, at 3: a chi = -1 witness rules out
        Borel and the nonsplit Cartan normalizer stands to the end of the
        scan.  No factor can span a stable line, so exact_factor is never
        called."""
        monkeypatch.setattr("shaclass.galrep._division_poly_reducible", lambda *args: False)
        searches = _count_calls(monkeypatch, "exact_factor")
        cert = certify_image(CurveModel(0, -1, 0, 9, -53), 3)
        assert cert.status == INCONCLUSIVE
        assert cert.first_unruled == NONSPLIT_CARTAN_NORMALIZER
        assert searches == []


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
        assert len(frobenius) == 10
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
        good = [ell for ell in primes_up_to(galrep.SCAN_BOUND) if ell not in (2, 3, 13)]
        assert scanned == good


@st.composite
def curves_mod_ell(draw):
    """(model, ell): a small model and an odd prime ell <= 60 where it has good reduction."""
    ell = draw(st.sampled_from([ell for ell in primes_up_to(60) if ell > 2]))
    ainvs = [draw(st.integers(0, 1)), draw(st.integers(-2, 2)), draw(st.integers(0, 1)),
             draw(st.integers(-30, 30)), draw(st.integers(-30, 30))]
    assume(discriminant_from_b(*b_invariants(*ainvs)) % ell)
    return CurveModel(*ainvs), ell


def _count_calls(monkeypatch, name):
    """Wrap galrep's name; the returned list gets each call's arguments after the first."""
    calls, real = [], getattr(galrep, name)

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(galrep, name, counted)
    return calls


def _eval_mod(coeffs, x, ell):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % ell
    return acc


class TestDivisionPolynomials:
    @settings(max_examples=80, deadline=None)
    @given(curves_mod_ell())
    def test_group_law_over_f_ell(self, case):
        """At every affine point P over F_ell: f_m(x(P)) = 0 exactly when
        mP = O (and 2P != O at even m, where f_m = psi_m / psi_2), and
        x(cP) = N_c(x(P)) / D_c(x(P)) wherever D_c(x(P)) != 0."""
        model, ell = case
        f = galrep._division_polynomial(model, *range(2, 15))
        b2, b4, b6 = compute_invariants(model)[:3]
        x_maps = {c: galrep._x_multiple(f, [b6, 2 * b4, b2, 4], c) for c in range(1, 7)}
        for P in affine_points_mod(model, ell):
            multiples = [None, P]  # multiples[k] = kP
            while len(multiples) <= 14:
                multiples.append(add_points_mod(model, multiples[-1], P, ell))
            x = P[0]
            for m in range(2, 15):
                if m % ell:
                    killed = multiples[m] is None and (m % 2 or multiples[2] is not None)
                    assert (_eval_mod(f[m], x, ell) == 0) == killed, (m, P)
            for c, (N, D) in x_maps.items():
                den = _eval_mod(D, x, ell)
                if den:
                    assert multiples[c][0] == _eval_mod(N, x, ell) * pow(den, -1, ell) % ell, (c, P)

    @pytest.mark.parametrize(
        "model, p, lifts, witnesses",
        [(CURVE_11A1, 5, 1, ((2, 3, 2),)), (CURVE_423801CI1, 13, 0, ((2, 2, 2), (5, 4, 5), (67, 9, 2)))],
        ids=["11a1", "423801ci1"],
    )
    def test_one_build_per_exact_factor_call(self, model, p, lifts, witnesses, monkeypatch):
        """11a1 at 5 lifts once.  At 423801ci1 at 13, Borel stands through 14
        good primes, but the chi = -1 witness at 67 comes before any lift, so
        psi_13 is never built."""
        builds = _count_calls(monkeypatch, "_division_polynomial")
        searches = _count_calls(monkeypatch, "exact_factor")
        assert certify_image(model, p).witnesses == witnesses
        assert [args[0] for args in searches] == [p] * lifts
        assert len(builds) == lifts

    def test_one_psi3_build_per_p3_scan(self, monkeypatch):
        """83a1 at 3 has Borel ruled out at ell = 2, and the nonsplit Cartan
        normalizer stands up to ell = 31: 10 primes.  Only 19 and 31 have
        ell = 1 and a_ell != 0 mod 3, where Frob_ell can be a 3-cycle, so
        only they count roots of psi_3."""
        builds = _count_calls(monkeypatch, "_division_polynomial")
        lookups = _count_calls(monkeypatch, "count_roots_mod")
        assert certify_image(CURVE_83A1, 3).status == SURJECTIVE_CERTIFIED
        assert builds == [(3,)]
        assert lookups == [(19,), (31,)]

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_degree(self, p):
        psi = division_polynomial(CURVE_1058D1, p)
        assert all(type(c) is int for c in psi)
        assert len(psi) - 1 == (p * p - 1) // 2

    def test_psi3_closed_form(self):
        b2, b4, b6, b8 = b_invariants(*CURVE_11A1.ainvs())
        expected = [b8, 3 * b6, 3 * b4, b2, 3]
        assert division_polynomial(CURVE_11A1, 3) == expected

    def test_11a1_psi5_has_quadratic_factor(self):
        # the rational 5-isogeny forces a degree <= 2 factor over Q
        factors = _sympy_psi(CURVE_11A1, 5).factor_list()[1]
        degrees = sorted(f.degree() for f, _ in factors)
        assert 2 in degrees
        assert len(factors) > 1

    def test_full_image_psi5_irreducible(self):
        factors = _sympy_psi(CURVE_1058D1, 5).factor_list()[1]
        assert len(factors) == 1 and factors[0][0].degree() == 12

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
