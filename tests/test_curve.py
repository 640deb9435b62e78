import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from shaclass import curve
from shaclass.arith import factor
from shaclass.curve import (
    CurveModel,
    ORDINARY,
    SUPERSINGULAR,
    b_invariants,
    brute_force_point_count,
    c_invariants,
    classify_good_prime,
    compute_invariants,
    detect_cm,
    discriminant_from_b,
    minimal_model,
    parse_curve_spec,
    trace_of_frobenius,
    transform_model,
    transform_quintuple,
    translate,
)
from shaclass.errors import BadReductionAtP, InvalidInput, SingularModel

CURVE_1058D1 = CurveModel(1, -1, 0, -332311, -73733731)
CURVE_1058C1 = CurveModel(1, 0, 1, 0, 2)
CURVE_423801 = CurveModel(0, 0, 1, -17034726259173, -27061436852750306309)
CURVE_11A1 = CurveModel(0, -1, 1, -10, -20)


def random_model(rng):
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(5)]
        try:
            return CurveModel(*coeffs)
        except SingularModel:
            continue


def j_of_quintuple(ai):
    b2, b4, b6, b8 = b_invariants(*ai)
    c4, _ = c_invariants(b2, b4, b6)
    disc = discriminant_from_b(b2, b4, b6, b8)
    assert disc != 0
    return Fraction(c4**3) / Fraction(disc)


class TestInvariants:
    def test_identities_on_random_models(self):
        rng = random.Random(20240517)
        for _ in range(1000):
            inv = compute_invariants(random_model(rng))
            assert inv.c4**3 - inv.c6**2 == 1728 * inv.disc
            assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4**2
            assert inv.j == Fraction(inv.c4**3, inv.disc)

    def test_singular_rejected(self):
        with pytest.raises(SingularModel):
            CurveModel(0, 0, 0, 0, 0)

    def test_broken_c_identity_raises(self, monkeypatch):
        def c4_off_by_one(b2, b4, b6):
            c4, c6 = c_invariants(b2, b4, b6)
            return c4 + 1, c6

        monkeypatch.setattr(curve, "c_invariants", c4_off_by_one)
        with pytest.raises(ArithmeticError, match="1728 disc"):
            compute_invariants.__wrapped__(CURVE_11A1)

    def test_broken_b8_identity_raises(self, monkeypatch):
        # b8 off by one, with the discriminant still that of the true b8, so
        # that only 4 b8 = b2 b6 - b4^2 breaks
        def b8_off_by_one(*ainvs):
            b2, b4, b6, b8 = b_invariants(*ainvs)
            return b2, b4, b6, b8 + 1

        def disc_of_true_b8(b2, b4, b6, b8):
            return discriminant_from_b(b2, b4, b6, b8 - 1)

        monkeypatch.setattr(curve, "b_invariants", b8_off_by_one)
        monkeypatch.setattr(curve, "discriminant_from_b", disc_of_true_b8)
        with pytest.raises(ArithmeticError, match="4 b8"):
            compute_invariants.__wrapped__(CURVE_11A1)

    def test_1058d1_disc_support(self):
        inv = compute_invariants(CURVE_1058D1)
        assert set(factor(abs(inv.disc))) == {2, 23}

    def test_noninteger_rejected(self):
        with pytest.raises(InvalidInput):
            CurveModel(0, 0, 0, 1.5, 1)


class TestTransforms:
    def test_j_invariant_under_rational_changes(self):
        rng = random.Random(5)
        for _ in range(50):
            m = random_model(rng)
            u = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            r = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            moved = transform_quintuple(m.ainvs(), u, r, s, t)
            assert j_of_quintuple(moved) == compute_invariants(m).j

    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=5, max_size=5),
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(-50, 50),
    )
    def test_translate_on_ints_is_transform_at_u_1(self, ai, r, s, t):
        moved = translate(tuple(ai), r, s, t)
        assert all(type(a) is int for a in moved)
        assert moved == transform_quintuple(ai, 1, r, s, t)

    @given(
        st.lists(st.integers(-50, 50), min_size=5, max_size=5),
        st.integers(-4, 4).filter(bool),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
    )
    def test_integral_change_and_its_inverse(self, ai, u, r, s, t):
        try:
            m = CurveModel(*ai)
        except SingularModel:
            assume(False)
        inverse = (Fraction(1, u), Fraction(-r, u * u), Fraction(-s, u), Fraction(r * s - t, u**3))
        # the rational inverse of an integral change lands on an integral
        # model, and the change takes that model back to m
        big = transform_model(m, *inverse)
        assert big.discriminant() == m.discriminant() * u**12
        assert transform_model(big, u, r, s, t) == m
        if all(f.denominator == 1 for f in transform_quintuple(ai, u, r, s, t)):
            assert transform_model(transform_model(m, u, r, s, t), *inverse) == m
        else:
            with pytest.raises(InvalidInput, match="integral"):
                transform_model(m, u, r, s, t)

    def test_scaling_changes_disc_by_u12(self):
        big = transform_model(CURVE_1058D1, Fraction(1, 2), 0, 0, 0)
        assert big.discriminant() == CURVE_1058D1.discriminant() * 2**12


def _with_fake_invariants(monkeypatch, **changes):
    """A fresh 11a1 model whose invariants, and no other model's, read with
    the given fields changed; minimal_model.__wrapped__ bypasses its cache."""
    model = CurveModel(*CURVE_11A1.ainvs())
    fake = compute_invariants(model)._replace(**changes)
    monkeypatch.setattr(
        curve, "compute_invariants", lambda m: fake if m is model else compute_invariants(m)
    )
    return model


class TestRecords:
    def test_fields_are_read_only(self):
        model = CurveModel(*CURVE_11A1.ainvs())
        inv = compute_invariants(model)
        for record, name in ((model, "a4"), (inv, "disc"), (inv, "j")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_equal_models_hash_equal(self):
        twin = CurveModel(*CURVE_11A1.ainvs())
        assert twin == CURVE_11A1 and twin is not CURVE_11A1
        assert hash(twin) == hash(CURVE_11A1)
        assert len({twin, CURVE_11A1, CURVE_1058C1}) == 2

    def test_j_is_built_on_demand(self):
        for model in (CURVE_11A1, CURVE_1058D1, CURVE_423801):
            inv = compute_invariants(model)
            assert inv.j == Fraction(inv.c4**3, inv.disc)
            assert inv.cm_discriminant() is None
        inv = compute_invariants(CurveModel(1, -1, 0, -2, -1))  # 49a1, j = -3375
        assert inv.j == -3375 and inv.cm_discriminant() == detect_cm(inv.j) == -7

    def test_replace_validates(self):
        assert CURVE_11A1._replace(a4=-11) == CurveModel(0, -1, 1, -11, -20)
        with pytest.raises(SingularModel):
            CurveModel(0, 0, 0, 1, 0)._replace(a4=0)  # y^2 = x^3
        with pytest.raises(InvalidInput):
            CURVE_11A1._replace(a6=0.5)


class TestMinimalModel:
    def test_idempotent_and_preserves_j(self):
        rng = random.Random(99)
        for _ in range(50):
            m = random_model(rng)
            mm = minimal_model(m)
            assert minimal_model(mm) == mm
            assert compute_invariants(mm).j == compute_invariants(m).j

    def test_scaled_model_recovers_minimal(self):
        for m in (CURVE_1058D1, CURVE_1058C1, CurveModel(0, -1, 1, -10, -20)):
            mm = minimal_model(m)
            big = transform_model(mm, Fraction(1, 2), 0, 0, 0)
            assert big.discriminant() == mm.discriminant() * 2**12
            assert minimal_model(big) == mm

    def test_1058c1_already_minimal(self):
        assert minimal_model(CURVE_1058C1) == CURVE_1058C1

    def test_mixed_scale_with_translation(self):
        mm = minimal_model(CurveModel(0, 0, 1, -1, 0))  # 37a1
        big = transform_model(mm, Fraction(1, 3), 2, 1, 5)
        assert minimal_model(big) == mm

    def test_failed_kraus_check_raises(self, monkeypatch):
        monkeypatch.setattr(curve, "_kraus_ok_at_3", lambda c6: False)
        with pytest.raises(ArithmeticError, match="Kraus"):
            minimal_model.__wrapped__(CURVE_11A1)

    # (c4, c6) with no scaling to strip, each ending at one exact division:
    # b4 = (b2^2 - c4)/24, b6 = (-b2^3 + 36 b2 b4 - c6)/216, a2 = (b2 - a1)/4,
    # a6 = (b6 - a3)/4 and a4 = (b4 - a1 a3)/2, where b2 = -c6 mod 12 in [-5, 6]
    @pytest.mark.parametrize(
        "c4, c6, message",
        [
            (1, 0, "expected 24 \\| -1$"),
            (0, 12, "expected 216 \\| -12$"),
            (9, -27, "expected 4 \\| 2$"),
            (0, -1296, "expected 4 \\| 6$"),
            (-24, 0, "expected 2 \\| 1$"),
        ],
    )
    def test_inexact_division_raises(self, monkeypatch, c4, c6, message):
        model = _with_fake_invariants(monkeypatch, c4=c4, c6=c6, disc=1)
        monkeypatch.setattr(curve, "_kraus_ok_at_2", lambda c4, c6: True)
        monkeypatch.setattr(curve, "_kraus_ok_at_3", lambda c6: True)
        with pytest.raises(ArithmeticError, match=message):
            minimal_model.__wrapped__(model)

    def test_changed_j_raises(self, monkeypatch):
        # a disc that is not the model's moves j = c4^3 / disc, and nothing
        # else minimal_model reads: 11a1 has no scaling to strip either way
        model = _with_fake_invariants(monkeypatch, disc=2 * compute_invariants(CURVE_11A1).disc)
        with pytest.raises(ArithmeticError, match="changes j"):
            minimal_model.__wrapped__(model)


class TestPointCounting:
    # the ten-curve oracle set: trace matches the full F_p x F_p double loop
    ORACLE_CURVES = [
        CurveModel(0, -1, 1, -10, -20),  # 11a1
        CurveModel(0, 0, 1, -1, 0),  # 37a1
        CurveModel(0, 1, 1, -2, 0),  # 389a1
        CurveModel(1, -1, 0, -2, -1),  # 49a1
        CurveModel(0, 0, 1, 0, -7),  # 27a1
        CurveModel(0, 0, 0, 0, 1),  # 36a1
        CurveModel(1, 0, 0, 0, 11),
        CURVE_1058D1,
        CURVE_1058C1,
        CURVE_423801,
    ]

    def test_trace_matches_brute_force_up_to_97(self):
        from shaclass.arith import primes_up_to

        assert len(self.ORACLE_CURVES) == 10
        for m in self.ORACLE_CURVES:
            mm = minimal_model(m)
            disc = compute_invariants(mm).disc
            for p in primes_up_to(97):
                if p == 2 or disc % p == 0:
                    continue
                a_p = trace_of_frobenius(m, p)
                assert a_p == p + 1 - brute_force_point_count(mm, p)
                assert a_p * a_p <= 4 * p  # Hasse

    def test_featured_traces(self):
        # note: the featured source lists a_5 = -2 for 1058d1, but the stated
        # equation has 4 points over F_5, giving +2; see the decisions ledger
        assert trace_of_frobenius(CURVE_1058D1, 5) == 2
        assert trace_of_frobenius(CURVE_423801, 5) == 4
        assert trace_of_frobenius(CurveModel(0, 0, 0, 0, 1), 5) == 0

    def test_congruent_pair_1058(self):
        from shaclass.arith import primes_up_to

        # the two featured conductor-1058 curves have isomorphic mod-5
        # representations, so their traces agree mod 5 at good primes
        for p in primes_up_to(100):
            if p in (2, 5, 23):
                continue
            diff = trace_of_frobenius(CURVE_1058D1, p) - trace_of_frobenius(
                CURVE_1058C1, p
            )
            assert diff % 5 == 0

    def test_count_beyond_hasse_bound_raises(self, monkeypatch):
        # every value a square: a_p = -(p - #roots of g), far past 2 sqrt(p)
        monkeypatch.setattr(curve, "bytearray", lambda n: bytearray(b"\x01" * n), raising=False)
        with pytest.raises(ArithmeticError, match="Hasse bound"):
            trace_of_frobenius(CURVE_11A1, 97)

    def test_bad_reduction_raises(self):
        with pytest.raises(BadReductionAtP):
            trace_of_frobenius(CURVE_1058D1, 23)
        with pytest.raises(InvalidInput):
            trace_of_frobenius(CURVE_1058D1, 9)


class TestClassification:
    def test_ordinary_1058d1(self):
        prof = classify_good_prime(CURVE_1058D1, 5)
        assert prof.reduction_kind == ORDINARY
        assert prof.alpha_p_mod_p == prof.a_p % 5 == 2
        assert prof.cm_discriminant is None

    def test_supersingular(self):
        prof = classify_good_prime(CurveModel(0, 0, 0, 0, 1), 5)
        assert prof.reduction_kind == SUPERSINGULAR
        assert prof.alpha_p_mod_p is None

    def test_ordinary_alpha_nonzero(self):
        for p in (7, 13, 97):
            prof = classify_good_prime(CURVE_1058C1, p)
            if prof.reduction_kind == ORDINARY:
                assert prof.alpha_p_mod_p != 0


class TestCM:
    def test_classical_values(self):
        assert detect_cm(0) == -3
        assert detect_cm(1728) == -4
        assert detect_cm(Fraction(-3375)) == -7
        assert detect_cm(Fraction(-262537412640768000)) == -163

    def test_49a1_has_cm(self):
        assert detect_cm(compute_invariants(CurveModel(1, -1, 0, -2, -1)).j) == -7

    def test_non_cm(self):
        assert detect_cm(compute_invariants(CURVE_1058D1).j) is None
        assert detect_cm(Fraction(1, 2)) is None

    def test_cm_table_size(self):
        from shaclass.curve import CM_J_INVARIANTS

        assert len(CM_J_INVARIANTS) == 13


class TestParsing:
    def test_long_form(self):
        assert parse_curve_spec("1,-1,0,-332311,-73733731") == CURVE_1058D1

    def test_short_form(self):
        assert parse_curve_spec("[0, 1]") == CurveModel(0, 0, 0, 0, 1)
        assert parse_curve_spec("[-7, 6]") == CurveModel(0, 0, 0, -7, 6)

    def test_bad_input(self):
        for bad in ("1,2,3", "[1,2,3]", "a,b,c,d,e", "[x,1]"):
            with pytest.raises(InvalidInput):
                parse_curve_spec(bad)
