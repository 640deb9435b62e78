import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import shaclass.cli  # noqa: F401  every module, for the cache census below
from shaclass.arith import PRIME_TABLE_CACHE_SIZE, legendre, primes_up_to, valuation
from shaclass import curve, galrep
from shaclass.curve import (
    CURVE_CACHE_SIZE,
    TABLE_CACHE_BOUND,
    TABLE_CACHE_SIZE,
    TRACE_CACHE_SIZE,
    CurveModel,
    b_invariants,
    compute_invariants,
    discriminant_from_b,
    minimal_model,
    trace_of_frobenius,
)
from shaclass.errors import InvalidInput, SingularModel
from shaclass.galrep import PRIME_CACHE_SIZE, a_ell
from shaclass.localred import (
    ADDITIVE_POT_GOOD,
    ADDITIVE_POT_MULTIPLICATIVE,
    GOOD,
    _cubic_structure,
    _singular_point,
    bad_primes,
    compute_t_set,
    local_data,
    tamagawa_unit_check,
    tate_algorithm,
)

from conftest import DATA_DIR
from oracles import rational_three_torsion_unramified_at_2, tame_local_data

CURVE_1058D1 = CurveModel(1, -1, 0, -332311, -73733731)
CURVE_423801 = CurveModel(0, 0, 1, -17034726259173, -27061436852750306309)

# conductors of the labeled corpus curves, to pin Ogg's formula end to end
KNOWN_CONDUCTORS = {
    "11a1": 11,
    "11a3": 11,
    "14a1": 14,
    "15a1": 15,
    "27a1": 27,
    "27a3": 27,
    "36a1": 36,
    "37a1": 37,
    "43a1": 43,
    "49a1": 49,
    "53a1": 53,
    "61a1": 61,
    "79a1": 79,
    "83a1": 83,
    "89a1": 89,
    "101a1": 101,
    "389a1": 389,
    "5077a1": 5077,
    "1058c1": 1058,
    "1058d1": 1058,
    "423801ci1": 423801,
}


def test_corpus_kodaira_and_tamagawa(tate_corpus):
    assert len(tate_corpus) >= 20
    for label, entry in tate_corpus.items():
        model = CurveModel(*entry["ainvs"])
        for q_str, expected in entry["local"].items():
            data = tate_algorithm(model, int(q_str))
            assert data.kodaira == expected["kodaira"], (label, q_str, data)
            assert data.c_v == expected["c"], (label, q_str, data)


def test_corpus_type_coverage(tate_corpus):
    import re

    seen = set()
    for entry in tate_corpus.values():
        for expected in entry["local"].values():
            kod = expected["kodaira"]
            m = re.match(r"^I(\d+)(\*)?$", kod)
            if m and m.group(2) and m.group(1) != "0":
                seen.add("In*")
            elif m and m.group(2):
                seen.add("I0*")
            elif m and m.group(1) != "0":
                seen.add("In")
            else:
                seen.add(kod)
    assert {"In", "In*", "II", "III", "IV", "I0*", "IV*", "III*", "II*"} <= seen


def test_conductors_via_ogg(tate_corpus):
    for label, conductor in KNOWN_CONDUCTORS.items():
        model = CurveModel(*tate_corpus[label]["ainvs"])
        n = 1
        for q in bad_primes(model):
            n *= q ** tate_algorithm(model, q).conductor_exponent
        assert n == conductor, (label, n)


def test_tame_table_oracle_agreement(tate_corpus):
    """Independent (v(c4), v(c6), v(disc))-table classification at p >= 5."""
    for entry in tate_corpus.values():
        model = CurveModel(*entry["ainvs"])
        for q in bad_primes(model):
            if q < 5:
                continue
            kod, c = tame_local_data(model, q)
            data = tate_algorithm(model, q)
            assert data.kodaira == kod
            if c is not None:
                assert data.c_v == c
            else:
                assert data.c_v in (2, 4)


def is_singular_point(ai, x, y, p):
    """The curve and both of its partial derivatives vanish at (x, y) mod p."""
    a1, a2, a3, a4, a6 = ai
    return (
        (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
        and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p == 0
        and (2 * y + a1 * x + a3) % p == 0
    )


def test_singular_point_is_singular(tate_corpus):
    """At each bad prime, 2 and 3 included, the point is singular."""
    checked = 0
    for entry in tate_corpus.values():
        model = CurveModel(*entry["ainvs"])
        ai = minimal_model(model).ainvs()
        for p in bad_primes(model):
            x, y = _singular_point(tuple(a % p for a in ai), p)
            assert is_singular_point(ai, x, y, p), (entry["ainvs"], p)
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("p", [2, 3])
def test_singular_point_on_every_singular_reduction(p):
    """Every Weierstrass 5-tuple over F_p with discriminant 0 gets its
    singular point.  Of the p^5 tuples, p^5 - p^4 are nonsingular, so p^4
    are checked."""
    singular = 0
    for ai in product(range(p), repeat=5):
        if discriminant_from_b(*b_invariants(*ai)) % p == 0:
            x, y = _singular_point(ai, p)
            assert is_singular_point(ai, x, y, p), ai
            singular += 1
    assert singular == p**4


def root_multiplicity(coeffs, t, p):
    """How often T - t divides the polynomial mod p (coefficients high to low)."""
    m = 0
    while len(coeffs) > 1:
        quotient = [coeffs[0]]
        for c in coeffs[1:]:
            quotient.append((c + t * quotient[-1]) % p)
        if quotient.pop() != 0:  # the remainder
            break
        coeffs, m = quotient, m + 1
    return m


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cubic_structure_matches_root_multiplicities(p):
    """T^3 + A T^2 + B T + C for every (A, B, C) mod p, against synthetic
    division by T - t for every t in F_p.  A multiple root of a cubic lies
    in F_p, so the enumeration sees it."""
    for A, B, C in product(range(p), repeat=3):
        mult = {t: root_multiplicity([1, A, B, C], t, p) for t in range(p)}
        multiple = [t for t, m in mult.items() if m > 1]
        if multiple:
            (t,) = multiple
            expected = ("triple" if mult[t] == 3 else "double", t)
        else:
            expected = ("distinct", sum(1 for m in mult.values() if m))
        assert _cubic_structure(A, B, C, p) == expected, (A, B, C)
        assert _cubic_structure(A - p, B + 2 * p, C + p**3, p) == expected, (A, B, C)


@pytest.mark.parametrize(
    "model, v",
    [(CURVE_1058D1, 2), (CURVE_1058D1, 23), (CURVE_423801, 3), (CURVE_423801, 31)],
)
def test_wrong_singular_point_raises(monkeypatch, model, v):
    """A point that is not the singular point of the reduction leaves some of
    a3, a4, a6 prime to v after the translation.  The raised check catches
    it, and it still runs under python -O."""
    real = _singular_point

    def shifted(ai, p):
        x, y = real(ai, p)
        return (x + 1) % p, y

    monkeypatch.setattr("shaclass.localred._singular_point", shifted)
    with pytest.raises(ArithmeticError):
        tate_algorithm(model, v)


def test_potentially_multiplicative_exactly_where_j_is_not_integral(tate_corpus, gen_golden):
    """At each bad q of the tate corpus and of the small models and their
    quadratic twists, the reduction is multiplicative or additive potentially
    multiplicative exactly where q divides the denominator of j, read from
    the Fraction c4^3 / disc; some such additive rows are at 2, at 3 and at
    a q >= 5."""
    models = [CurveModel(*entry["ainvs"]) for entry in tate_corpus.values()]
    for model in gen_golden.small_models():
        models += [model, *gen_golden.twists(model)]
    additive = Counter()
    for model in models:
        denominator = compute_invariants(model).j.denominator
        for q, data in local_data(model).items():
            pot_mult = data.reduction_class == ADDITIVE_POT_MULTIPLICATIVE
            assert (data.is_multiplicative() or pot_mult) == (denominator % q == 0), (model, q)
            additive[min(q, 5)] += pot_mult
    assert all(additive[q] for q in (2, 3, 5)), additive


def test_split_test_matches_c6_criterion(tate_corpus):
    """The -c6 square test agrees with the tangent splitting at odd primes."""
    for entry in tate_corpus.values():
        model = CurveModel(*entry["ainvs"])
        inv = compute_invariants(minimal_model(model))
        for q in bad_primes(model):
            if q == 2:
                continue
            data = tate_algorithm(model, q)
            if data.is_multiplicative():
                split = data.reduction_class == "split multiplicative"
                assert (legendre(-inv.c6, q) == 1) == split


def test_good_prime_is_i0():
    data = tate_algorithm(CURVE_1058D1, 5)
    assert data.kodaira == "I0"
    assert data.reduction_class == GOOD
    assert data.c_v == 1 and data.val_delta_min == 0


def test_1058d1_featured_values():
    assert bad_primes(CURVE_1058D1) == (2, 23)
    assert tate_algorithm(CURVE_1058D1, 2).c_v == 1
    assert tate_algorithm(CURVE_1058D1, 23).c_v == 1


def test_423801_featured_values():
    assert bad_primes(CURVE_423801) == (3, 7, 31)
    for q in (3, 7, 31):
        data = tate_algorithm(CURVE_423801, q)
        assert data.reduction_class in (ADDITIVE_POT_GOOD, ADDITIVE_POT_MULTIPLICATIVE)
        assert data.c_v % 5 != 0
        assert data.conductor_exponent == 2


def test_conductor_11_curve():
    model = CurveModel(0, -1, 1, 0, 0)  # y^2 + y = x^3 - x^2, conductor 11
    assert bad_primes(model) == (11,)


def test_tamagawa_unit_check():
    assert tamagawa_unit_check(CURVE_1058D1, 5) == {2: True, 23: True}
    assert tamagawa_unit_check(CURVE_423801, 5) == {3: True, 7: True, 31: True}
    # 11a1 has c_11 = 5
    assert tamagawa_unit_check(CurveModel(0, -1, 1, -10, -20), 5) == {11: False}


def test_invalid_prime():
    with pytest.raises(InvalidInput):
        tate_algorithm(CURVE_1058D1, 6)


# corpus curves whose type at 2 (II, III, I0*, I1* or I3*) has a component
# group without 3-torsion, so 2 is not in T at p = 3
P3_NOT_IN_T_AT_2 = {
    "32a1": (0, 0, 0, 4, 0),
    "56a1": (0, 0, 0, 1, 2),
    "88a1": (0, 0, 0, -4, 4),
    "syn_i0star_13": (0, 0, 0, 169, 0),
    "syn_i0star_7": (0, 0, 0, 49, 0),
    "syn_i1star_13": (0, 0, 0, 169, 6591),
    "syn_i1star_7": (0, 0, 0, 49, 686),
    "syn_i2star_7": (0, 0, 0, 49, 10290),
    "syn_iii_7": (0, 0, 0, 7, 0),
    "syn_iiistar_7": (0, 0, 0, 343, 0),
}


class TestTSet:
    def test_featured_empty(self):
        assert compute_t_set(CURVE_423801, 5) == frozenset()

    def test_1058d1_multiplicative_member(self):
        # v = 2 is multiplicative with v(disc) = 7, and 5 does not divide 7
        assert compute_t_set(CURVE_1058D1, 5) == frozenset({2})

    def test_p_divides_ordv_excluded(self):
        # y^2 + xy = x^3 + 32: split I5 at v = 2, so ord_v(q) = 5 and the
        # rank-two case applies at p = 5; members come from the I1/I2 primes
        model = CurveModel(1, 0, 0, 0, 32)
        t = compute_t_set(model, 5)
        assert 2 not in t
        assert t == frozenset({7, 79})

    def test_small_multiplicative_included(self):
        # split I1 at v = 11 with p = 5: included
        model = CurveModel(1, 0, 0, 0, 11)
        assert compute_t_set(model, 5) == frozenset({7, 11, 97})

    def test_never_contains_p_or_good_primes(self, tate_corpus):
        for entry in tate_corpus.values():
            model = CurveModel(*entry["ainvs"])
            bad = set(bad_primes(model))
            for p in (3, 5):
                t = compute_t_set(model, p)
                assert p not in t
                assert t <= bad

    def test_p3_additive_kodaira_rule(self):
        # IV at 7 enters T for p = 3 (tame inertia of order 3); I0* does not
        assert 7 in compute_t_set(CurveModel(0, 0, 0, 0, 49), 3)
        assert 7 not in compute_t_set(CurveModel(0, 0, 0, 49, 0), 3)
        # II at 7 (order 6) stays out as well
        assert 7 not in compute_t_set(CurveModel(0, 0, 0, 0, 7), 3)

    def test_p3_additive_at_2_is_decided_by_kodaira_type(self):
        # 36a1 is IV at 2, whose component group has order 3: 2 is in T
        model = CurveModel(0, 0, 0, 0, 1)
        assert tate_algorithm(model, 2).kodaira == "IV"
        assert 2 in compute_t_set(model, 3)
        for label, ainvs in P3_NOT_IN_T_AT_2.items():
            model = CurveModel(*ainvs)
            assert tate_algorithm(model, 2).kodaira in ("II", "III", "I0*", "I1*", "I3*"), label
            assert 2 not in compute_t_set(model, 3), label

    def test_p3_additive_at_2_certified_by_psi3_root(self):
        # 20a1 has good reduction at 3 and is additive, potentially good, at 2.
        # Independent oracle: P = (0, 2) lies on the curve, and the tangent
        # there gives x(2P) = 0 = x(P), so 2P = -P and P has order 3.  A
        # rational point lies in E(Q_2^ur)[3], so 2 belongs to T for p = 3.
        model = CurveModel(0, 1, 0, 4, 4)
        a1, a2, a3, a4, a6 = model.ainvs()
        x0, y0 = 0, 2
        assert y0 * y0 + a1 * x0 * y0 + a3 * y0 == x0**3 + a2 * x0 * x0 + a4 * x0 + a6
        slope = Fraction(3 * x0 * x0 + 2 * a2 * x0 + a4 - a1 * y0, 2 * y0 + a1 * x0 + a3)
        assert slope * slope + a1 * slope - a2 - 2 * x0 == x0
        assert compute_invariants(model).disc % 3 != 0
        assert tate_algorithm(model, 2).reduction_class == ADDITIVE_POT_GOOD
        assert rational_three_torsion_unramified_at_2(model)
        assert 2 in compute_t_set(model, 3)

    def test_p3_unramified_3_torsion_at_2_oracle_sweep(self):
        """Every small model with additive potentially good reduction at 2
        on which the rational-root oracle finds a point of E(Q_2^ur)[3] is
        of type IV or IV* there, and has 2 in T at p = 3."""
        models = fired = 0
        for a1, a2, a3, a4, a6 in product((0, 1), range(-2, 3), (0, 1), range(-6, 7), range(-8, 9)):
            try:
                model = CurveModel(a1, a2, a3, a4, a6)
            except SingularModel:
                continue
            data = tate_algorithm(model, 2)
            if data.reduction_class != ADDITIVE_POT_GOOD:
                continue
            models += 1
            if rational_three_torsion_unramified_at_2(model):
                fired += 1
                assert data.kodaira in ("IV", "IV*"), model
                assert 2 in compute_t_set(model, 3), model
        assert (models, fired) == (1089, 23)

    def test_p3_twist_unramified_at_2_keeps_type_and_t(self):
        """A quadratic twist by d = 1 mod 4 is unramified at 2, so E and its
        twist agree on the Kodaira type at 2 and on whether 2 is in T."""
        rng = random.Random(12)
        curves = []
        while len(curves) < 400:
            try:
                model = CurveModel(*(rng.randint(-9, 9) for _ in range(5)))
            except SingularModel:
                continue
            if compute_invariants(minimal_model(model)).disc % 2 == 0:
                curves.append(model)
        for model in curves:
            inv = compute_invariants(model)
            kodaira = tate_algorithm(model, 2).kodaira
            in_t = 2 in compute_t_set(model, 3)
            for d in (5, -3, -7, 13):
                twist = CurveModel(0, 0, 0, -27 * d * d * inv.c4, -54 * d**3 * inv.c6)
                assert tate_algorithm(twist, 2).kodaira == kodaira, (model, d)
                assert (2 in compute_t_set(twist, 3)) == in_t, (model, d)

    def test_p5_additive_never_in_t(self, tate_corpus):
        for entry in tate_corpus.values():
            model = CurveModel(*entry["ainvs"])
            for q in compute_t_set(model, 5):
                assert tate_algorithm(model, q).is_multiplicative()


def test_golden_small_model_local_data(gen_golden):
    """The local-data rows of the 575 small models and of their quadratic
    twists by d in {-1, +-2, +-3, +-5, +-7} hash to the committed digests."""
    golden = json.loads((DATA_DIR / "golden" / "small_model_local_data.json").read_text())
    assert len(golden) == 575
    current = gen_golden.small_model_local_table()
    differ = sorted(k for k in golden.keys() | current.keys() if golden.get(k) != current.get(k))
    assert not differ, f"local data differs at the small models {differ}"


def test_local_data_all_primes():
    data = local_data(CURVE_1058D1)
    assert set(data) == {2, 23}
    assert tate_algorithm(CURVE_1058D1, 23) == data[23]


def test_local_data_is_one_read_only_mapping():
    """Every reader of a curve's local data gets the same cached mapping,
    keyed by the bad primes in increasing order, and none can change it."""
    data = local_data(CURVE_423801)
    assert local_data(CURVE_423801) is data
    assert list(data) == [3, 7, 31]
    with pytest.raises(TypeError):
        data[5] = tate_algorithm(CURVE_423801, 5)


def test_caches_stay_within_their_bounds():
    """Every functools cache of the program has a bound, and more distinct
    models (or primes, or prime-table limits) than it leave each cache at
    that bound; character tables are kept only up to the scan bound."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("shaclass.")]
    caches = {id(f): f for m in modules for f in vars(m).values() if hasattr(f, "cache_parameters")}
    assert len(caches) >= 5
    assert all(f.cache_parameters()["maxsize"] is not None for f in caches.values())

    models = [CurveModel(0, 0, 1, a4, 0) for a4 in range(1, CURVE_CACHE_SIZE + 51)]  # disc -64 a4^3 - 27, never 0
    for model in models:
        local_data(model)
    for cache in (compute_invariants, minimal_model, local_data):
        assert cache.cache_info().currsize == CURVE_CACHE_SIZE
    pairs = ((m, p) for m in models for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41) if m.discriminant() % p)
    for _ in range(TRACE_CACHE_SIZE + 50):
        trace_of_frobenius(*next(pairs))
    assert trace_of_frobenius.cache_info().currsize == TRACE_CACHE_SIZE
    for limit in range(100, 110 + PRIME_TABLE_CACHE_SIZE):
        primes_up_to(limit)
    assert primes_up_to.cache_info().currsize == PRIME_TABLE_CACHE_SIZE
    for model in models:
        a_ell(model, 2)  # disc is odd: every model is good at 2
    assert galrep._trace_at_2.cache_info().currsize == CURVE_CACHE_SIZE
    for p in primes_up_to(20000)[1 : PRIME_CACHE_SIZE + 51]:
        galrep._unit_primes(p)
    assert galrep._unit_primes.cache_info().currsize == PRIME_CACHE_SIZE
    # one table per odd prime up to the scan bound, and none for a larger p
    odd = primes_up_to(TABLE_CACHE_BOUND)[1:]
    assert len(odd) <= TABLE_CACHE_SIZE
    for p in odd + (1009, 1013):
        trace_of_frobenius(next(m for m in models if m.discriminant() % p), p)
    assert curve._character_table.cache_info().currsize == len(odd)


def test_nonminimal_input_handled():
    from fractions import Fraction

    from shaclass.curve import transform_model

    big = transform_model(CURVE_1058D1, Fraction(1, 2), 0, 0, 0)
    assert tate_algorithm(big, 2) == tate_algorithm(CURVE_1058D1, 2)
    assert valuation(big.discriminant(), 2) == 19


def test_model_not_minimal_at_v_raises(monkeypatch):
    """Tate's algorithm runs on minimal_model's output; a model that is not
    minimal at v (here minimal_model bypassed) is refused, not rescaled."""
    from shaclass.curve import transform_model

    scaled = transform_model(CurveModel(0, -1, 1, -10, -20), Fraction(1, 5), 0, 0, 0)  # 11a1
    monkeypatch.setattr("shaclass.localred.minimal_model", lambda model: model)
    with pytest.raises(ArithmeticError):
        tate_algorithm(scaled, 5)


def test_val_delta_min_on_minimal_model(tate_corpus):
    for entry in tate_corpus.values():
        model = CurveModel(*entry["ainvs"])
        disc = compute_invariants(minimal_model(model)).disc
        for q in bad_primes(model):
            assert tate_algorithm(model, q).val_delta_min == valuation(disc, q)


def test_two_isogenous_curves_share_conductor_at_2():
    """y^2 = x^3 + a x^2 + b x and y^2 = x^3 - 2a x^2 + (a^2 - 4b) x are
    2-isogenous, so their conductors agree, and so does a_l at every good
    l <= 43; many pairs reach the p = 2 double root of the I_n* and IV*
    steps of Tate's algorithm."""
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    for a in range(-12, 13):
        for b in range(-40, 41):
            if b == 0 or a * a == 4 * b:
                continue
            e = CurveModel(0, a, 0, b, 0)
            e_prime = CurveModel(0, -2 * a, 0, a * a - 4 * b, 0)
            assert (
                tate_algorithm(e, 2).conductor_exponent
                == tate_algorithm(e_prime, 2).conductor_exponent
            ), (a, b)
            disc = compute_invariants(minimal_model(e)).disc
            for ell in small_primes:
                if disc % ell:
                    assert a_ell(e, ell) == a_ell(e_prime, ell), (a, b, ell)


def test_three_isogenous_curves_share_conductor_at_3_and_traces():
    """y^2 + a x y + b y = x^3 has the 3-torsion point (0, 0); its quotient
    is (a, 0, b, -5ab, -a^3 b - 7b^2).  The two curves, and their twists by
    -1, 3 and -3, share every a_l and the conductor exponent at 3, reached
    through I0*, I3*, I6*, IV, III* and II* at v = 3."""

    def twist(model, d):
        inv = compute_invariants(model)
        return CurveModel(0, 0, 0, -27 * inv.c4 * d * d, -54 * inv.c6 * d**3)

    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    for a in range(-6, 7):
        for b in range(-12, 13):
            if b == 0 or a**3 == 27 * b:
                continue
            e = CurveModel(a, 0, b, 0, 0)
            e_prime = CurveModel(a, 0, b, -5 * a * b, -(a**3) * b - 7 * b * b)
            for d in (1, -1, 3, -3):
                x, y = (e, e_prime) if d == 1 else (twist(e, d), twist(e_prime, d))
                assert (
                    tate_algorithm(x, 3).conductor_exponent
                    == tate_algorithm(y, 3).conductor_exponent
                ), (a, b, d)
                disc = compute_invariants(minimal_model(x)).disc
                for ell in small_primes:
                    if disc % ell:
                        assert a_ell(x, ell) == a_ell(y, ell), (a, b, d, ell)
