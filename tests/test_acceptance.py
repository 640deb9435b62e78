"""Acceptance suite: one test per criterion, with a printed PASS line.

Criterion 1 pins a_5 = -2 for the curve (1, -1, 0, -332311, -73733731).
Direct point counting (two independent routines, plus the mod-5 congruence
with the companion curve 1058c1, which forces a_5 = 2 mod 5) gives
a_5 = +2 for that equation, so the stated value is a sign slip in the
source data and not attainable by any correct implementation.  The
criterion is asserted as stated and fails honestly rather than being
weakened; a companion test checks the entire remaining pipeline of
criterion 1 against the verified trace.  The README's "Install and test"
section carries the same analysis.
"""

import random
import time

import pytest

from shaclass.cohom import (
    close_group,
    gl2_generators,
    h0,
    h1,
    h1_cyclic,
    mat_det,
    mat_order,
    sl2_generators,
)
from shaclass.curve import (
    CurveModel,
    brute_force_point_count,
    compute_invariants,
    minimal_model,
    trace_of_frobenius,
)
from shaclass.engine import MAIN, MAIN_CONV, analyze, certificate_to_json
from shaclass.galrep import SURJECTIVE_CERTIFIED, certify_image
from shaclass.localred import bad_primes, compute_t_set, tate_algorithm
from shaclass.selmerdata import (
    OFFLINE_ONLY,
    StoreConfig,
    fetch_curve_record,
    packaged_fixtures_dir,
)

CURVE_1058D1 = CurveModel(1, -1, 0, -332311, -73733731)
CURVE_1058C1 = CurveModel(1, 0, 1, 0, 2)
CURVE_423801 = CurveModel(0, 0, 1, -17034726259173, -27061436852750306309)


def offline_record(label, tmp_path):
    config = StoreConfig(fixtures_dir=packaged_fixtures_dir(), cache_dir=tmp_path)
    return fetch_curve_record(label, OFFLINE_ONLY, config)


def _criterion_1_common(tmp_path):
    record = offline_record("1058d1", tmp_path)
    cert = analyze(CURVE_1058D1, 5, record=record, label="1058d1")
    assert bad_primes(CURVE_1058D1) == (2, 23)
    assert tate_algorithm(CURVE_1058D1, 2).c_v == 1
    assert tate_algorithm(CURVE_1058D1, 23).c_v == 1
    assert cert["image_status"] == SURJECTIVE_CERTIFIED
    assert cert["ledgers"][MAIN]["applicable"]
    assert cert["selmer"]["possible_dims"] == [2]
    assert {d: b["lower"] for d, b in cert["bounds"].items()} == {"2": 1}
    assert cert["unramified_extension_exists"] == "Yes"
    return cert


def test_criterion_01_example_1_as_stated(tmp_path):
    start = time.perf_counter()
    cert = _criterion_1_common(tmp_path)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    if cert["a_p"] == -2:
        print("ACCEPTANCE 1: PASS - Example 1 reproduced exactly")
    else:
        print(
            "ACCEPTANCE 1: FAIL - a_5 clause: the stated equation has a_5 = "
            f"{cert['a_p']}, not -2 (every other clause of the criterion holds; "
            "see the module docstring and README for the analysis)"
        )
    assert cert["a_p"] == -2, (
        "criterion pins a_5 = -2, but #E(F_5) = 4 for the stated equation "
        "(verified by brute-force enumeration and by the mod-5 congruence "
        "with 1058c1); a_5 = +2 is the mathematically correct value"
    )


def test_criterion_01_example_1_verified_trace(tmp_path):
    start = time.perf_counter()
    cert = _criterion_1_common(tmp_path)
    assert cert["a_p"] == 2
    assert cert["a_p"] == 5 + 1 - brute_force_point_count(minimal_model(CURVE_1058D1), 5)
    assert time.perf_counter() - start < 5.0
    print("ACCEPTANCE 1 (verified-trace variant): PASS - full pipeline reproduced")


def test_criterion_02_example_1_companion(tmp_path):
    record = offline_record("1058c1", tmp_path)
    assert record.mw_rank == 2
    assert record.sha_p_rank(5) == 0
    cert = analyze(CURVE_1058C1, 5, record=record, label="1058c1")
    assert cert["selmer"]["possible_dims"] == [2]
    assert cert["unramified_extension_exists"] == "Yes"  # via the rank >= 2 clause
    assert record.sha_p_rank(5) == 0  # so not via the Sha clause
    print("ACCEPTANCE 2: PASS - companion curve 1058c1 reproduced")


def test_criterion_03_example_2(tmp_path):
    start = time.perf_counter()
    record = offline_record("423801ci1", tmp_path)
    cert = analyze(CURVE_423801, 5, record=record, label="423801ci1")
    assert cert["a_p"] == 4
    assert bad_primes(CURVE_423801) == (3, 7, 31)
    for q in (3, 7, 31):
        data = tate_algorithm(CURVE_423801, q)
        assert data.reduction_class.startswith("additive")
        assert data.c_v % 5 != 0
    t = compute_t_set(CURVE_423801, 5)
    assert t.members == frozenset() and t.provisional_members == frozenset()
    assert cert["selmer"]["possible_dims"] == [2, 4]
    assert all(b["lower"] >= 1 for b in cert["bounds"].values())
    assert {d: b["lower"] for d, b in cert["bounds"].items()} == {"2": 1, "4": 3}
    assert {d: b["upper"] for d, b in cert["bounds"].items()} == {"2": 2, "4": 4}
    assert cert["equality_note"]
    assert cert["ledgers"][MAIN_CONV]["applicable"]
    assert time.perf_counter() - start < 10.0
    print("ACCEPTANCE 3: PASS - Example 2 reproduced exactly")


def test_criterion_04_cohomology_vanishing():
    for p in (3, 5):
        for name, gens in (("GL2", gl2_generators(p)), ("SL2", sl2_generators(p))):
            start = time.perf_counter()
            group = close_group(gens, p)
            # cocycle linear system directly, not the central-scalar shortcut
            assert h0(group) == 0, (name, p)
            assert h1(group) == 0, (name, p)
            assert time.perf_counter() - start < 60.0
    print("ACCEPTANCE 4: PASS - H^0 = H^1 = 0 for GL2/SL2 over F_3 and F_5")


def test_criterion_05_cyclic_inertia_ranks():
    for p in (3, 5, 7):
        u = (1, 1, 0, 1)
        group = close_group([u], p)
        assert h0(group) == 1
        assert h1(group) == 1
        assert h1_cyclic(u, p, p) == 1
    rng = random.Random(20260810)
    p = 5
    checked = 0
    while checked < 20:
        g = tuple(rng.randrange(p) for _ in range(4))
        if mat_det(g, p) == 0:
            continue
        order = mat_order(g, p)
        if order % p == 0:
            continue
        assert h1_cyclic(g, order, p) == 0
        assert h1(close_group([g], p)) == 0
        checked += 1
    print("ACCEPTANCE 5: PASS - unipotent rank one; 20 prime-to-p cyclic groups vanish")


def test_criterion_06_central_scalar_soundness():
    rng = random.Random(424242)
    p = 5
    for _ in range(50):
        gens = [(rng.choice((2, 3, 4)), 0, 0, 0)]
        gens[0] = (gens[0][0], 0, 0, gens[0][0])
        for _ in range(rng.randint(1, 2)):
            while True:
                m = tuple(rng.randrange(p) for _ in range(4))
                if mat_det(m, p) != 0:
                    gens.append(m)
                    break
        group = close_group(gens, p)
        assert h0(group) == 0
        assert h1(group) == 0
    print("ACCEPTANCE 6: PASS - 50 scalar-bearing subgroups have vanishing H^0/H^1")


def test_criterion_07_point_counting_oracle():
    from shaclass.arith import primes_up_to

    curves = [
        CurveModel(0, -1, 1, -10, -20),
        CurveModel(0, 0, 1, -1, 0),
        CurveModel(0, 1, 1, -2, 0),
        CurveModel(1, -1, 0, -2, -1),
        CurveModel(0, 0, 1, 0, -7),
        CurveModel(0, 0, 0, 0, 1),
        CurveModel(1, 0, 0, 0, 11),
        CurveModel(1, 0, 0, 0, 32),
        CURVE_1058D1,
        CURVE_423801,
    ]
    assert len(curves) == 10
    for model in curves:
        mm = minimal_model(model)
        disc = compute_invariants(mm).disc
        for p in primes_up_to(97):
            if p == 2 or disc % p == 0:
                continue
            assert trace_of_frobenius(model, p) == p + 1 - brute_force_point_count(mm, p)
    print("ACCEPTANCE 7: PASS - a_p equals the brute-force count for all good p <= 97")


def test_criterion_08_tate_corpus(tate_corpus):
    assert len(tate_corpus) >= 20
    seen_types = set()
    for label, entry in tate_corpus.items():
        model = CurveModel(*entry["ainvs"])
        assert set(map(int, entry["local"])) == set(bad_primes(model))
        for q_str, expected in entry["local"].items():
            data = tate_algorithm(model, int(q_str))
            assert data.kodaira == expected["kodaira"], (label, q_str)
            assert data.c_v == expected["c"], (label, q_str)
            seen_types.add(expected["kodaira"])
    for required in ("II", "III", "IV", "I0*", "IV*", "III*", "II*"):
        assert required in seen_types
    assert any(t.startswith("I") and t[1].isdigit() and not t.endswith("*") and t != "I0" for t in seen_types)
    assert any(t.endswith("*") and t not in ("I0*", "IV*", "III*", "II*") for t in seen_types)
    print(f"ACCEPTANCE 8: PASS - {len(tate_corpus)} curves match recorded Kodaira/Tamagawa data")


def test_criterion_09_image_certifier_soundness(image_corpus):
    proper = fulls = 0
    for label, entry in image_corpus.items():
        model = CurveModel(*entry["ainvs"])
        cert = certify_image(model, entry["p"], 1000)
        if entry["image"] == "proper":
            assert cert.status != SURJECTIVE_CERTIFIED, label
            proper += 1
        else:
            assert cert.status == SURJECTIVE_CERTIFIED, label
            fulls += 1
    assert proper >= 5 and fulls >= 10
    print(
        f"ACCEPTANCE 9: PASS - never certifies {proper} proper-image curves; "
        f"certifies {fulls} full-image curves"
    )


def test_criterion_10_bound_sanity_and_determinism(tmp_path):
    labels = ["1058d1", "1058c1", "423801ci1", "11a1", "37a1", "389a1", "5077a1"]
    models = {
        "1058d1": CURVE_1058D1,
        "1058c1": CURVE_1058C1,
        "423801ci1": CURVE_423801,
        "11a1": CurveModel(0, -1, 1, -10, -20),
        "37a1": CurveModel(0, 0, 1, -1, 0),
        "389a1": CurveModel(0, 1, 1, -2, 0),
        "5077a1": CurveModel(0, 0, 1, -7, 6),
    }
    for label in labels:
        record = offline_record(label, tmp_path)
        first = analyze(models[label], 5, record=record, label=label)
        second = analyze(models[label], 5, record=record, label=label)
        assert certificate_to_json(first) == certificate_to_json(second)
        if first["selmer"] is None:
            continue
        t = compute_t_set(models[label], 5)
        for d in first["selmer"]["possible_dims"]:
            assert max(0, d - 1) <= d + t.size_for_bound()
            bound = first["bounds"] and first["bounds"][str(d)]
            if bound and bound["lower"] is not None and bound["upper"] is not None:
                assert bound["lower"] <= bound["upper"]
    print("ACCEPTANCE 10: PASS - bounds sane and certificates byte-stable offline")
