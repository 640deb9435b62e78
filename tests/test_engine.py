import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import shaclass
from conftest import DATA_DIR
from shaclass.curve import (
    CurveModel,
    classify_good_prime,
    compute_invariants,
    minimal_model,
    transform_model,
)
from shaclass.engine import (
    ASSUMED,
    COROLLARY,
    FAILS,
    HOLDS,
    LEMMA_FIN,
    MAIN,
    MAIN_CONV,
    UNKNOWN_STATUS,
    analyze,
    apply_corollary,
    certificate_to_json,
    certificate_to_text,
    evaluate_hypotheses,
)
from shaclass.galrep import certify_image, wild_ramification_status
from shaclass.localred import tamagawa_unit_check
from shaclass.selmerdata import (
    OFFLINE_ONLY,
    StoreConfig,
    fetch_curve_record,
    packaged_fixtures_dir,
)

CURVE_1058D1 = CurveModel(1, -1, 0, -332311, -73733731)
CURVE_423801 = CurveModel(0, 0, 1, -17034726259173, -27061436852750306309)
CURVE_11A1 = CurveModel(0, -1, 1, -10, -20)

CORPUS = {
    label: entry["ainvs"]
    for name in ("tate_corpus.json", "image_corpus.json")
    for label, entry in json.loads((DATA_DIR / name).read_text()).items()
}


def record_for(label, tmp_path):
    config = StoreConfig(fixtures_dir=packaged_fixtures_dir(), cache_dir=tmp_path)
    return fetch_curve_record(label, OFFLINE_ONLY, config)


def ledgers_for(model, p):
    profile = classify_good_prime(model, p)
    cert = certify_image(model, p, 1000)
    wild = wild_ramification_status(profile)
    tmap = tamagawa_unit_check(model, p)
    return evaluate_hypotheses(model, p, cert.status, wild, tmap)


class TestLedgers:
    def test_1058d1_main_all_holds(self):
        ledgers = ledgers_for(CURVE_1058D1, 5)
        main = ledgers[MAIN]
        assert main["applicable"]
        assert [c["status"] for c in main["conditions"]] == [HOLDS] * 4

    def test_423801_mainconv_all_holds(self):
        ledgers = ledgers_for(CURVE_423801, 5)
        conv = ledgers[MAIN_CONV]
        assert conv["applicable"]
        assert [c["status"] for c in conv["conditions"]] == [HOLDS] * 4
        assert any("inconsistent printed forms" in n for n in conv["notes"])

    def test_tamagawa_failure_blocks(self):
        # 11a1 at p = 5: c_11 = 5, and the 5-isogeny leaves (d) unknown
        ledgers = ledgers_for(CURVE_11A1, 5)
        main = ledgers[MAIN]
        statuses = {c["id"]: c["status"] for c in main["conditions"]}
        assert statuses["c"] == FAILS
        assert statuses["d"] == UNKNOWN_STATUS
        assert not main["applicable"]

    def test_lemma_fin_has_three_conditions(self):
        ledgers = ledgers_for(CURVE_1058D1, 5)
        assert [c["id"] for c in ledgers[LEMMA_FIN]["conditions"]] == ["a", "b", "c"]
        assert [c["id"] for c in ledgers[MAIN]["conditions"]] == ["a", "b", "c", "d"]
        assert set(ledgers) == {MAIN, COROLLARY, LEMMA_FIN, MAIN_CONV}

    def test_assumption_flag_monotonicity(self):
        # find a (curve, p) with ordinary reduction and a_p = 1 mod p so that
        # condition (b) is genuinely unknown, then assert the flag only moves
        # Unknown -> Assumed
        model, p = CurveModel(0, 1, 1, 0, 0), 5  # 43a1 has a_5 = -4 = 1 mod 5
        prof = classify_good_prime(model, p)
        from shaclass.curve import ORDINARY

        assert prof.reduction_kind == ORDINARY and prof.a_p % p == 1
        cert = certify_image(model, p, 1000)
        tmap = tamagawa_unit_check(model, p)
        plain = evaluate_hypotheses(
            model, p, cert.status, wild_ramification_status(prof), tmap
        )
        flagged = evaluate_hypotheses(
            model,
            p,
            cert.status,
            wild_ramification_status(prof, assume_wild_ramification=True),
            tmap,
        )
        for tid in plain:
            for before, after in zip(plain[tid]["conditions"], flagged[tid]["conditions"]):
                if before["status"] == UNKNOWN_STATUS and before["id"] == "b":
                    assert after["status"] == ASSUMED
                else:
                    assert after["status"] == before["status"]


class TestBounds:
    def test_lower_bound_featured(self, tmp_path):
        record = record_for("1058d1", tmp_path)
        cert = analyze(CURVE_1058D1, 5, record=record, label="1058d1")
        assert cert["bounds"] == {"2": {"lower": 1, "upper": 3}}

    def test_lower_bound_all_scenarios_positive(self, tmp_path):
        record = record_for("423801ci1", tmp_path)
        cert = analyze(CURVE_423801, 5, record=record, label="423801ci1")
        lower = {int(d): b["lower"] for d, b in cert["bounds"].items()}
        assert lower == {2: 1, 4: 3}
        assert all(v >= 1 for v in lower.values())

    def test_lower_bound_zero_clamped(self, tmp_path):
        record = record_for("37a1", tmp_path)
        cert = analyze(CurveModel(0, 0, 1, -1, 0), 5, record=record, label="37a1")
        assert cert["selmer"]["possible_dims"] == [1]
        assert {int(d): b["lower"] for d, b in cert["bounds"].items()} == {1: 0}

    def test_upper_bound_featured(self, tmp_path):
        record = record_for("423801ci1", tmp_path)
        cert = analyze(CURVE_423801, 5, record=record, label="423801ci1")
        assert {int(d): b["upper"] for d, b in cert["bounds"].items()} == {2: 2, 4: 4}
        assert cert["equality_note"]  # T empty: rank Hom equals the unramified subgroup rank

    def test_upper_bound_with_t_member(self, tmp_path):
        record = record_for("1058d1", tmp_path)
        cert = analyze(CURVE_1058D1, 5, record=record, label="1058d1")
        assert cert["t_set"]["members"] == [2]
        assert {int(d): b["upper"] for d, b in cert["bounds"].items()} == {2: 3}
        assert not cert["equality_note"]

    def test_no_bound_without_an_applicable_ledger(self, tmp_path):
        """The certificate is one-sided: a bound appears exactly for a Selmer
        scenario under an applicable Main ledger, each side by its formula,
        and the Corollary is answered only under Main."""
        seen = {"main": 0, "no main": 0, "no scenario": 0}
        for label in sorted(f.stem for f in packaged_fixtures_dir().glob("*.txt")):
            record = record_for(label, tmp_path)
            model = CurveModel(*record.ainvs)
            disc = compute_invariants(minimal_model(model)).disc
            for p in (3, 5, 7, 11, 13):
                if disc % p == 0:
                    continue
                for sha_finite in (True, False):
                    for wild in (True, False):
                        cert = analyze(
                            model,
                            p,
                            record=record,
                            assume_wild_ramification=wild,
                            assume_sha_finite=sha_finite,
                            label=label,
                        )
                        main = cert["ledgers"][MAIN]["applicable"]
                        conv = cert["ledgers"][MAIN_CONV]["applicable"]
                        if cert["selmer"] is None:
                            seen["no scenario"] += 1
                        else:
                            seen["main" if main else "no main"] += 1
                        emitted = cert["selmer"] is not None and main
                        assert (cert["bounds"] is not None) == emitted, (label, p)
                        if not main:
                            assert cert["unramified_extension_exists"] == "Unknown"
                        if not emitted:
                            continue
                        assert cert["t_set"]["provisional_members"] == []
                        size = len(cert["t_set"]["members"])
                        for d in cert["selmer"]["possible_dims"]:
                            bound = cert["bounds"][str(d)]
                            assert bound["lower"] == max(0, d - 1)
                            assert bound["upper"] == (d + size if conv else None)
                            assert bound["upper"] is None or bound["lower"] <= bound["upper"]
        assert seen == {"main": 102, "no main": 10, "no scenario": 16}


class TestCorollary:
    def test_yes_by_sha_rank(self, tmp_path):
        record = record_for("1058d1", tmp_path)
        assert apply_corollary(record, 5) == "Yes"

    def test_yes_by_mw_rank(self, tmp_path):
        record = record_for("1058c1", tmp_path)
        assert record.sha_p_rank(5) == 0 and record.mw_rank == 2
        assert apply_corollary(record, 5) == "Yes"

    def test_unknown_when_no_clause_fires(self, tmp_path):
        record = record_for("37a1", tmp_path)  # rank 1, Sha[5]=0
        assert apply_corollary(record, 5) == "Unknown"


class TestCertificates:
    def test_full_1058d1(self, tmp_path):
        record = record_for("1058d1", tmp_path)
        cert = analyze(CURVE_1058D1, 5, record=record, label="1058d1")
        assert cert["a_p"] == 2
        assert cert["image_status"] == "SurjectiveCertified"
        assert cert["selmer"]["possible_dims"] == [2]
        assert {d: b["lower"] for d, b in cert["bounds"].items()} == {"2": 1}
        assert {d: b["upper"] for d, b in cert["bounds"].items()} == {"2": 3}
        assert cert["unramified_extension_exists"] == "Yes"
        assert not cert["equality_note"]

    def test_full_423801(self, tmp_path):
        record = record_for("423801ci1", tmp_path)
        cert = analyze(CURVE_423801, 5, record=record, label="423801ci1")
        assert cert["selmer"]["possible_dims"] == [2, 4]
        assert {d: b["lower"] for d, b in cert["bounds"].items()} == {"2": 1, "4": 3}
        assert {d: b["upper"] for d, b in cert["bounds"].items()} == {"2": 2, "4": 4}
        assert cert["equality_note"]
        assert cert["t_set"] == {"members": [], "provisional_members": []}

    def test_bounds_conditional_order(self, tmp_path):
        record = record_for("423801ci1", tmp_path)
        cert = analyze(CURVE_423801, 5, record=record)
        for d in cert["selmer"]["possible_dims"]:
            bound = cert["bounds"][str(d)]
            assert max(0, d - 1) == bound["lower"]
            assert bound["lower"] <= bound["upper"]

    def test_determinism(self, tmp_path):
        record = record_for("1058d1", tmp_path)
        one = certificate_to_json(analyze(CURVE_1058D1, 5, record=record, label="1058d1"))
        two = certificate_to_json(analyze(CURVE_1058D1, 5, record=record, label="1058d1"))
        assert one == two

    def test_graceful_degradation_without_record(self):
        cert = analyze(CURVE_1058D1, 5, record=None)
        assert cert["selmer"] is None
        assert cert["bounds"] is None
        assert cert["unramified_extension_exists"] == "Unknown"
        assert set(cert["ledgers"]) == {MAIN, COROLLARY, LEMMA_FIN, MAIN_CONV}
        assert cert["ledgers"][MAIN]["applicable"]  # hypotheses still evaluated

    def test_text_and_json_share_facts(self, tmp_path):
        record = record_for("423801ci1", tmp_path)
        doc = analyze(CURVE_423801, 5, record=record, label="423801ci1")
        text = certificate_to_text(doc)
        assert str(doc["p"]) in text
        assert doc["image_status"] in text
        for dim in doc["selmer"]["possible_dims"]:
            assert f"Selmer dim {dim}" in text
        for q, d in doc["local_data"].items():
            assert f"v = {q}: {d['kodaira']}" in text
        assert doc["unramified_extension_exists"] in text

    def test_p3_t_set_imports_no_sympy(self):
        # y^2 = x^3 - 2x + 3 is II at 2 and I1 at 211, non-CM, and its image
        # at p = 3 is certified surjective by the scan: T comes from the
        # Kodaira types alone
        code = (
            "import sys; from shaclass import CurveModel; "
            "from shaclass.engine import analyze; "
            "cert = analyze(CurveModel(0, 0, 0, -2, 3), 3); "
            "print(cert['local_data']['2']['kodaira'], cert['t_set'], 'sympy' in sys.modules)"
        )
        src = str(Path(shaclass.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.strip() == "II {'members': [211], 'provisional_members': []} False"

    def test_no_bounds_when_inapplicable(self, tmp_path):
        record = record_for("11a1", tmp_path)
        cert = analyze(CURVE_11A1, 5, record=record, label="11a1")
        assert cert["bounds"] is None
        assert cert["unramified_extension_exists"] == "Unknown"

    def test_golden_certificates(self):
        """JSON and text certificates hash to the digests of the committed table."""
        tool = DATA_DIR.parents[1] / "tools" / "gen_golden.py"
        spec = importlib.util.spec_from_file_location("gen_golden", tool)
        gen_golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen_golden)

        def flat(table):
            return {
                (section, label, p, fmt): digest
                for section, rows in table.items()
                for label, by_p in rows.items()
                for p, digests in by_p.items()
                for fmt, digest in digests.items()
            }

        golden = flat(json.loads((DATA_DIR / "golden" / "certificates.json").read_text()))
        current = flat(gen_golden.certificate_table())
        assert len(golden) >= 280
        differ = sorted(k for k in golden.keys() | current.keys() if golden.get(k) != current.get(k))
        assert not differ, f"certificates differ at (section, label, p, format): {differ}"

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(CORPUS)),
        st.integers(1, 6),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(-20, 20),
    )
    def test_integral_change_of_coordinates_keeps_certificate(self, label, n, r, s, t):
        """u = 1/n with integral r, s, t gives another integral model of the
        same curve: the minimal model and every certificate field except the
        input ainvs stay the same."""
        model = CurveModel(*CORPUS[label])
        moved = transform_model(model, Fraction(1, n), r, s, t)
        assert minimal_model(moved) == minimal_model(model)
        disc = compute_invariants(minimal_model(model)).disc
        for p in (3, 5, 7):
            if disc % p == 0:
                continue
            want = analyze(model, p)
            got = analyze(moved, p)
            assert json.loads(certificate_to_json(want)) == want
            assert got.pop("ainvs") == list(moved.ainvs())
            want.pop("ainvs")
            assert got == want, (label, n, r, s, t, p)
