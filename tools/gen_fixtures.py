#!/usr/bin/env python3
"""Regenerate committed fixture data.

Writes:
  src/shaclass/fixtures/<label>.txt   arithmetic records (rank, Sha, torsion)
  tests/data/tate_corpus.json         expected local reduction data
  tests/data/image_corpus.json        expected mod-5 image (full / proper)

Provenance policy (no network access is assumed):
  * "forced":    v(disc_min) = 1 at the prime, so the type is I1 and c = 1,
                 or the type's component group admits a single c value
                 (II, III, III*, II* and I2 with its c = 2 either way).
  * "table":     p >= 5 tame classification from (v(c4), v(c6), v(disc))
                 plus the classical closed-form Tamagawa criteria
                 (split iff -c6 square; IV/IV* via -6*c6/p^k; I0* via the
                 reduced cubic).  Computed here by tests/oracles.py, an
                 implementation independent of the library's Tate loop.
  * "hand":      wild primes (2 and 3) worked through Tate's procedure by
                 hand; the steps are spelled out in comments below.
  * "stated":    values asserted by the source material for the two
                 featured curves (Tamagawa numbers equal to 1 for 1058d1;
                 rank/Sha data for the featured records).
  * "derived":   produced by this code base and cross-checked only against
                 structural constraints (Ogg's formula, conductor shape,
                 c in {2,4} for In*); the weakest class, kept to a minimum.

Every record that can be checked by an independent oracle is checked here
before being written; the script fails loudly on any mismatch.
"""

import json
import sys
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from shaclass.arith import factor, legendre, rational_factors, valuation  # noqa: E402
from shaclass.curve import (  # noqa: E402
    CurveModel,
    brute_force_point_count,
    compute_invariants,
    detect_cm,
    minimal_model,
    trace_of_frobenius,
)
from shaclass.galrep import division_polynomial  # noqa: E402
from shaclass.selmerdata import ExternalCurveRecord, render_record_text  # noqa: E402
from oracles import tame_local_data, torsion_multiple_bound  # noqa: E402

FIXTURES = ROOT / "src" / "shaclass" / "fixtures"
DATA = ROOT / "tests" / "data"


# --- the curve list -------------------------------------------------------

CURVES = {
    # label: a-invariants.  Every tuple below is validated against its
    # expected minimal discriminant support before anything is written.
    "11a1": (0, -1, 1, -10, -20),
    "11a3": (0, -1, 1, 0, 0),
    "14a1": (1, 0, 1, 4, -6),
    "15a1": (1, 1, 1, -10, -10),
    "27a1": (0, 0, 1, 0, -7),
    "27a3": (0, 0, 1, 0, 0),
    "32a1": (0, 0, 0, 4, 0),
    "36a1": (0, 0, 0, 0, 1),
    "37a1": (0, 0, 1, -1, 0),
    "43a1": (0, 1, 1, 0, 0),
    "49a1": (1, -1, 0, -2, -1),
    "53a1": (1, -1, 1, 0, 0),
    "61a1": (1, 0, 0, -2, 1),
    "79a1": (1, 1, 1, -2, 0),
    "83a1": (1, 1, 1, 1, 0),
    "89a1": (1, 1, 1, -1, 0),
    "101a1": (0, 1, 1, -1, -1),
    "389a1": (0, 1, 1, -2, 0),
    "5077a1": (0, 0, 1, -7, 6),
    # extra curves for the image corpus only
    "11a2": (0, -1, 1, -7820, -263580),
    "17a1": (1, -1, 1, -1, -14),
    "19a1": (0, 1, 1, -9, -15),
    "21a1": (1, 0, 0, -4, -1),
    "33a1": (1, 1, 0, -11, 0),
    "37b1": (0, 1, 1, -23, -50),
    "56a1": (0, 0, 0, 1, 2),
    "57a1": (0, -1, 1, -2, 2),
    "58a1": (1, -1, 0, -1, 1),
    "77a1": (0, 0, 1, 2, 0),
    "82a1": (1, 0, 1, -2, 0),
    "88a1": (0, 0, 0, -4, 4),
    "91a1": (0, 0, 1, 1, 0),
    "99a1": (1, -1, 1, -59, 186),
    "121b1": (0, -1, 1, -7, 10),
    "131a1": (0, -1, 1, 1, 0),
    "1058c1": (1, 0, 1, 0, 2),
    "1058d1": (1, -1, 0, -332311, -73733731),
    "423801ci1": (0, 0, 1, -17034726259173, -27061436852750306309),
    # synthetic curves with hand-provable local data
    "syn_ii_7": (0, 0, 0, 0, 7),
    "syn_iii_7": (0, 0, 0, 7, 0),
    "syn_iv_7": (0, 0, 0, 0, 49),
    "syn_iv_ns_7": (0, 0, 0, 0, 147),
    "syn_i0star_7": (0, 0, 0, 49, 0),
    "syn_i0star_13": (0, 0, 0, 169, 0),
    "syn_ivstar_7": (0, 0, 0, 0, 2401),
    "syn_ivstar_ns_7": (0, 0, 0, 0, 3 * 2401),
    "syn_iiistar_7": (0, 0, 0, 343, 0),
    "syn_iistar_7": (0, 0, 0, 0, 16807),
    "syn_i1star_7": (0, 0, 0, 49, 686),       # 4 + 27*2^2 = 112 = 2^4 * 7
    "syn_i1star_13": (0, 0, 0, 169, 6591),    # 4 + 27*3^2 = 247 = 13 * 19
    "syn_i2star_7": (0, 0, 0, 49, 10290),     # 4 + 27*30^2 = 24304 = 2^4*7^2*31
    "syn_in_32": (1, 0, 0, 0, 32),            # disc = -2^5 * 5^2 * 7 * 79
    "syn_in_11": (1, 0, 0, 0, 11),            # disc = -7^2 * 11 * 97
}

# Expected local data: label -> {prime: (kodaira, c_v, provenance)}.
# "Hand" entries carry the translated coefficients used in the derivation.
TATE_EXPECTED = {
    "11a1": {11: ("I5", 5, "table")},
    "11a3": {11: ("I1", 1, "forced")},
    "14a1": {
        # at 2: singular point (1,1); tangents T^2 + T + 1 irreducible over
        # F_2, so nonsplit; v(disc) = 6 even, hence c = 2
        2: ("I6", 2, "hand"),
        7: ("I3", 3, "table"),
    },
    "15a1": {3: ("I4", 2, "hand"), 5: ("I4", 4, "table")},
    # 27a1: v(disc) = 9, f = 3 from conductor 27, so m = 7 components; the
    # component group has a 3-rational structure (c = 3) consistent with the
    # curve's arithmetic; type confirmed only by this code base.
    "27a1": {3: ("IV*", 3, "derived")},
    # 27a3: singular point (2,1) mod 3; after translation a6' = 6 with
    # v_3(a6') = 1 < 2, so type II
    "27a3": {3: ("II", 1, "hand")},
    "36a1": {
        # at 2: translate (0,1): y^2 + 2y = x^3, b6' = 4, v = 2 < 3: type IV;
        # T^2 + T splits, c = 3.  at 3: v(disc) = 3 forces III, c = 2
        2: ("IV", 3, "hand"),
        3: ("III", 2, "hand"),
    },
    "37a1": {37: ("I1", 1, "forced")},
    "43a1": {43: ("I1", 1, "forced")},
    "49a1": {7: ("III", 2, "table")},
    "53a1": {53: ("I1", 1, "forced")},
    "61a1": {61: ("I1", 1, "forced")},
    "79a1": {79: ("I1", 1, "forced")},
    "83a1": {83: ("I1", 1, "forced")},
    "89a1": {89: ("I1", 1, "forced")},
    "101a1": {101: ("I1", 1, "forced")},
    "389a1": {389: ("I1", 1, "forced")},
    "5077a1": {5077: ("I1", 1, "forced")},
    "1058c1": {
        2: ("I2", 2, "forced"),  # split I2 and nonsplit I2 both have c = 2
        23: ("II", 1, "table"),
    },
    "1058d1": {
        2: ("I7", 1, "stated"),  # c = 1 stated; nonsplit follows (n odd)
        23: ("II*", 1, "table"),
    },
    "423801ci1": {
        3: ("I11*", 4, "derived"),  # wild prime; c prime to 5 as stated
        7: ("I4*", 4, "derived"),   # type from the table; c in {2,4}
        31: ("II*", 1, "table"),
    },
    "syn_ii_7": {2: ("II", 1, "hand"), 3: ("II", 1, "hand"), 7: ("II", 1, "table")},
    "syn_iii_7": {2: ("III", 2, "hand"), 7: ("III", 2, "table")},
    "syn_iv_7": {2: ("IV", 3, "hand"), 3: ("II", 1, "hand"), 7: ("IV", 3, "table")},
    "syn_iv_ns_7": {2: ("II", 1, "hand"), 3: ("II", 1, "hand"), 7: ("IV", 1, "table")},
    "syn_i0star_7": {2: ("II", 1, "hand"), 7: ("I0*", 2, "table")},
    "syn_i0star_13": {2: ("II", 1, "hand"), 13: ("I0*", 4, "table")},
    "syn_ivstar_7": {2: ("IV", 3, "hand"), 3: ("II", 1, "hand"), 7: ("IV*", 3, "table")},
    "syn_ivstar_ns_7": {2: ("II", 1, "hand"), 3: ("II", 1, "hand"), 7: ("IV*", 1, "table")},
    "syn_iiistar_7": {2: ("III", 2, "hand"), 7: ("III*", 2, "table")},
    "syn_iistar_7": {2: ("II", 1, "hand"), 3: ("II", 1, "hand"), 7: ("II*", 1, "table")},
    # I1* at 7: double root 4 of T^3 + T + 2; after x -> x + 28 the test
    # quadratic is Y^2 - 10 with 10 a nonresidue mod 7: c = 2.
    # at 2: normalization (s=1) gives P(T) = T^3 + T^2 + T, distinct roots,
    # one rational: I0* with c = 2.
    "syn_i1star_7": {2: ("I0*", 2, "hand"), 7: ("I1*", 2, "hand")},
    # I1* at 13: double root 2 of T^3 + T + 3; quadratic Y^2 - 1 splits: c = 4.
    # at 2: translate (1,1): b8' = 51548 with v_2 = 2 < 3: type III.
    "syn_i1star_13": {2: ("III", 2, "hand"), 13: ("I1*", 4, "hand"), 19: ("I1", 1, "forced")},
    # I2* at 7: after r = 28 and the first double-root step, the X-quadratic
    # 5X^2 + 2 mod 7 has roots +-1: c = 4.  at 2: I1* with split Y-test: c = 4.
    "syn_i2star_7": {2: ("I1*", 4, "hand"), 7: ("I2*", 4, "hand"), 31: ("I1", 1, "forced")},
    # split at every q | c (then -c6 = 1 + 864c is 1 mod q); at primes
    # dividing 1 + 432c the residue of 432c decides the twist
    "syn_in_32": {2: ("I5", 5, "hand"), 5: ("I2", 2, "table"), 7: ("I1", 1, "forced"), 79: ("I1", 1, "forced")},
    "syn_in_11": {7: ("I2", 2, "table"), 11: ("I1", 1, "forced"), 97: ("I1", 1, "forced")},
}

# mod-5 image corpus: label -> ("full" | "proper", provenance)
IMAGE_EXPECTED = {
    "1058d1": ("full", "stated"),
    "1058c1": ("full", "stated"),
    "423801ci1": ("full", "stated"),
    "37a1": ("full", "literature"),
    "389a1": ("full", "literature"),
    "5077a1": ("full", "literature"),
    "14a1": ("full", "certified"),
    "17a1": ("full", "certified"),
    "19a1": ("full", "certified"),
    "21a1": ("full", "certified"),
    "33a1": ("full", "certified"),
    "37b1": ("full", "certified"),
    "43a1": ("full", "certified"),
    "53a1": ("full", "certified"),
    "56a1": ("full", "certified"),
    "57a1": ("full", "certified"),
    "58a1": ("full", "certified"),
    "61a1": ("full", "certified"),
    "77a1": ("full", "certified"),
    "79a1": ("full", "certified"),
    "82a1": ("full", "certified"),
    "83a1": ("full", "certified"),
    "88a1": ("full", "certified"),
    "89a1": ("full", "certified"),
    "91a1": ("full", "certified"),
    "99a1": ("full", "certified"),
    "101a1": ("full", "certified"),
    "131a1": ("full", "certified"),
    "11a1": ("proper", "isogeny"),   # rational 5-isogeny: psi_5 reducible
    "11a2": ("proper", "isogeny"),
    "11a3": ("proper", "isogeny"),
    "27a1": ("proper", "cm"),        # j = 0, CM by -3
    "27a3": ("proper", "cm"),        # j = 0 as well
    "32a1": ("proper", "cm"),        # j = 1728, CM by -4
    "36a1": ("proper", "cm"),        # j = 0
    "49a1": ("proper", "cm"),        # j = -3375, CM by -7
    "121b1": ("proper", "cm"),       # j = -32768, CM by -11
}

# Arithmetic records (rank / Sha / torsion).  Sources:
#   1058d1, 1058c1, 423801ci1: stated for the featured examples;
#   the rest are the standard well-known values for these heavily used
#   curves (Sha trivial, the printed ranks), recorded for offline demos.
RECORDS = {
    "1058d1": dict(mw_rank=0, sha_order=25, sha_structure=(5, 5)),
    "1058c1": dict(mw_rank=2, sha_p_ranks=((5, 0),)),
    "423801ci1": dict(mw_rank=0, sha_order=625),
    "11a1": dict(mw_rank=0, sha_order=1, sha_structure=()),
    "37a1": dict(mw_rank=1, sha_order=1, sha_structure=()),
    "389a1": dict(mw_rank=2, sha_order=1, sha_structure=()),
    "5077a1": dict(mw_rank=3, sha_order=1, sha_structure=()),
}

# Expected minimal-discriminant support, a cheap recall check on coefficients.
DISC_SUPPORT = {
    "11a1": {11},
    "11a3": {11},
    "14a1": {2, 7},
    "15a1": {3, 5},
    "27a1": {3},
    "27a3": {3},
    "32a1": {2},
    "36a1": {2, 3},
    "37a1": {37},
    "43a1": {43},
    "49a1": {7},
    "53a1": {53},
    "61a1": {61},
    "79a1": {79},
    "83a1": {83},
    "89a1": {89},
    "101a1": {101},
    "389a1": {389},
    "5077a1": {5077},
    "1058c1": {2, 23},
    "1058d1": {2, 23},
    "423801ci1": {3, 7, 31},
    "11a2": {11},
    "17a1": {17},
    "19a1": {19},
    "21a1": {3, 7},
    "33a1": {3, 11},
    "37b1": {37},
    "56a1": {2, 7},
    "57a1": {3, 19},
    "58a1": {2, 29},
    "77a1": {7, 11},
    "82a1": {2, 41},
    "88a1": {2, 11},
    "91a1": {7, 13},
    "99a1": {3, 11},
    "121b1": {11},
    "131a1": {131},
}


def model(label):
    return CurveModel(*CURVES[label])


def check_disc_support():
    for label, support in DISC_SUPPORT.items():
        disc = compute_invariants(minimal_model(model(label))).disc
        assert set(factor(abs(disc))) == support, (label, factor(abs(disc)))
    print(f"  disc support validated for {len(DISC_SUPPORT)} labeled curves")


def check_torsion():
    """Prove the torsion claims used in the records."""
    from shaclass.arith import primes_up_to

    small = [q for q in primes_up_to(60) if q > 2]
    for label in ("1058d1", "1058c1", "423801ci1", "37a1", "389a1", "5077a1"):
        bound = torsion_multiple_bound(model(label), small)
        assert bound == 1, (label, bound)
    b11 = torsion_multiple_bound(model("11a1"), small)
    assert b11 == 5, b11
    # (5,5) really is a rational point of order 5 on 11a1
    m = model("11a1")
    x, y = 5, 5
    assert (y * y + m.a1 * x * y + m.a3 * y) == (x**3 + m.a2 * x * x + m.a4 * x + m.a6)
    print("  torsion claims verified (gcd of good point counts)")


def check_tate_expectations():
    """Re-derive every 'table'/'forced' entry with the independent oracle."""
    checked = 0
    for label, entries in TATE_EXPECTED.items():
        m = model(label)
        disc = compute_invariants(minimal_model(m)).disc
        assert set(entries) == set(factor(abs(disc))), (label, "bad-prime coverage")
        for q, (kod, c, prov) in entries.items():
            n = valuation(disc, q)
            if prov == "forced" and kod == "I1":
                assert n == 1 and c == 1
                checked += 1
            elif prov == "forced" and kod == "I2":
                ora_kod, _ = tame_local_data(m, q) if q >= 5 else (None, None)
                assert n == 2 and c == 2
                checked += 1
            elif prov == "table":
                ora_kod, ora_c = tame_local_data(m, q)
                assert ora_kod == kod, (label, q, ora_kod, kod)
                if ora_c is not None:
                    assert ora_c == c, (label, q, ora_c, c)
                else:
                    assert c in (2, 4)
                checked += 1
            elif prov == "stated" and label == "1058d1" and q == 2:
                assert n == 7 and c == 1  # I7 forced multiplicative; c stated
                checked += 1
    print(f"  {checked} corpus entries re-derived independently")


def check_images():
    for label, (kind, prov) in IMAGE_EXPECTED.items():
        m = model(label)
        if prov == "cm":
            j = compute_invariants(m).j
            assert detect_cm(j) is not None, label
        if prov == "isogeny":
            factors = rational_factors(division_polynomial(m, 5))
            assert len(factors) > 1, (label, "psi_5 unexpectedly irreducible")
        if kind == "full":
            # sound one-sided certificate; failure here means the recorded
            # value cannot be backed and must be dropped
            from shaclass.galrep import certify_image

            cert = certify_image(m, 5, 1000)
            assert cert.status == "SurjectiveCertified", (label, cert.status)
    print(f"  image corpus validated for {len(IMAGE_EXPECTED)} curves")


def write_outputs():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    DATA.mkdir(parents=True, exist_ok=True)

    for label, fields in RECORDS.items():
        record = ExternalCurveRecord(
            label=label,
            ainvs=CURVES[label],
            torsion_structure=(5,) if label == "11a1" else (),
            sha_order=fields.get("sha_order"),
            sha_structure=fields.get("sha_structure"),
            sha_p_ranks=fields.get("sha_p_ranks", ()),
            mw_rank=fields["mw_rank"],
            provenance="LocalFixture",
        )
        (FIXTURES / f"{label}.txt").write_text(render_record_text(record))

    tate_doc = {
        label: {
            "ainvs": list(CURVES[label]),
            "local": {
                str(q): {"kodaira": kod, "c": c, "provenance": prov}
                for q, (kod, c, prov) in sorted(entries.items())
            },
        }
        for label, entries in sorted(TATE_EXPECTED.items())
    }
    (DATA / "tate_corpus.json").write_text(json.dumps(tate_doc, indent=1) + "\n")

    image_doc = {
        label: {
            "ainvs": list(CURVES[label]),
            "p": 5,
            "image": kind,
            "provenance": prov,
        }
        for label, (kind, prov) in sorted(IMAGE_EXPECTED.items())
    }
    (DATA / "image_corpus.json").write_text(json.dumps(image_doc, indent=1) + "\n")
    print(f"  wrote {len(RECORDS)} records, {len(TATE_EXPECTED)} tate entries, {len(IMAGE_EXPECTED)} image entries")


def main():
    print("validating fixture data:")
    check_disc_support()
    check_torsion()
    check_tate_expectations()
    check_images()
    write_outputs()
    print("done")


if __name__ == "__main__":
    main()
