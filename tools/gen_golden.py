#!/usr/bin/env python3
"""Regenerate the golden files under tests/data/golden/.

image_witnesses.json: for every curve of tests/data/{tate,image}_corpus.json
and every prime p in GOLDEN_PRIMES of good reduction, the image status and
the Frobenius witnesses that certify_image returns.  tests/test_galrep.py
requires the library to reproduce it exactly.

small_model_images.json: for each of the 575 distinct minimal models of
a1, a3 in {0, 1}, a2 in {-1, 0, 1} and |a4|, |a6| <= 3, keyed by the
minimal model's a-invariants, and each of its 2,409 good p in GOLDEN_PRIMES,
the sha256 of the JSON list [status, witnesses, sorted ruled_out,
first_unruled] of certify_image.  tests/test_galrep.py requires the library
to reproduce it exactly.

isogeny_images.json: for each minimal model of the quadratic twists by d in
X0_TWISTS of the curves of j = j(t) on X_0(p), for p in X0_J and t in X0_TS,
at its own p where that is good and the curve is not CM, the sha256 of the
same [status, witnesses, sorted ruled_out, first_unruled] list.  Each of
these 154 rows has a rational p-isogeny, so each is certified from a factor
of psi_p that exact_factor lifts.  tests/test_galrep.py requires the library
to reproduce it exactly, without importing sympy.

small_model_local_data.json: for each of those 575 models, the sha256 of
the JSON list of the [q, kodaira, reduction_class, c_v, val_delta_min,
conductor_exponent] rows of local_data at every bad q, for the model and
for each of its quadratic twists by d in TWIST_DS, [0, 0, 0, -27 c4 d^2,
-54 c6 d^3] minimized.  The twists bring 5,026 distinct minimal models and
14,724 rows, among them 1,354 additive potentially multiplicative ones,
which the small models alone do not have.  tests/test_localred.py requires
the library to reproduce it exactly.

fresh_records.json: the 400 synthetic records of the batch_fresh benchmark
workload, shabench.inputs.fresh_curves(1, 100, 25), with label, ainvs, p,
mw_rank and sha_order.  Tier-1 reads this file and imports nothing from
shabench, so a change to the benchmark's generator shows up here as a diff.

certificates.json: the sha256 of certificate_to_json and of
certificate_to_text for
  * every corpus curve at each odd p <= 97 of good reduction, analyzed
    without a record: the 1,203 jobs of the corpus_sweep workload;
  * each packaged fixture label analyzed with its offline record at each
    good p in GOLDEN_PRIMES;
  * each fresh record analyzed with itself as record and empty torsion, as
    `shaclass analyze --batch` reads it from a fixture file in batch_fresh.
Digests stand in for the texts, which would come to several MB.
tests/test_engine.py requires the library to reproduce them.

A change that alters a certificate therefore shows up as a diff of one of
these files.

Usage: python3 tools/gen_golden.py
"""

import hashlib
import itertools
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from shaclass.curve import CurveModel, b_invariants, compute_invariants, discriminant_from_b  # noqa: E402
from shaclass.curve import minimal_model  # noqa: E402
from shaclass.engine import analyze, certificate_to_json, certificate_to_text  # noqa: E402
from shaclass.galrep import certify_image  # noqa: E402
from shaclass.localred import local_data  # noqa: E402
from shaclass.selmerdata import (  # noqa: E402
    OFFLINE_ONLY,
    ExternalCurveRecord,
    StoreConfig,
    fetch_curve_record,
    packaged_fixtures_dir,
)

DATA_DIR = ROOT / "tests" / "data"
GOLDEN_PATH = DATA_DIR / "golden" / "image_witnesses.json"
SMALL_MODELS_PATH = DATA_DIR / "golden" / "small_model_images.json"
ISOGENY_PATH = DATA_DIR / "golden" / "isogeny_images.json"
SMALL_LOCAL_PATH = DATA_DIR / "golden" / "small_model_local_data.json"
CERTIFICATES_PATH = DATA_DIR / "golden" / "certificates.json"
FRESH_RECORDS_PATH = DATA_DIR / "fresh_records.json"
GOLDEN_PRIMES = (3, 5, 7, 11, 13)
SWEEP_PRIMES = tuple(p for p in range(3, 98, 2) if all(p % d for d in range(3, p, 2)))
FRESH_CURVES_ARGS = (1, 100, 25)  # seed, records per prime, Latin-hypercube block
TWIST_DS = (-1, 2, -2, 3, -3, 5, -5, 7, -7)
# X_0(p): j(t) of a curve with a rational p-isogeny
X0_J = {
    3: lambda t: (t + 27) * (t + 3) ** 3 / t,
    5: lambda t: (t * t + 10 * t + 5) ** 3 / t,
    7: lambda t: (t * t + 13 * t + 49) * (t * t + 5 * t + 1) ** 3 / t,
    13: lambda t: (t * t + 5 * t + 13) * (t**4 + 7 * t**3 + 20 * t * t + 19 * t + 1) ** 3 / t,
}
X0_TS = (*(Fraction(n) for n in range(-6, 7) if n), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))
X0_TWISTS = (1, -1, 2, -3)


def corpus_curves():
    """{label: ainvs} over both corpora (shared labels have equal ainvs)."""
    curves = {}
    for name in ("tate_corpus.json", "image_corpus.json"):
        for label, entry in json.loads((DATA_DIR / name).read_text()).items():
            curves[label] = entry["ainvs"]
    return dict(sorted(curves.items()))


def good_primes(model, primes=GOLDEN_PRIMES):
    disc = compute_invariants(minimal_model(model)).disc
    return [p for p in primes if disc % p]


def image_table():
    """{label: {p: {"image_status", "image_witnesses"}}} at the good p."""
    table = {}
    for label, ainvs in corpus_curves().items():
        model = CurveModel(*ainvs)
        rows = {}
        for p in good_primes(model):
            cert = certify_image(model, p)
            rows[str(p)] = {
                "image_status": cert.status,
                "image_witnesses": [list(w) for w in cert.witnesses],
            }
        table[label] = rows
    return table


def small_models():
    """The distinct minimal models of a1, a3 in {0, 1}, a2 in {-1, 0, 1} and
    |a4|, |a6| <= 3, nonsingular ones only, in the order first met."""
    models = {}
    small = range(-3, 4)
    for ainvs in itertools.product((0, 1), (-1, 0, 1), (0, 1), small, small):
        if discriminant_from_b(*b_invariants(*ainvs)):
            models.setdefault(minimal_model(CurveModel(*ainvs)), None)
    return list(models)


def image_digest(model, p):
    """The sha256 of [status, witnesses, sorted ruled_out, first_unruled] of certify_image."""
    cert = certify_image(model, p)
    image = [cert.status, [list(w) for w in cert.witnesses], sorted(cert.ruled_out), cert.first_unruled]
    return hashlib.sha256(json.dumps(image).encode()).hexdigest()


def small_model_table():
    """{"a1,a2,a3,a4,a6": {p: sha256}} of each small model's image tuple at its good p."""
    return {
        ",".join(map(str, model.ainvs())): {str(p): image_digest(model, p) for p in good_primes(model)}
        for model in small_models()
    }


def curve_with_j(j, d):
    """y^2 = x^3 - 3 j (j - 1728) d^2 x - 2 j (j - 1728)^2 d^3, scaled to
    integers: the twist by d of a curve with j-invariant j (j != 0, 1728)."""
    a4, a6 = -3 * j * (j - 1728) * d * d, -2 * j * (j - 1728) ** 2 * d**3
    u = a4.denominator * a6.denominator
    return CurveModel(0, 0, 0, int(a4 * u**4), int(a6 * u**6))


def isogeny_table():
    """{"a1,a2,a3,a4,a6": {p: sha256}} of the image tuples of the twisted X_0(p) curves at their p."""
    table = {}
    for p, j_of in X0_J.items():
        for t, d in itertools.product(X0_TS, X0_TWISTS):
            j = j_of(t)
            if j in (0, 1728):  # CM
                continue
            model = minimal_model(curve_with_j(j, d))
            inv = compute_invariants(model)
            if inv.disc % p and inv.cm_discriminant() is None:
                table.setdefault(",".join(map(str, model.ainvs())), {})[str(p)] = image_digest(model, p)
    return table


def twists(model):
    """The minimal models of the quadratic twists of model by each d in TWIST_DS."""
    inv = compute_invariants(model)
    return [minimal_model(CurveModel(0, 0, 0, -27 * inv.c4 * d * d, -54 * inv.c6 * d**3)) for d in TWIST_DS]


def small_model_local_table():
    """{"a1,a2,a3,a4,a6": sha256} of the local-data rows of each small model and its twists."""
    table = {}
    for model in small_models():
        rows = [
            [[q, d.kodaira, d.reduction_class, d.c_v, d.val_delta_min, d.conductor_exponent]
             for q, d in local_data(m).items()]
            for m in (model, *twists(model))
        ]
        table[",".join(map(str, model.ainvs()))] = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    return table


def _digests(cert):
    return {
        fmt: hashlib.sha256(to_str(cert).encode()).hexdigest()
        for fmt, to_str in (("json", certificate_to_json), ("text", certificate_to_text))
    }


def fresh_records():
    """The batch_fresh records, as dicts with label, ainvs, p, mw_rank and sha_order."""
    sys.path.insert(0, str(ROOT / "shabench"))
    import inputs

    return [
        {"label": r["label"], "ainvs": list(r["ainvs"]), "p": p,
         "mw_rank": r["mw_rank"], "sha_order": r["sha_order"]}
        for p, records in inputs.fresh_curves(*FRESH_CURVES_ARGS).items()
        for r in records
    ]


def certificate_table():
    """{"corpus"|"fixtures"|"fresh": {label: {p: {"json", "text"}}}} at the good p.

    Corpus curves are analyzed without a record, at every good odd p up to
    97; fixture labels with the record that an offline `shaclass analyze
    --label L` reads; fresh records with themselves as record.
    """
    corpus = {}
    for label, ainvs in corpus_curves().items():
        model = CurveModel(*ainvs)
        corpus[label] = {
            str(p): _digests(analyze(model, p, label=label)) for p in good_primes(model, SWEEP_PRIMES)
        }
    fixtures = {}
    labels = sorted(path.stem for path in packaged_fixtures_dir().glob("*.txt"))
    with tempfile.TemporaryDirectory() as empty_cache:
        config = StoreConfig(fixtures_dir=packaged_fixtures_dir(), cache_dir=Path(empty_cache))
        for label in labels:
            record = fetch_curve_record(label, OFFLINE_ONLY, config)
            model = CurveModel(*record.ainvs)
            fixtures[label] = {
                str(p): _digests(analyze(model, p, record=record, label=label))
                for p in good_primes(model)
            }
    fresh = {}
    for row in json.loads(FRESH_RECORDS_PATH.read_text()):
        record = ExternalCurveRecord(
            label=row["label"],
            ainvs=tuple(row["ainvs"]),
            mw_rank=row["mw_rank"],
            torsion_structure=(),
            sha_order=row["sha_order"],
            sha_structure=None,
        )
        cert = analyze(CurveModel(*record.ainvs), row["p"], record=record, label=record.label)
        fresh[record.label] = {str(row["p"]): _digests(cert)}
    return {"corpus": corpus, "fixtures": fixtures, "fresh": fresh}


def render(table):
    """JSON text with one line per (curve, p), so diffs show each change."""
    blocks = []
    for label, rows in table.items():
        lines = [f"  {json.dumps(p)}: {json.dumps(row)}" for p, row in rows.items()]
        blocks.append(f" {json.dumps(label)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def render_sections(sections):
    """{section: table} as JSON text, each table laid out as render() does."""
    blocks = []
    for name, table in sections.items():
        body = render(table).rstrip("\n").replace("\n", "\n ")
        blocks.append(f" {json.dumps(name)}: {body}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def render_flat(table):
    """{key: value} as JSON text, one line per key."""
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()) + "\n}\n"


def main():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    rows = ",\n".join(f" {json.dumps(row)}" for row in fresh_records())
    FRESH_RECORDS_PATH.write_text(f"[\n{rows}\n]\n")
    GOLDEN_PATH.write_text(render(image_table()))
    SMALL_MODELS_PATH.write_text(render(small_model_table()))
    ISOGENY_PATH.write_text(render(isogeny_table()))
    SMALL_LOCAL_PATH.write_text(render_flat(small_model_local_table()))
    CERTIFICATES_PATH.write_text(render_sections(certificate_table()))
    for path in (FRESH_RECORDS_PATH, GOLDEN_PATH, SMALL_MODELS_PATH, ISOGENY_PATH, SMALL_LOCAL_PATH,
                 CERTIFICATES_PATH):
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
