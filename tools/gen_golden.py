#!/usr/bin/env python3
"""Regenerate the golden files under tests/data/golden/.

image_witnesses.json: for every curve of tests/data/{tate,image}_corpus.json
and every prime p in GOLDEN_PRIMES of good reduction, the image status and
the Frobenius witnesses that certify_image returns.  tests/test_galrep.py
requires the library to reproduce it exactly.

certificates.json: the sha256 of certificate_to_json and of
certificate_to_text for the same corpus (label, p) pairs, and for each
packaged fixture label analyzed with its offline record at each good p in
GOLDEN_PRIMES.  Digests stand in for the texts, which would come to more than
0.9 MB.  tests/test_engine.py requires the library to reproduce them.

A change that alters a certificate therefore shows up as a diff of one of
these files.

Usage: python3 tools/gen_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from shaclass.curve import CurveModel, compute_invariants, minimal_model  # noqa: E402
from shaclass.engine import analyze, certificate_to_json, certificate_to_text  # noqa: E402
from shaclass.galrep import certify_image  # noqa: E402
from shaclass.selmerdata import (  # noqa: E402
    OFFLINE_ONLY,
    StoreConfig,
    fetch_curve_record,
    packaged_fixtures_dir,
)

DATA_DIR = ROOT / "tests" / "data"
GOLDEN_PATH = DATA_DIR / "golden" / "image_witnesses.json"
CERTIFICATES_PATH = DATA_DIR / "golden" / "certificates.json"
GOLDEN_PRIMES = (3, 5, 7, 11, 13)


def corpus_curves():
    """{label: ainvs} over both corpora (shared labels have equal ainvs)."""
    curves = {}
    for name in ("tate_corpus.json", "image_corpus.json"):
        for label, entry in json.loads((DATA_DIR / name).read_text()).items():
            curves[label] = entry["ainvs"]
    return dict(sorted(curves.items()))


def good_primes(model):
    disc = compute_invariants(minimal_model(model)).disc
    return [p for p in GOLDEN_PRIMES if disc % p]


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


def _digests(cert):
    return {
        fmt: hashlib.sha256(to_str(cert).encode()).hexdigest()
        for fmt, to_str in (("json", certificate_to_json), ("text", certificate_to_text))
    }


def certificate_table():
    """{"corpus"|"fixtures": {label: {p: {"json", "text"}}}} at the good p.

    Corpus curves are analyzed without a record; fixture labels with the
    record that an offline `shaclass analyze --label L` reads.
    """
    corpus = {}
    for label, ainvs in corpus_curves().items():
        model = CurveModel(*ainvs)
        corpus[label] = {
            str(p): _digests(analyze(model, p, label=label)) for p in good_primes(model)
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
    return {"corpus": corpus, "fixtures": fixtures}


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


def main():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(render(image_table()))
    CERTIFICATES_PATH.write_text(render_sections(certificate_table()))
    for path in (GOLDEN_PATH, CERTIFICATES_PATH):
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
