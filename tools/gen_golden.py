#!/usr/bin/env python3
"""Regenerate tests/data/golden/image_witnesses.json.

For every curve of tests/data/{tate,image}_corpus.json and every prime
p in GOLDEN_PRIMES of good reduction, records the image status and the
Frobenius witnesses that certify_image returns.  tests/test_galrep.py
requires the library to reproduce the file exactly, so a change to the
image scan that alters a certificate shows up as a diff of this file.

Usage: python3 tools/gen_golden.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from shaclass.curve import CurveModel, compute_invariants, minimal_model  # noqa: E402
from shaclass.galrep import certify_image  # noqa: E402

DATA_DIR = ROOT / "tests" / "data"
GOLDEN_PATH = DATA_DIR / "golden" / "image_witnesses.json"
GOLDEN_PRIMES = (3, 5, 7)


def corpus_curves():
    """{label: ainvs} over both corpora (shared labels have equal ainvs)."""
    curves = {}
    for name in ("tate_corpus.json", "image_corpus.json"):
        for label, entry in json.loads((DATA_DIR / name).read_text()).items():
            curves[label] = entry["ainvs"]
    return dict(sorted(curves.items()))


def image_table():
    """{label: {p: {"image_status", "image_witnesses"}}} at the good p."""
    table = {}
    for label, ainvs in corpus_curves().items():
        model = CurveModel(*ainvs)
        disc = compute_invariants(minimal_model(model)).disc
        rows = {}
        for p in GOLDEN_PRIMES:
            if disc % p == 0:
                continue
            cert = certify_image(model, p)
            rows[str(p)] = {
                "image_status": cert.status,
                "image_witnesses": [list(w) for w in cert.witnesses],
            }
        table[label] = rows
    return table


def render(table):
    """JSON text with one line per (curve, p), so diffs show each change."""
    blocks = []
    for label, rows in table.items():
        lines = [f"  {json.dumps(p)}: {json.dumps(row)}" for p, row in rows.items()]
        blocks.append(f" {json.dumps(label)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(render(image_table()))
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
