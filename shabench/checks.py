"""Correctness checks on certificates.

Each check returns True, or a string that says why the certificate fails.
The oracle checks read the committed corpora, which were built
independently of the code under test.
"""

import json

SURJECTIVE = "SurjectiveCertified"


def check_certificate(text, label, p):
    """The certificate parses, answers the request and obeys the invariants."""
    try:
        doc = json.loads(text)
    except ValueError as err:
        return f"unparsable certificate: {err}"
    if not isinstance(doc, dict):
        return "certificate is not a JSON object"
    if doc.get("p") != p:
        return f"p = {doc.get('p')!r}, requested {p}"
    if doc.get("label") != label:
        return f"label = {doc.get('label')!r}, requested {label!r}"
    a_p = doc.get("a_p")
    if not isinstance(a_p, int) or a_p * a_p > 4 * p:
        return f"a_p = {a_p!r} violates the Hasse bound at {p}"
    for dim, bound in (doc.get("bounds") or {}).items():
        lower, upper = bound.get("lower"), bound.get("upper")
        if lower is not None and upper is not None and lower > upper:
            return f"scenario {dim}: lower {lower} > upper {upper}"
    return True


def check_oracles(text, label, p, image_corpus, tate_corpus):
    """image_status against image_corpus.json; Kodaira symbols and c_v against tate_corpus.json."""
    doc = json.loads(text)
    entry = image_corpus.get(label)
    if entry is not None and entry["p"] == p:
        surjective = doc.get("image_status") == SURJECTIVE
        if surjective != (entry["image"] == "full"):
            return f"image_status {doc.get('image_status')} but the corpus says {entry['image']}"
    entry = tate_corpus.get(label)
    if entry is not None:
        local = doc.get("local_data") or {}
        if set(local) != set(entry["local"]):
            return f"bad primes {sorted(local)}, corpus {sorted(entry['local'])}"
        for q, expected in entry["local"].items():
            got = local[q]
            if got.get("kodaira") != expected["kodaira"] or got.get("c_v") != expected["c"]:
                return (
                    f"at {q}: {got.get('kodaira')}, c_v = {got.get('c_v')}; "
                    f"corpus {expected['kodaira']}, c_v = {expected['c']}"
                )
    return True
