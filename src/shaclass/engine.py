"""Hypothesis ledgers and the certified two-sided bound.

For a curve E/Q and odd prime p of good reduction, the artifact evaluates
four ledgers (direct theorem, its corollary, the finiteness lemma, and the
converse theorem) and, where applicable, emits per-scenario bounds

    max(0, d - 1)  <=  dim Hom_G(Cl_K / p Cl_K, E[p])  <=  d + #T

with d running over the possible Selmer dimensions and K the p-division
field.  Everything lands in a deterministic, schema-versioned certificate.
"""

from json.encoder import encode_basestring_ascii as _quote

from .curve import classify_good_prime, minimal_model
from .errors import InsufficientData
from .galrep import ASSUMED_BY_USER, CM_CASE, SURJECTIVE_CERTIFIED, UNKNOWN, VACUOUS
from .galrep import DEFAULT_SAMPLE_BOUND, certify_image, wild_ramification_status
from .localred import compute_t_set, local_data, tamagawa_unit_check
from .selmerdata import selmer_rank_scenarios

SCHEMA_VERSION = "shaclass-certificate/1"

MAIN = "Main"
COROLLARY = "Corollary"
LEMMA_FIN = "LemmaFin"
MAIN_CONV = "MainConv"
ALL_THEOREMS = (MAIN, COROLLARY, LEMMA_FIN, MAIN_CONV)

HOLDS = "Holds"
FAILS = "Fails"
UNKNOWN_STATUS = "Unknown"
ASSUMED = "Assumed"

YES = "Yes"
UNKNOWN_ANSWER = "Unknown"

# Condition (b) is printed with a_p = 1 mod p in the direct theorem but with
# a_p != 1 mod p in the finiteness lemma and the converse theorem.  Those two
# forms cannot both be meant; the evaluation below treats the hypothesis as
# vacuous when a_p != 1 mod p (or supersingular), which is the reading every
# worked example relies on, and flags the discrepancy in the certificate.
B_DISCREPANCY_NOTE = (
    "condition (b) appears in two mutually inconsistent printed forms "
    "(wild ramification required when a_p = 1 mod p vs. when a_p != 1 mod p); "
    "all ledgers evaluate it as vacuous for a_p != 1 mod p or supersingular "
    "reduction, and require wild ramification only in the a_p = 1, non-CM case"
)

_B_TEXT_MAIN = (
    "(b) if reduction at p is ordinary with a_p = 1 mod p and the curve has "
    "no CM, then the mod-p representation is wildly ramified at p"
)
_B_TEXT_CONVERSE = (
    "(b) [as printed for this statement] if reduction at p is ordinary with "
    "a_p != 1 mod p, then E[p] is wildly ramified at p"
)
_COROLLARY_NOTE = "conclusion clause (Sha[p] rank / Mordell-Weil rank) evaluated separately"

# (id, printed statement) of each condition, and the four ledgers built from
# them as (theorem, conditions, notes): the Corollary has Main's conditions,
# and the finiteness lemma is the converse theorem without (d).
_A = ("a", "(a) good reduction at p")
_B_MAIN = ("b", _B_TEXT_MAIN)
_B_CONVERSE = ("b", _B_TEXT_CONVERSE)
_C = ("c", "(c) every Tamagawa number c_v, v != p, is prime to p")
_D = ("d", "(d) E[p] is an irreducible Galois module")
_MAIN_CONDITIONS = (_A, _B_MAIN, _C, _D)
_CONVERSE_CONDITIONS = (_A, _B_CONVERSE, _C, _D)
_LEDGER_TABLE = (
    (MAIN, _MAIN_CONDITIONS, ()),
    (COROLLARY, _MAIN_CONDITIONS, (_COROLLARY_NOTE,)),
    (LEMMA_FIN, _CONVERSE_CONDITIONS[:3], (B_DISCREPANCY_NOTE,)),
    (MAIN_CONV, _CONVERSE_CONDITIONS, (B_DISCREPANCY_NOTE,)),
)


def evaluate_hypotheses(model, p, image_status, wild_status, tamagawa_map):
    """The certificate's ledgers: each theorem's printed conditions as
    Holds/Fails/Unknown/Assumed, in _LEDGER_TABLE order.

    Each printed statement has one row dict, shared by every ledger that
    lists it, so Main and the Corollary hold the same rows.  The returned
    document is read-only.
    """
    found = {}
    bad = list(local_data(model))
    if p in bad:
        found["a"] = (FAILS, f"p divides the minimal discriminant (bad primes {bad})")
    else:
        found["a"] = (HOLDS, f"p not among bad primes {bad}")

    status_map = {
        VACUOUS: (HOLDS, "vacuous: supersingular or a_p != 1 mod p"),
        CM_CASE: (HOLDS, "curve has CM; wild ramification need not be assumed"),
        ASSUMED_BY_USER: (ASSUMED, "asserted via galrep.assume_wild_ramification"),
        UNKNOWN: (UNKNOWN_STATUS, "a_p = 1 mod p, no CM, and no certificate for wild ramification"),
    }
    found["b"] = status_map[wild_status]

    if all(tamagawa_map.values()):
        detail = ", ".join(f"c_{q} prime to {p}" for q in sorted(tamagawa_map))
        found["c"] = (HOLDS, detail or "no bad primes besides p")
    else:
        offenders = sorted(q for q, ok in tamagawa_map.items() if not ok)
        found["c"] = (FAILS, f"p divides c_v for v in {offenders}")

    if image_status == SURJECTIVE_CERTIFIED:
        found["d"] = (HOLDS, "mod-p image certified surjective; the standard module is irreducible")
    else:
        found["d"] = (UNKNOWN_STATUS, f"image certificate status: {image_status}")

    rows = {}
    for condition in (_A, _B_MAIN, _B_CONVERSE, _C, _D):
        cid, statement = condition
        status, evidence = found[cid]
        rows[condition] = {
            "id": cid,
            "statement": statement,
            "status": status,
            "evidence": evidence,
        }
    ledgers = {}
    for theorem, conditions, notes in _LEDGER_TABLE:
        ledgers[theorem] = {
            "applicable": all(found[cid][0] in (HOLDS, ASSUMED) for cid, _ in conditions),
            "conditions": [rows[condition] for condition in conditions],
            "notes": list(notes),
        }
    return ledgers


def apply_corollary(mw_rank, scenario, assume_sha_finite=True):
    """Does an unramified abelian extension of K with group E[p] exist?

    Asked only when the Main ledger applies and a Selmer scenario exists.
    Yes when mw_rank >= 2, or when every Sha[p] rank of the scenario is at
    least 2; under finiteness a nonzero Sha[p] has even rank, so 1 will do.
    """
    if mw_rank >= 2 or all(r >= 2 or (r >= 1 and assume_sha_finite) for r in scenario.sha_ranks):
        return YES
    return UNKNOWN_ANSWER


def analyze(
    model,
    p,
    record=None,
    sample_bound=DEFAULT_SAMPLE_BOUND,
    assume_wild_ramification=False,
    assume_sha_finite=True,
    label=None,
):
    """Full pipeline for one curve and prime; record may be None (degraded).

    Returns the certificate as its JSON document: a dict of JSON-native values.
    """
    profile = classify_good_prime(model, p)
    image_cert = certify_image(model, p, sample_bound)
    wild = wild_ramification_status(profile, assume_wild_ramification)
    local = local_data(model)
    tmap = tamagawa_unit_check(model, p)
    t_set = compute_t_set(model, p)
    ledgers = evaluate_hypotheses(model, p, image_cert.status, wild, tmap)

    scenario = None
    if record is not None:
        try:
            scenario = selmer_rank_scenarios(
                record, p, image_cert.status == SURJECTIVE_CERTIFIED, assume_sha_finite
            )
        except InsufficientData:
            scenario = None

    assumptions = []
    notes = [B_DISCREPANCY_NOTE]
    if wild == ASSUMED_BY_USER:
        assumptions.append("wild ramification at p assumed by user flag")
    if assume_sha_finite:
        assumptions.append("Sha[p^infinity] assumed finite (even Sha[p]-rank)")
    if scenario is not None:
        notes.extend(scenario.notes)

    # Per-scenario bounds max(0, d - 1) <= dim Hom_G(Cl_K/pCl_K, E[p]) <= d + #T,
    # each side only under its own applicable ledger.
    lower = upper = None
    equality = False
    corollary_answer = UNKNOWN_ANSWER
    if scenario is not None and ledgers[MAIN]["applicable"]:
        lower = {d: max(0, d - 1) for d in scenario.possible_dims}
        corollary_answer = apply_corollary(record.mw_rank, scenario, assume_sha_finite)
    if scenario is not None and ledgers[MAIN_CONV]["applicable"]:
        upper = {d: d + len(t_set) for d in scenario.possible_dims}
        equality = not t_set
    if lower is not None and upper is not None:
        for d in lower:
            if lower[d] > upper[d]:
                raise ArithmeticError(f"lower bound {lower[d]} exceeds upper bound {upper[d]}")

    return {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "ainvs": list(model.ainvs()),
        "minimal_ainvs": list(minimal_model(model).ainvs()),
        "p": p,
        "a_p": profile.a_p,
        "reduction_kind": profile.reduction_kind,
        "alpha_p_mod_p": profile.alpha_p_mod_p,
        "image_status": image_cert.status,
        "image_witnesses": [list(w) for w in image_cert.witnesses],
        "wild_ramification": wild,
        "local_data": {
            str(q): {
                "kodaira": d.kodaira,
                "reduction_class": d.reduction_class,
                "c_v": d.c_v,
                "val_delta_min": d.val_delta_min,
                "conductor_exponent": d.conductor_exponent,
            }
            for q, d in local.items()
        },
        "tamagawa_unit_check": {str(q): v for q, v in tmap.items()},
        "t_set": {
            "members": sorted(t_set),
            "provisional_members": [],
        },
        "selmer": None
        if scenario is None
        else {
            "possible_dims": list(scenario.possible_dims),
            "reasoning": list(scenario.reasoning),
            "provenance": record.provenance,
        },
        "ledgers": ledgers,
        "bounds": None
        if lower is None and upper is None
        else {
            str(d): {
                "lower": None if lower is None else lower.get(d),
                "upper": None if upper is None else upper.get(d),
            }
            for d in scenario.possible_dims
        },
        "unramified_extension_exists": corollary_answer,
        "equality_note": equality,
        "assumptions": assumptions,
        "notes": notes,
    }


# --- serialization -------------------------------------------------------


def certificate_to_json(doc):
    """The bytes of json.dumps(doc, indent=2) + "\n", written without the
    pure-Python encoder that indent makes CPython fall back to.

    Only dict (str keys), list, str, int, bool and None are written; any other
    value, a float or tuple among them, raises TypeError.  A container that
    the document lists more than once at one depth, such as a ledger row, is
    written once and its pieces copied after that.
    """
    out = []
    _write(doc, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _write(value, newline, out, written):
    """Append value's pieces to out.  written maps (id, indentation) of each
    container already written as a list item to its slice of out."""
    add = out.append
    if isinstance(value, list):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            add(sep)
            sep = "," + inner
            kind = type(item)
            if kind is str:
                add(_quote(item))
            elif kind is int:
                add(int.__repr__(item))
            elif kind is dict or kind is list:
                key = (id(item), len(inner))
                piece = written.get(key)
                if piece is None:
                    start = len(out)
                    _write(item, inner, out, written)
                    written[key] = (start, len(out))
                else:
                    out.extend(out[piece[0] : piece[1]])
            else:
                _write(item, inner, out, written)
        add(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"certificate key {key!r} is not a str")
            kind = type(item)
            if kind is str:
                add(sep + _quote(key) + ": " + _quote(item))
            elif kind is int:
                add(sep + _quote(key) + ": " + int.__repr__(item))
            else:
                add(sep + _quote(key) + ": ")
                _write(item, inner, out, written)
            sep = "," + inner
        add(newline + "}" if value else "{}")
    elif isinstance(value, str):
        add(_quote(value))
    elif value is None:
        add("null")
    elif value is True:
        add("true")
    elif value is False:
        add("false")
    elif isinstance(value, int):
        add(int.__repr__(value))
    else:
        raise TypeError(f"{type(value).__name__} is not a certificate value")


def certificate_to_text(doc):
    lines = []
    add = lines.append
    add(f"curve {doc['label'] or doc['ainvs']}  p = {doc['p']}")
    add(f"  model: {doc['ainvs']}   minimal: {doc['minimal_ainvs']}")
    add(
        f"  reduction at p: {doc['reduction_kind']}, a_p = {doc['a_p']}"
        + (
            f", unit root = {doc['alpha_p_mod_p']} mod {doc['p']}"
            if doc["alpha_p_mod_p"] is not None
            else ""
        )
    )
    add(f"  mod-p image: {doc['image_status']}")
    add(f"  wild ramification hypothesis: {doc['wild_ramification']}")
    add("  local data:")
    for q, d in doc["local_data"].items():
        add(
            f"    v = {q}: {d['kodaira']} ({d['reduction_class']}), c_v = {d['c_v']},"
            f" v(disc) = {d['val_delta_min']}, f = {d['conductor_exponent']}"
        )
    add(f"  Tamagawa unit check: {doc['tamagawa_unit_check']}")
    add(f"  T = {doc['t_set']['members']}")
    if doc["selmer"]:
        add(
            f"  Selmer dim scenarios: {doc['selmer']['possible_dims']} "
            f"[{doc['selmer']['provenance']}]"
        )
        for dim, reason in zip(doc["selmer"]["possible_dims"], doc["selmer"]["reasoning"]):
            add(f"    dim {dim}: {reason}")
    else:
        add("  Selmer dim scenarios: unavailable (no arithmetic record)")
    add("  ledgers:")
    for tid in ALL_THEOREMS:
        led = doc["ledgers"][tid]
        flag = "applicable" if led["applicable"] else "NOT applicable"
        add(f"    {tid}: {flag}")
        for c in led["conditions"]:
            add(f"      ({c['id']}) {c['status']}: {c['evidence']}")
    if doc["bounds"]:
        add("  bounds on dim Hom_G(Cl_K/pCl_K, E[p]) per scenario:")
        for d, b in doc["bounds"].items():
            lo = "?" if b["lower"] is None else b["lower"]
            hi = "?" if b["upper"] is None else b["upper"]
            add(f"    Selmer dim {d}: {lo} <= dim Hom <= {hi}")
    else:
        add("  bounds: not emitted")
    add(f"  unramified abelian extension with group E[p]: {doc['unramified_extension_exists']}")
    if doc["equality_note"]:
        add("  T empty: dim Hom_G equals the dimension of the everywhere-unramified subgroup of Sel_p")
    if doc["assumptions"]:
        add("  assumptions:")
        for a in doc["assumptions"]:
            add(f"    - {a}")
    if doc["notes"]:
        add("  notes:")
        for nt in doc["notes"]:
            add(f"    - {nt}")
    return "\n".join(lines) + "\n"
