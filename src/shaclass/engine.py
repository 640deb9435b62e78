"""Hypothesis ledgers and the certified two-sided bound.

For a curve E/Q and odd prime p of good reduction, the artifact evaluates
four ledgers (direct theorem, its corollary, the finiteness lemma, and the
converse theorem) and, where applicable, emits per-scenario bounds

    max(0, d - 1)  <=  dim Hom_G(Cl_K / p Cl_K, E[p])  <=  d + #T

with d running over the possible Selmer dimensions and K the p-division
field.  Everything lands in a deterministic, schema-versioned certificate.
"""

from json.encoder import encode_basestring_ascii as _quote

from .curve import compute_invariants, minimal_model, trace_of_frobenius
from .errors import InsufficientData
from .galrep import SURJECTIVE_CERTIFIED, certify_image
from .localred import compute_t_set, local_data, tamagawa_unit_check
from .selmerdata import selmer_rank_scenarios

SCHEMA_VERSION = "shaclass-certificate/1"

MAIN = "Main"
COROLLARY = "Corollary"
LEMMA_FIN = "LemmaFin"
MAIN_CONV = "MainConv"

HOLDS = "Holds"
FAILS = "Fails"
UNKNOWN_STATUS = "Unknown"
ASSUMED = "Assumed"

YES = "Yes"
UNKNOWN_ANSWER = "Unknown"

ORDINARY = "ordinary"
SUPERSINGULAR = "supersingular"

# the status of (b), wild ramification at p; the fourth is UNKNOWN_STATUS
VACUOUS = "Vacuous"
CM_CASE = "CMCase"
ASSUMED_BY_USER = "AssumedByUser"

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
# them as (theorem, conditions, condition ids, notes): the Corollary has
# Main's conditions, and the finiteness lemma is the converse theorem without (d).
_A = ("a", "(a) good reduction at p")
_B_MAIN = ("b", _B_TEXT_MAIN)
_B_CONVERSE = ("b", _B_TEXT_CONVERSE)
_C = ("c", "(c) every Tamagawa number c_v, v != p, is prime to p")
_D = ("d", "(d) E[p] is an irreducible Galois module")
_MAIN_CONDITIONS = (_A, _B_MAIN, _C, _D)
_CONVERSE_CONDITIONS = (_A, _B_CONVERSE, _C, _D)
_LEDGER_TABLE = tuple(
    (theorem, conditions, frozenset(cid for cid, _ in conditions), notes)
    for theorem, conditions, notes in (
        (MAIN, _MAIN_CONDITIONS, ()),
        (COROLLARY, _MAIN_CONDITIONS, (_COROLLARY_NOTE,)),
        (LEMMA_FIN, _CONVERSE_CONDITIONS[:3], (B_DISCREPANCY_NOTE,)),
        (MAIN_CONV, _CONVERSE_CONDITIONS, (B_DISCREPANCY_NOTE,)),
    )
)

# (status, evidence) of the (b) row for each wild-ramification status
_B_ROW = {
    VACUOUS: (HOLDS, "vacuous: supersingular or a_p != 1 mod p"),
    CM_CASE: (HOLDS, "curve has CM; wild ramification need not be assumed"),
    ASSUMED_BY_USER: (ASSUMED, "asserted via galrep.assume_wild_ramification"),
    UNKNOWN_STATUS: (UNKNOWN_STATUS, "a_p = 1 mod p, no CM, and no certificate for wild ramification"),
}


def wild_ramification_status(a_p, p, cm_discriminant, assume_wild_ramification=False):
    """Status of (b), wild ramification at the odd good prime p.

    Vacuous unless a_p = 1 mod p (a supersingular a_p = 0 mod p is not);
    CMCase when the curve has complex multiplication; AssumedByUser only
    under the explicit flag; otherwise Unknown, and (b) stays unestablished.
    """
    if a_p % p != 1:
        return VACUOUS
    if cm_discriminant is not None:
        return CM_CASE
    return ASSUMED_BY_USER if assume_wild_ramification else UNKNOWN_STATUS


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

    found["b"] = _B_ROW[wild_status]

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
    met = {cid for cid, (status, _) in found.items() if status in (HOLDS, ASSUMED)}
    ledgers = {}
    for theorem, conditions, ids, notes in _LEDGER_TABLE:
        ledgers[theorem] = {
            "applicable": ids <= met,
            "conditions": [rows[condition] for condition in conditions],
            "notes": list(notes),
        }
    return ledgers


def apply_corollary(mw_rank, scenario):
    """Does an unramified abelian extension of K with group E[p] exist?

    Asked only when the Main ledger applies and a Selmer scenario exists.
    Yes when mw_rank >= 2, or when every Sha[p] rank of the scenario is at
    least 2.
    """
    if mw_rank >= 2 or all(r >= 2 for r in scenario.sha_ranks):
        return YES
    return UNKNOWN_ANSWER


def analyze(
    model,
    p,
    record=None,
    assume_wild_ramification=False,
    assume_sha_finite=True,
    label=None,
):
    """Full pipeline for one curve and prime; record may be None (degraded).

    Returns the certificate as its JSON document: a dict of JSON-native values.
    """
    a_p = trace_of_frobenius(model, p)
    cm = compute_invariants(model).cm_discriminant()
    image_cert = certify_image(model, p)
    wild = wild_ramification_status(a_p, p, cm, assume_wild_ramification)
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
    main = scenario is not None and ledgers[MAIN]["applicable"]
    converse = scenario is not None and ledgers[MAIN_CONV]["applicable"]
    bounds = None
    if main or converse:
        bounds = {}
        for d in scenario.possible_dims:
            lower = max(0, d - 1) if main else None
            upper = d + len(t_set) if converse else None
            if main and converse and lower > upper:
                raise ArithmeticError(f"lower bound {lower} exceeds upper bound {upper}")
            bounds[str(d)] = {"lower": lower, "upper": upper}

    return {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "ainvs": list(model.ainvs()),
        "minimal_ainvs": list(minimal_model(model).ainvs()),
        "p": p,
        "a_p": a_p,
        "reduction_kind": ORDINARY if a_p % p else SUPERSINGULAR,
        "alpha_p_mod_p": a_p % p or None,
        "image_status": image_cert.status,
        "image_witnesses": [list(w) for w in image_cert.witnesses],
        "wild_ramification": wild,
        "local_data": {str(q): d._asdict() for q, d in local.items()},
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
        "bounds": bounds,
        "unramified_extension_exists": apply_corollary(record.mw_rank, scenario) if main else UNKNOWN_ANSWER,
        "equality_note": converse and not t_set,
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
    """Append value's pieces to out, each scalar item in one piece with its
    separator (and key).  written maps (id, indentation) of each container
    already written as a list item to its slice of out."""
    add = out.append
    if isinstance(value, list):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                add(f"{sep}{_quote(item)}")
            elif kind is int:
                add(f"{sep}{item}")
            elif kind is dict or kind is list:
                add(sep)
                key = (id(item), len(inner))
                piece = written.get(key)
                if piece is None:
                    start = len(out)
                    _write(item, inner, out, written)
                    written[key] = (start, len(out))
                else:
                    out.extend(out[piece[0] : piece[1]])
            else:
                add(sep)
                _write(item, inner, out, written)
            sep = "," + inner
        add(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"certificate key {key!r} is not a str")
            kind = type(item)
            if kind is str:
                add(f"{sep}{_quote(key)}: {_quote(item)}")
            elif kind is int:
                add(f"{sep}{_quote(key)}: {item}")
            elif item is None:
                add(f"{sep}{_quote(key)}: null")
            elif kind is bool:
                add(f"{sep}{_quote(key)}: {'true' if item else 'false'}")
            else:
                add(f"{sep}{_quote(key)}: ")
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
    for tid, led in doc["ledgers"].items():
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
