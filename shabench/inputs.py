"""Seeded inputs of the three workloads.

Everything here is computed by the benchmark itself, with its own
discriminant and prime helpers, so the program under test never chooses
its own inputs.  The same seed gives the same inputs.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

CLI_PRIMES = (5, 7)
BATCH_PRIMES = (5, 7, 11, 13)
SWEEP_PRIME_LIMIT = 97

# Warm-up jobs lie outside every measured set.
CLI_WARMUP = ("389a1", 11)
SWEEP_WARMUP = ((0, 0, 0, -2, 3), 3)  # non-CM, good at 3: runs the sympy quartic

# Synthetic curves y^2 = x^3 + a4 x + a6 with |a4| <= 10^A4_DIGITS and
# |a6| <= 10^A6_DIGITS, log-uniform.  The discriminant stays below about
# 10^23, so the cofactor left after trial division to 10^6 is far below
# 2^128 and Pollard rho, when needed, meets factors of at most about 10^11.
A4_DIGITS = 7
A6_DIGITS = 10
SHA_ORDERS = (1, 1, 1, 4, 9, 25, 49)
MW_RANKS = (0, 0, 1, 1, 2)

# j-invariants of the thirteen CM orders of class number one.
CM_J = frozenset(
    Fraction(j)
    for j in (
        0, 1728, -3375, 8000, -32768, 54000, 287496, -884736, -12288000,
        16581375, -884736000, -147197952000, -262537412640768000,
    )
)


def discriminant(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def odd_primes_up_to(limit):
    return [n for n in range(3, limit + 1, 2) if all(n % d for d in range(3, int(n**0.5) + 1, 2))]


def digest(obj):
    """SHA-256 of the canonical JSON form of obj."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --- cli_cold -------------------------------------------------------------


def fixture_curves(fixtures_dir):
    """{label: ainvs} from the packaged fixture records."""
    curves = {}
    for path in sorted(Path(fixtures_dir).glob("*.txt")):
        fields = dict(
            (k.strip(), v.strip())
            for k, _, v in (line.partition("=") for line in path.read_text().splitlines())
            if _
        )
        if fields.get("ainvs"):
            curves[fields["label"]] = tuple(int(s) for s in fields["ainvs"].split(","))
    return curves


def cli_pairs(fixtures_dir, seed):
    """Every (label, p) with p in CLI_PRIMES of good reduction, in seeded order."""
    pairs = [
        (label, p)
        for label, ainvs in sorted(fixture_curves(fixtures_dir).items())
        for p in CLI_PRIMES
        if discriminant(*ainvs) % p
    ]
    random.Random(seed).shuffle(pairs)
    return pairs


# --- corpus_sweep ---------------------------------------------------------


def corpus_curves(data_dir):
    """{label: ainvs} over the Tate and image corpora."""
    curves = {}
    for name in ("tate_corpus.json", "image_corpus.json"):
        for label, entry in json.loads((Path(data_dir) / name).read_text()).items():
            curves[label] = tuple(entry["ainvs"])
    return curves


def sweep_jobs(curves, seed):
    """Every (label, p) with p an odd prime <= 97 of good reduction, in seeded order.

    The order is round-robin over the curves, each round in a fresh seeded
    order and each curve's primes shuffled: every stretch of ~100 jobs then
    holds about the same mix of curves (CM or not), while every curve still
    recurs at all its primes within a pass.
    """
    rng = random.Random(seed)
    queues = {
        label: rng.sample(good, len(good))
        for label, ainvs in sorted(curves.items())
        for good in [[p for p in odd_primes_up_to(SWEEP_PRIME_LIMIT) if discriminant(*ainvs) % p]]
    }
    jobs = []
    while queues:
        labels = sorted(queues)
        rng.shuffle(labels)
        for label in labels:
            jobs.append((label, queues[label].pop()))
            if not queues[label]:
                del queues[label]
    return jobs


# --- batch_fresh ----------------------------------------------------------


def _non_cm(a4, a6):
    return Fraction(6912 * a4**3, 4 * a4**3 + 27 * a6 * a6) not in CM_J


def _synthetic(rng, label, p, strata=None, good=True):
    """A non-CM record y^2 = x^3 + a4 x + a6 with good (or bad) reduction at p >= 5.

    log10|a4| and log10|a6| are uniform on [0, A4_DIGITS] and [0, A6_DIGITS],
    or on the given strata: (i, j, n) draws them from the i-th and j-th of n
    equal slices of those ranges.
    """
    i, j, n = strata or (0, 0, 1)
    while True:
        a4 = rng.choice((-1, 1)) * int(10 ** (A4_DIGITS * (i + rng.random()) / n))
        a6 = rng.choice((-1, 1)) * int(10 ** (A6_DIGITS * (j + rng.random()) / n))
        disc = discriminant(0, 0, 0, a4, a6)
        if disc == 0 or not _non_cm(a4, a6):
            continue
        # the model is minimal at p unless p^4 | a4 and p^6 | a6
        minimal_at_p = a4 % p**4 or a6 % p**6
        if (disc % p != 0) if good else (disc % p == 0 and minimal_at_p):
            return {
                "label": label,
                "ainvs": (0, 0, 0, a4, a6),
                "mw_rank": rng.choice(MW_RANKS),
                "sha_order": rng.choice(SHA_ORDERS),
            }


def fresh_curves(seed, per_prime, block):
    """{p: [record, ...]}: per_prime synthetic records of good reduction at each p.

    The magnitudes are stratified: each run of `block` consecutive records
    is a Latin hypercube over log|a4| x log|a6|, so every batch of that size
    covers the size range evenly and seeds differ in the curves, not in how
    large they are.  A record is a dict with label, ainvs, mw_rank and
    sha_order.  Labels are unique within the set and have Cremona form.
    """
    rng = random.Random(f"batch_fresh/{seed}")
    labels = (f"{n}z1" for n in range(100000, 10**9))
    out = {p: [] for p in BATCH_PRIMES}
    for p in BATCH_PRIMES:
        for first in range(0, per_prime, block):
            n = min(block, per_prime - first)
            rows, cols = list(range(n)), list(range(n))
            rng.shuffle(rows)
            rng.shuffle(cols)
            out[p].extend(_synthetic(rng, next(labels), p, (i, j, n)) for i, j in zip(rows, cols))
    return out


def warmup_curve(seed):
    """A record outside the measured pool, good at 5."""
    return _synthetic(random.Random(f"warmup/{seed}"), "99998z1", 5)


def bad_curve(seed, p):
    """A record whose minimal model has bad reduction at p."""
    return _synthetic(random.Random(f"bad/{seed}/{p}"), "99999z1", p, good=False)


def fixture_text(record):
    """The record in the program's flat `key = value` fixture format."""
    return (
        f"label = {record['label']}\n"
        f"ainvs = {','.join(str(a) for a in record['ainvs'])}\n"
        f"mw_rank = {record['mw_rank']}\n"
        "torsion_structure = \n"
        f"sha_order = {record['sha_order']}\n"
    )


def write_fixtures(directory, records):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for record in records:
        (directory / f"{record['label']}.txt").write_text(fixture_text(record))
