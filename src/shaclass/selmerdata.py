"""External arithmetic data: Mordell-Weil rank, Sha, torsion.

Records come from a remote curve database (HTTPS, JSON), from committed
fixture files, or from user-supplied overrides.  Fixture and cache files
use one flat key = value document per label, so offline runs are fully
deterministic and byte-stable.
"""

import json
import math
import os
import re
import time
from pathlib import Path
from typing import NamedTuple

from .arith import ascii_int, require_odd_prime, valuation
from .errors import FixtureMissing, InsufficientData, InvalidInput, NetworkError
from .errors import NotFound, SchemaDrift

REMOTE_DATABASE = "RemoteDatabase"
LOCAL_FIXTURE = "LocalFixture"
USER_SUPPLIED = "UserSupplied"

REMOTE_FIRST = "RemoteFirst"
OFFLINE_ONLY = "OfflineOnly"

OFFLINE_ENV = "SHACLASS_OFFLINE"
CACHE_DIR_ENV = "SHACLASS_CACHE_DIR"

LABEL_RE = re.compile(r"[0-9]+\.?[a-z]+[0-9]+")  # Cremona (1058d1) or LMFDB (1058.d1), ASCII digits only
_SHA_RANK_KEY_RE = re.compile(r"sha_rank_[0-9]+")  # the F_p-rank of Sha[p], ASCII digits only

DEFAULT_BASE_URL = "https://www.lmfdb.org/api/shaclass_curve_records"
DEFAULT_TIMEOUT = 10.0

_REQUIRED_REMOTE_FIELDS = ("label", "ainvs", "rank", "torsion_structure")

# E(Q)_tors as invariant factors n1 | n2: Z/n for n <= 10 or n = 12, and
# Z/2 x Z/2n for n <= 4, and nothing else (Mazur, Publ. Math. IHES 47, 1977)
MAZUR_TORSION = frozenset(
    [(), *((n,) for n in (*range(1, 11), 12)), *((2, 2 * n) for n in range(1, 5))]
)


def valid_label(label):
    return LABEL_RE.fullmatch(label) is not None


class _RecordFields(NamedTuple):
    label: str
    ainvs: tuple | None
    mw_rank: int
    torsion_structure: tuple
    sha_order: int | None
    sha_structure: tuple | None  # invariant factors of Sha, when known
    sha_p_ranks: tuple = ()  # ((p, rank), ...) for primes where only Sha[p] is known
    provenance: str = LOCAL_FIXTURE
    retrieved_at: str = ""


class ExternalCurveRecord(_RecordFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mw_rank < 0:
            raise InvalidInput("mw_rank must be nonnegative")
        if self.sha_order is not None and self.sha_order <= 0:
            raise InvalidInput("sha_order must be positive")
        if tuple(self.torsion_structure) not in MAZUR_TORSION:
            raise InvalidInput(
                f"torsion_structure {self.torsion_structure} is no torsion group over Q: "
                "Mazur's list is Z/n (n <= 10 or 12) and Z/2 x Z/2n (n <= 4)"
            )
        if self.sha_structure is not None and min(self.sha_structure, default=1) < 1:
            raise InvalidInput(f"sha_structure {self.sha_structure} has a factor below 1")
        if self.sha_structure is not None and self.sha_order is not None:
            if math.prod(self.sha_structure) != self.sha_order:
                raise InvalidInput(
                    f"sha_structure {self.sha_structure} does not match order {self.sha_order}"
                )
        if len({p for p, _ in self.sha_p_ranks}) < len(self.sha_p_ranks):
            raise InvalidInput(f"sha_p_ranks {self.sha_p_ranks} give more than one rank for one p")
        for p, r in self.sha_p_ranks:
            if p < 2 or r < 0:
                raise InvalidInput(f"sha_rank_{p} = {r} needs p >= 2 and a nonnegative rank")
            # r is at most v_p(#Sha), 0 only if p does not divide #Sha, and the count of p-parts
            v = None if self.sha_order is None else valuation(self.sha_order, p)
            held = None if self.sha_structure is None else sum(t % p == 0 for t in self.sha_structure)
            if v is not None and (r > v or r == 0 < v) or held not in (None, r):
                raise InvalidInput(
                    f"sha_rank_{p} = {r} contradicts sha_order {self.sha_order}, "
                    f"sha_structure {self.sha_structure}"
                )
        return self

    def _replace(self, **changes):
        # tuple's _replace skips __new__, and with it the checks above
        return ExternalCurveRecord(**{**self._asdict(), **changes})

    def sha_p_rank(self, p):
        """F_p-rank of Sha[p] when determined by the record, else None."""
        for q, r in self.sha_p_ranks:
            if q == p:
                return r
        if self.sha_structure is not None:
            return sum(1 for t in self.sha_structure if t % p == 0)
        if self.sha_order is not None and self.sha_order % p != 0:
            return 0
        return None


class SelmerScenario(NamedTuple):
    possible_dims: tuple
    reasoning: tuple
    sha_ranks: tuple  # the F_p-rank of Sha[p] behind each of possible_dims
    notes: tuple = ()


class StoreConfig:
    def __init__(self, fixtures_dir, cache_dir, base_url=DEFAULT_BASE_URL):
        self.fixtures_dir = fixtures_dir
        self.cache_dir = cache_dir  # None: no dir given and no home directory, so fixtures only
        self.base_url = base_url
        # the error of the first remote fetch through this config that ended
        # in NetworkError; later fetches through it fail at once with that error
        self.unreachable = []


def packaged_fixtures_dir():
    return Path(__file__).resolve().parent / "fixtures"


def default_config(cache_dir=None, fixtures_dir=None, base_url=None):
    if cache_dir is None:
        try:
            cache_dir = os.environ.get(CACHE_DIR_ENV) or Path.home() / ".cache" / "shaclass"
        except RuntimeError:  # no HOME and no passwd entry for the uid
            pass
    return StoreConfig(
        fixtures_dir=Path(fixtures_dir) if fixtures_dir else packaged_fixtures_dir(),
        cache_dir=Path(cache_dir) if cache_dir else None,
        base_url=base_url or DEFAULT_BASE_URL,
    )


# --- flat key = value serialization -------------------------------------


def render_record_text(record):
    def ints(seq):
        return ",".join(str(x) for x in seq)

    lines = [f"label = {record.label}"]
    if record.ainvs is not None:
        lines.append(f"ainvs = {ints(record.ainvs)}")
    lines.append(f"mw_rank = {record.mw_rank}")
    lines.append(f"torsion_structure = {ints(record.torsion_structure)}")
    if record.sha_order is not None:
        lines.append(f"sha_order = {record.sha_order}")
    if record.sha_structure is not None:
        lines.append(f"sha_structure = {ints(record.sha_structure)}")
    for p, r in sorted(record.sha_p_ranks):
        lines.append(f"sha_rank_{p} = {r}")
    return "\n".join(lines) + "\n"


def parse_record_text(text, provenance, retrieved_at=""):
    fields = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaDrift(f"malformed record line: {raw!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return _record_from_fields(fields, provenance, retrieved_at)


def _record_from_fields(fields, provenance, retrieved_at):
    def int_list(key):
        v = fields.get(key, "")
        return tuple(ascii_int(s.strip()) for s in v.split(",") if s.strip()) if v else ()

    if "label" not in fields or "mw_rank" not in fields:
        raise SchemaDrift(f"record missing label/mw_rank: {sorted(fields)}")
    try:
        if len(int_list("ainvs")) not in (0, 5):
            raise SchemaDrift(f"record for {fields['label']} needs 5 ainvs: {fields['ainvs']}")
        ranks = []
        for key, value in fields.items():
            if key.startswith("sha_rank_"):
                if not _SHA_RANK_KEY_RE.fullmatch(key):
                    raise SchemaDrift(f"record for {fields['label']} has a malformed key {key!r}")
                ranks.append((int(key[len("sha_rank_"):]), ascii_int(value)))
        return ExternalCurveRecord(
            label=fields["label"],
            ainvs=int_list("ainvs") or None,
            mw_rank=ascii_int(fields["mw_rank"]),
            torsion_structure=int_list("torsion_structure"),
            sha_order=ascii_int(fields["sha_order"]) if "sha_order" in fields else None,
            sha_structure=int_list("sha_structure") if "sha_structure" in fields else None,
            sha_p_ranks=tuple(sorted(ranks)),
            provenance=provenance,
            retrieved_at=retrieved_at,
        )
    except ValueError as err:
        raise SchemaDrift(f"record for {fields['label']} has a non-integer value: {err}") from err


def _load_local(label, config):
    for base in filter(None, (config.fixtures_dir, config.cache_dir)):
        path = Path(base) / f"{label}.txt"
        if path.is_file():
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError) as err:
                raise SchemaDrift(f"record file for {label} cannot be read: {err}") from err
            return parse_record_text(text, LOCAL_FIXTURE)
    return None


def _remote_get(label, config):
    # imported here: urllib.request pulls in http.client and ssl, which
    # offline runs never use
    import http.client
    import urllib.error
    import urllib.request

    url = f"{config.base_url.rstrip('/')}/{label}"
    if config.unreachable:
        raise NetworkError(f"remote fetch failed for {label}: {config.unreachable[0]}")
    last_err = None
    for attempt in range(2):
        if attempt:
            time.sleep(1.0 * 2 ** (attempt - 1))
        try:
            with urllib.request.urlopen(url, timeout=DEFAULT_TIMEOUT) as resp:
                body = resp.read()
        except urllib.error.HTTPError as err:
            if err.code == 404:
                raise NotFound(f"no remote record for {label}") from err
            last_err = err
        except (OSError, http.client.HTTPException) as err:  # down, or a body cut short
            last_err = err
        except ValueError as err:  # urlopen's "unknown url type"
            raise InvalidInput(f"bad base URL {config.base_url!r}: {err}") from err
        else:
            try:
                payload = json.loads(body.decode("utf-8"))
                break
            except ValueError as err:  # not UTF-8, not JSON, or an integer too long for json
                last_err = err
    else:
        config.unreachable.append(last_err)
        raise NetworkError(f"remote fetch failed for {label}: {last_err}")

    if not isinstance(payload, dict):
        raise SchemaDrift(f"remote record for {label} is not a JSON object")
    missing = [k for k in _REQUIRED_REMOTE_FIELDS if k not in payload]
    if missing:
        raise SchemaDrift(f"remote record for {label} missing fields {missing}")
    # the string fields of fixture and cache files, so that one builder reads all three
    fields = {}
    for key, value in payload.items():
        if isinstance(value, list):
            value = ",".join(str(x) for x in value)
        if value is not None:
            fields["mw_rank" if key == "rank" else key] = str(value)
    retrieved_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return _record_from_fields(fields, REMOTE_DATABASE, retrieved_at)


def write_cache(record, config):
    """Write record into the cache dir atomically; InvalidInput if it is unset or unwritable."""
    if config.cache_dir is None:
        raise InvalidInput(f"no cache dir for {record.label}: set --cache-dir or {CACHE_DIR_ENV}")
    path = config.cache_dir / f"{record.label}.txt"
    tmp = path.with_suffix(".txt.tmp")
    try:
        config.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp.write_text(render_record_text(record))
        os.replace(tmp, path)  # atomic: a reader in another process never sees a torn file
    except OSError as err:
        raise InvalidInput(f"cache dir {config.cache_dir} cannot be written: {err}") from err
    return path


def fetch_curve_record(label, mode=REMOTE_FIRST, config=None):
    """Resolve a curve record by Cremona or LMFDB label.

    OfflineOnly (also forced by SHACLASS_OFFLINE=1) reads committed fixtures
    and the on-disk cache, never opens a connection, and raises
    FixtureMissing when neither has the label.  RemoteFirst asks
    the database (one retry with backoff), caches the answer, and falls
    back to local data when the network is down.  Once a fetch through
    config has failed that way, later RemoteFirst lookups through the same
    config skip the database and go straight to local data.  A record from
    any source must carry the label it was asked for, or SchemaDrift.
    """
    if not valid_label(label):
        raise InvalidInput(f"malformed curve label {label!r}")
    if config is None:
        config = default_config()
    if os.environ.get(OFFLINE_ENV) == "1":
        mode = OFFLINE_ONLY
    if mode not in (REMOTE_FIRST, OFFLINE_ONLY):
        raise InvalidInput(f"unknown fetch mode {mode!r}")

    if mode == OFFLINE_ONLY:
        record = _load_local(label, config)
        if record is None:
            raise FixtureMissing(f"no fixture or cached record for {label}")
    else:
        try:
            record = _remote_get(label, config)
        except (NetworkError, NotFound):
            record = _load_local(label, config)
            if record is None:
                raise
    if record.label != label:
        raise SchemaDrift(f"record for {label} is labelled {record.label!r}")
    if record.provenance == REMOTE_DATABASE:
        write_cache(record, config)
    return record


def apply_user_overrides(record, mw_rank=None, sha_order=None, sha_structure=None, ainvs=None):
    """User-supplied values always win and are flagged as such.

    With no record, the values describe the curve with coefficients ainvs:
    none gives None, and Sha data needs mw_rank, for 0 would be an invented rank.
    """
    if mw_rank is None and sha_order is None and sha_structure is None:
        return record
    if record is None:
        if mw_rank is None:
            raise InvalidInput("--curve with --sha-order or --sha-structure needs --mw-rank")
        record = ExternalCurveRecord("user-curve", ainvs, mw_rank, (), None, None)
    changes = {"provenance": USER_SUPPLIED}
    if mw_rank is not None:
        changes["mw_rank"] = mw_rank
    if sha_order is not None or sha_structure is not None:
        # the user's Sha data replaces all of the record's, which may contradict it
        structure = None if sha_structure is None else tuple(sha_structure)
        order = math.prod(structure) if sha_order is None else sha_order
        changes.update(sha_order=order, sha_structure=structure, sha_p_ranks=())
    return record._replace(**changes)


def selmer_rank_scenarios(record, p, irreducible, assume_sha_finite=True):
    """Possible values of dim_Fp Sel_p from rank, Sha data and torsion.

    Each dim is mw_rank + r + dim E(Q)[p], where r runs over the Sha[p]
    ranks the record allows: its recorded rank, else 1..v_p(#Sha); sha_ranks
    lists each dim's r.  With the finiteness flag (default), Sha[p^infinity]
    is A x A (Cassels), so r is even, and a record whose p-part cannot be
    A x A is InvalidInput.
    """
    require_odd_prime(p)
    notes = []
    if irreducible:
        torsion_dim = 0
    else:
        torsion_dim = sum(1 for t in record.torsion_structure if t % p == 0)
        notes.append(
            "irreducibility not established: rational p-torsion contributes "
            f"{torsion_dim} to every scenario; treat bounds with care"
        )

    r_known = record.sha_p_rank(p)
    if r_known is None and record.sha_order is None:
        raise InsufficientData(
            f"record for {record.label} has neither Sha order nor Sha[{p}] rank"
        )
    vp = 0 if record.sha_order is None else valuation(record.sha_order, p)
    if r_known is None and vp == 0:  # sha_p_rank reads rank 0 off an order prime to p
        raise ArithmeticError(f"no Sha[{p}] rank read off Sha order {record.sha_order}")
    ranks = range(1, vp + 1) if r_known is None else (r_known,)
    if assume_sha_finite:
        # A x A: an even rank, an even v_p(#Sha), and the Z/p^e parts in equal pairs
        exps = sorted(valuation(t, p) for t in record.sha_structure or () if t % p == 0)
        if (r_known or 0) % 2 or vp % 2 or exps[0::2] != exps[1::2]:
            raise InvalidInput(
                f"record for {record.label}: Sha[{p}^infinity] cannot be A x A, as it is "
                "when Sha is finite (Cassels); --no-assume-sha-finite drops that assumption"
            )
        ranks = [r for r in ranks if r % 2 == 0]
    if r_known is not None:
        reasons = [f"Sha[{p}] has recorded F_{p}-rank {r_known}"]
    else:
        reasons = [f"assuming Sha[{p}] has F_{p}-rank {r} (order divides {p}^{vp})" for r in ranks]
    dims = tuple(record.mw_rank + r + torsion_dim for r in ranks)
    return SelmerScenario(dims, tuple(reasons), tuple(ranks), tuple(notes))
