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

from .arith import valuation
from .errors import InsufficientData, InvalidInput, NetworkError, NotFound, SchemaDrift

REMOTE_DATABASE = "RemoteDatabase"
LOCAL_FIXTURE = "LocalFixture"
USER_SUPPLIED = "UserSupplied"

REMOTE_FIRST = "RemoteFirst"
OFFLINE_ONLY = "OfflineOnly"

OFFLINE_ENV = "SHACLASS_OFFLINE"
CACHE_DIR_ENV = "SHACLASS_CACHE_DIR"

CREMONA_LABEL_RE = re.compile(r"^(\d+)([a-z]+)(\d+)$")
LMFDB_LABEL_RE = re.compile(r"^(\d+)\.([a-z]+)(\d+)$")

DEFAULT_BASE_URL = "https://www.lmfdb.org/api/shaclass_curve_records"
DEFAULT_TIMEOUT = 10.0

_REQUIRED_REMOTE_FIELDS = ("label", "ainvs", "rank", "torsion_structure")


def valid_label(label):
    return bool(CREMONA_LABEL_RE.match(label) or LMFDB_LABEL_RE.match(label))


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
        if min(self.torsion_structure, default=1) < 1:
            raise InvalidInput(f"torsion_structure {self.torsion_structure} has a factor below 1")
        if self.sha_structure is not None and min(self.sha_structure, default=1) < 1:
            raise InvalidInput(f"sha_structure {self.sha_structure} has a factor below 1")
        if self.sha_structure is not None and self.sha_order is not None:
            if math.prod(self.sha_structure) != self.sha_order:
                raise InvalidInput(
                    f"sha_structure {self.sha_structure} does not match order {self.sha_order}"
                )
        for p, r in self.sha_p_ranks:
            if p < 2 or r < 0:
                raise InvalidInput(f"sha_rank_{p} = {r} needs p >= 2 and a nonnegative rank")
            if self.sha_order is not None and valuation(self.sha_order, p) < r:
                raise InvalidInput(
                    f"p^{r} does not divide recorded sha_order {self.sha_order}"
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
        self.cache_dir = cache_dir
        self.base_url = base_url
        # the error of the first remote fetch through this config that ended
        # in NetworkError; later fetches through it fail at once with that error
        self.unreachable = []


def packaged_fixtures_dir():
    return Path(__file__).resolve().parent / "fixtures"


def default_config(cache_dir=None, fixtures_dir=None, base_url=None):
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or Path.home() / ".cache" / "shaclass"
    return StoreConfig(
        fixtures_dir=Path(fixtures_dir) if fixtures_dir else packaged_fixtures_dir(),
        cache_dir=Path(cache_dir),
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
        return tuple(int(s) for s in v.split(",") if s.strip()) if v else ()

    if "label" not in fields or "mw_rank" not in fields:
        raise SchemaDrift(f"record missing label/mw_rank: {sorted(fields)}")
    try:
        if len(int_list("ainvs")) not in (0, 5):
            raise SchemaDrift(f"record for {fields['label']} needs 5 ainvs: {fields['ainvs']}")
        ranks = []
        for key, value in fields.items():
            m = re.match(r"^sha_rank_(\d+)$", key)
            if m:
                ranks.append((int(m.group(1)), int(value)))
        return ExternalCurveRecord(
            label=fields["label"],
            ainvs=int_list("ainvs") or None,
            mw_rank=int(fields["mw_rank"]),
            torsion_structure=int_list("torsion_structure"),
            sha_order=int(fields["sha_order"]) if "sha_order" in fields else None,
            sha_structure=int_list("sha_structure") if "sha_structure" in fields else None,
            sha_p_ranks=tuple(sorted(ranks)),
            provenance=provenance,
            retrieved_at=retrieved_at,
        )
    except ValueError as err:
        raise SchemaDrift(f"record for {fields['label']} has a non-integer value: {err}") from err


def _load_local(label, config):
    for base in (config.fixtures_dir, config.cache_dir):
        path = Path(base) / f"{label}.txt"
        if path.is_file():
            try:
                text = path.read_text()
            except UnicodeDecodeError as err:
                raise SchemaDrift(f"record file for {label} is not text: {err}") from err
            return parse_record_text(text, LOCAL_FIXTURE)
    return None


def _remote_get(label, config):
    # imported here: urllib.request pulls in http.client and ssl, which
    # offline runs never use
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
                payload = json.loads(resp.read().decode("utf-8"))
            break
        except urllib.error.HTTPError as err:
            if err.code == 404:
                raise NotFound(f"no remote record for {label}") from err
            last_err = err
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:  # down, or not JSON
            last_err = err
        except ValueError as err:  # urlopen's "unknown url type"
            raise InvalidInput(f"bad base URL {config.base_url!r}: {err}") from err
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
    record = _record_from_fields(fields, REMOTE_DATABASE, retrieved_at)
    if record.label != label:
        raise SchemaDrift(f"remote record for {label} is labelled {record.label!r}")
    return record


def write_cache(record, config):
    config.cache_dir.mkdir(parents=True, exist_ok=True)
    path = config.cache_dir / f"{record.label}.txt"
    tmp = path.with_suffix(".txt.tmp")
    tmp.write_text(render_record_text(record))
    os.replace(tmp, path)  # atomic: a reader in another process never sees a torn file
    return path


def fetch_curve_record(label, mode=REMOTE_FIRST, config=None):
    """Resolve a curve record by Cremona or LMFDB label.

    OfflineOnly (also forced by SHACLASS_OFFLINE=1) reads committed fixtures
    and the on-disk cache and never opens a connection.  RemoteFirst asks
    the database (one retry with backoff), caches the answer, and falls
    back to local data when the network is down.  Once a fetch through
    config has failed that way, later RemoteFirst lookups through the same
    config skip the database and go straight to local data.
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
            raise NotFound(f"no fixture or cached record for {label}")
        return record

    try:
        record = _remote_get(label, config)
    except (NetworkError, NotFound):
        local = _load_local(label, config)
        if local is not None:
            return local
        raise
    write_cache(record, config)
    return record


def apply_user_overrides(record, mw_rank=None, sha_order=None, sha_structure=None):
    """User-supplied values always win and are flagged as such."""
    if mw_rank is None and sha_order is None and sha_structure is None:
        return record
    changes = {"provenance": USER_SUPPLIED}
    if mw_rank is not None:
        changes["mw_rank"] = mw_rank
    if sha_order is not None:
        changes["sha_order"] = sha_order
        if sha_structure is None:
            # stale structure or per-p ranks may contradict the new order
            changes["sha_structure"] = None
            changes["sha_p_ranks"] = ()
    if sha_structure is not None:
        changes["sha_structure"] = tuple(sha_structure)
        changes["sha_p_ranks"] = ()
        if sha_order is None:
            changes["sha_order"] = math.prod(sha_structure)
    return record._replace(**changes)


def selmer_rank_scenarios(record, p, irreducible, assume_sha_finite=True):
    """Possible values of dim_Fp Sel_p from rank, Sha data and torsion.

    Each dim is mw_rank + r + dim E(Q)[p], where r runs over the Sha[p]
    ranks consistent with the record; sha_ranks lists each dim's r.  With
    the finiteness flag (default), a nonzero Sha[p] must have even rank.
    """
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
    if r_known is not None:
        dims = (record.mw_rank + r_known + torsion_dim,)
        reasons = (f"Sha[{p}] has recorded F_{p}-rank {r_known}",)
        return SelmerScenario(dims, reasons, (r_known,), tuple(notes))

    if record.sha_order is None:
        raise InsufficientData(
            f"record for {record.label} has neither Sha order nor Sha[{p}] rank"
        )
    vp = valuation(record.sha_order, p)
    if vp == 0:  # sha_p_rank reads rank 0 off an order prime to p
        raise ArithmeticError(f"no Sha[{p}] rank read off Sha order {record.sha_order}")
    if assume_sha_finite:
        ranks = [r for r in range(2, vp + 1, 2)]
        if not ranks:
            notes.append(
                f"recorded Sha order has p-valuation {vp}, incompatible with even "
                "rank under the finiteness assumption; falling back to odd ranks"
            )
            ranks = list(range(1, vp + 1))
    else:
        ranks = list(range(1, vp + 1))
    dims = []
    reasons = []
    for r in ranks:
        dims.append(record.mw_rank + r + torsion_dim)
        reasons.append(f"assuming Sha[{p}] has F_{p}-rank {r} (order divides {p}^{vp})")
    return SelmerScenario(tuple(dims), tuple(reasons), tuple(ranks), tuple(notes))
