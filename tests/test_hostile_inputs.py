"""Hostile input on every path from outside into the program, in process.

Three properties, each drawn from the real keys, fields and options with
mutations around them:

- record text (fixture and cache files) gives a record that passes the
  record checks, or a ShaclassError;
- a remote answer, random JSON through a stand-in urlopen, gives a record or
  one of the typed lookup errors;
- cli.main over its four subcommands exits with one of its six codes, prints
  no traceback and writes nothing outside the cache dir it was given.

A fourth property runs records through analyze: a certificate it returns
names no Selmer scenario that contradicts the record or a printed assumption.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import urllib.error
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shaclass.cli import main
from shaclass.curve import CurveModel
from shaclass.engine import analyze, certificate_to_text
from shaclass.errors import InvalidInput, NetworkError, NotFound, SchemaDrift, ShaclassError
from shaclass.selmerdata import (
    LOCAL_FIXTURE,
    REMOTE_FIRST,
    ExternalCurveRecord,
    StoreConfig,
    fetch_curve_record,
    packaged_fixtures_dir,
    parse_record_text,
)

# other scripts' digits: Arabic-Indic, Devanagari, fullwidth, mathematical bold
FOREIGN_DIGITS = ("١", "٥٠", "४", "１", "\U0001d7d9")

# --- record text ----------------------------------------------------------

REAL_KEYS = (
    "label", "ainvs", "mw_rank", "torsion_structure", "sha_order", "sha_structure",
    "sha_rank_3", "sha_rank_5", "sha_rank_7",
)
MUTATED_KEYS = (
    "sha_rank_", "sha_rank_05", "sha_rank_٥", "sha_rank_1_0", "sha_rank_-5", "sha_rank_5x",
    "_", "mw_rank_", "mw__rank", "sha_order_", "Label", "rank",
)
KEYS = st.sampled_from(REAL_KEYS) | st.sampled_from(MUTATED_KEYS) | st.text(max_size=10)
RECORD_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.lists(st.integers(-30, 30), max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(FOREIGN_DIGITS),
    st.sampled_from(("", "11a1", "37a1", "1_0", "2_5", "+5", "--5", "5,", ",", "5,,5", "1.5", "1e3")),
    # either side of int()'s 4,300-digit limit, up to 5,000 digits
    st.integers(4290, 5000).map(lambda n: "7" * n),
    st.text(max_size=10),
)
BASE_LINES = tuple(
    (packaged_fixtures_dir() / "11a1.txt").read_text().splitlines()
    + ["sha_rank_5 = 0", "sha_structure = 5,5", "sha_order = 25"]
)
RECORD_LINES = st.one_of(
    st.sampled_from(BASE_LINES),
    st.tuples(KEYS, RECORD_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(("", "# comment", "no equals sign", "=", " = 5")),
)


class TestRecordText:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(RECORD_LINES, max_size=12))
    def test_record_text_gives_a_checked_record_or_a_typed_error(self, lines):
        try:
            record = parse_record_text("\n".join(lines), LOCAL_FIXTURE)
        except ShaclassError:
            return
        assert isinstance(record, ExternalCurveRecord)
        assert record._replace() == record  # the constructor's checks pass on it


# --- remote JSON ----------------------------------------------------------

JSON_SCALARS = st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
SMALL_INT_LISTS = st.lists(st.integers(-20, 20), max_size=6)
PAYLOADS = JSON_VALUES | st.fixed_dictionaries(
    {
        "label": st.just("37a1") | st.sampled_from(("11a1", "37a1\n", "../37a1")) | JSON_VALUES,
        "ainvs": st.just([0, 0, 1, -1, 0]) | SMALL_INT_LISTS | JSON_VALUES,
        "rank": st.integers(-1, 3) | JSON_VALUES,
        "torsion_structure": st.sampled_from(([], [5], [2, 4], [5, 5, 5], [0])) | JSON_VALUES,
    },
    optional={
        "sha_order": st.integers(-1, 30) | JSON_VALUES,
        "sha_structure": SMALL_INT_LISTS | JSON_VALUES,
        "sha_rank_5": st.integers(-1, 3) | JSON_VALUES,
        "sha_rank_٥": st.integers(0, 2),
        "sha_rank_": st.integers(0, 2),
        "retrieved_at": JSON_VALUES,
    },
)


class TestRemoteJson:
    @settings(max_examples=300, deadline=None)
    @given(PAYLOADS)
    def test_remote_answer_gives_a_record_or_a_typed_error(self, payload):
        body = json.dumps(payload).encode()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr("urllib.request.urlopen", lambda url, timeout: io.BytesIO(body))
            mp.setattr("time.sleep", lambda seconds: None)
            config = StoreConfig(fixtures_dir=Path(tmp) / "none", cache_dir=Path(tmp) / "cache")
            try:
                record = fetch_curve_record("37a1", REMOTE_FIRST, config)
            except (SchemaDrift, NotFound, NetworkError, InvalidInput):
                # InvalidInput: the record's own checks (a negative rank, a
                # torsion group off Mazur's list), as for a fixture file
                written = sorted(Path(tmp).rglob("*"))
                assert written == [], written
                return
            assert isinstance(record, ExternalCurveRecord) and record.label == "37a1"
            assert sorted(Path(tmp).rglob("*")) == [Path(tmp) / "cache", Path(tmp) / "cache" / "37a1.txt"]


# --- cli.main ---------------------------------------------------------------

def _mostly(real, hostile):
    """A value that is hostile in about one draw in eight, so that an argv
    with several options still reaches the work behind them."""
    return st.sampled_from(range(8)).flatmap(lambda i: st.sampled_from(hostile if i == 0 else real))


PRIMES = _mostly(("3", "5", "7", "11", "13"), ("0", "1", "9", str(10**6 + 3), "1_0", "٥", "-5", ""))
CURVE_SPECS = st.one_of(
    _mostly(
        ("0,-1,1,-10,-20", "0,0,0,0,1", "[0,1]", "[-1,1]", "0,0,1,-1,0"),
        ("1,2,3,4", "[,]", "0,0,0,0,0", "[0,0]", "0,0,0,-3,2", "0,0,0,-1,1_0", "0,0,0,-1,١", "", ",,,,"),
    ),
    # small coefficients, far below the discriminants that reach rho's step budget
    st.lists(st.integers(-20, 20), min_size=5, max_size=5).map(lambda a: ",".join(map(str, a))),
)
LABELS = _mostly(("11a1", "37a1", "1058d1", "389a1"), ("9999zz9", "11a1\n", "not-a-label", "١١a1"))
RANKS = _mostly(("0", "1", "2"), ("-1", "1_0", "٢", ""))
SHA_ORDERS = _mostly(("1", "9", "25", "3"), ("0", "-1", "2_5", "٢"))
SHA_STRUCTURES = _mostly(("5,5", "3,3", "7", ""), (",", "5,25", "0", "-5", "٥"))
GENERATORS = _mostly(("1,1,0,1", "1,0,0,1;2,0,0,2", "0,1,4,0"), (";", "1,2,3", "a,b,c,d", ""))
BATCH_FILE, CACHE_DIR = "BATCH_FILE", "CACHE_DIR"  # replaced by paths in the test's own dir


@st.composite
def cli_argvs(draw):
    """An argv for one of the four subcommands, with hostile values among the real ones."""
    command = draw(st.sampled_from(("analyze", "invariants", "tate", "cohomology")))
    argv = [command]
    if command == "cohomology":
        argv += ["--p", draw(PRIMES), "--generators", draw(GENERATORS)]
        if draw(st.booleans()):
            argv += ["--cap", draw(_mostly(("1", "10", "1000"), ("0", "-1", "1_0")))]
        return argv
    if command == "analyze" and draw(st.integers(0, 5)) == 0:
        argv += ["--batch", BATCH_FILE]
    elif draw(st.booleans()):
        argv += ["--curve", draw(CURVE_SPECS)]
    else:
        argv += ["--label", draw(LABELS)]
    if draw(st.booleans()):
        argv.append("--offline")
    argv += ["--cache-dir", CACHE_DIR]
    if draw(st.integers(0, 5)) == 0:
        argv += ["--base-url", draw(st.sampled_from(("no-scheme", "http://127.0.0.1:9/api")))]
    if command == "tate" and draw(st.booleans()):
        argv += ["-v", draw(_mostly(("2", "11", "37"), ("4", "1_0", "0", "-3")))]
    if command == "analyze":
        argv += ["-p", draw(PRIMES)]
        for flag, values in (("--mw-rank", RANKS), ("--sha-order", SHA_ORDERS), ("--sha-structure", SHA_STRUCTURES)):
            if draw(st.booleans()):
                argv += [flag, draw(values)]
        for flag in ("--no-assume-sha-finite", "--assume-wild-ramification"):
            if draw(st.booleans()):
                argv.append(flag)
        argv += ["--format", draw(_mostly(("text", "json"), ("xml",)))]
    return argv


def _files(root):
    return {path for path in root.rglob("*") if not path.is_dir()}


class TestCommandLine:
    @settings(max_examples=150, deadline=None)
    @given(cli_argvs())
    def test_main_exits_with_a_code_and_writes_only_its_cache(self, argv):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            (root / "labels.txt").write_text("11a1\n١١a1\n9999zz9\n37a1\n")
            places = {BATCH_FILE: str(root / "labels.txt"), CACHE_DIR: str(root / "cache")}
            argv = [places.get(a, a) for a in argv]

            def refuse(url, timeout):
                raise urllib.error.URLError("no network in this test")

            mp.setattr("urllib.request.urlopen", refuse)
            mp.setattr("time.sleep", lambda seconds: None)
            mp.setenv("HOME", str(root / "home"))
            mp.chdir(root)
            before = _files(root)
            fixtures = _files(packaged_fixtures_dir())
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in range(6), (argv, code)
            assert "Traceback" not in err.getvalue(), argv
            new = _files(root) - before
            assert all(root / "cache" in path.parents for path in new), (argv, new)
            assert _files(packaged_fixtures_dir()) == fixtures


# --- on exit 0 ----------------------------------------------------------------

FINITE_SHA_LINE = "Sha[p^infinity] assumed finite (even Sha[p]-rank)"
SHA_FACTORS = st.lists(st.sampled_from((3, 5, 7, 9, 25, 27, 49)), max_size=4).map(tuple)


@st.composite
def record_fields(draw):
    """Fields of a record whose Sha order, structure and per-p ranks agree
    often and disagree often."""
    factors = draw(SHA_FACTORS)
    return {
        "label": "x1a1",
        "ainvs": None,
        "mw_rank": draw(st.integers(0, 3)),
        "torsion_structure": draw(st.sampled_from(((), (3,), (5,), (7,), (2, 6)))),
        "sha_order": draw(st.sampled_from((None, math.prod(factors), 1, 9, 25))),
        "sha_structure": draw(st.sampled_from((None, factors))),
        "sha_p_ranks": tuple(sorted(draw(st.dictionaries(st.sampled_from((3, 5, 7)), st.integers(0, 3))).items())),
    }


class TestOnExitZero:
    @settings(max_examples=300, deadline=None)
    @given(
        record_fields(),
        st.sampled_from((CurveModel(0, -1, 1, -10, -20), CurveModel(0, 0, 1, -1, 0))),  # 11a1, 37a1
        st.sampled_from((3, 5, 7)),
        st.booleans(),
    )
    def test_certificate_contradicts_no_record_or_assumption(self, fields, model, p, finite):
        """Every dim is at least mw_rank; a recorded Sha[p] rank is the one
        rank the scenarios name; and under the finiteness assumption every
        scenario's Sha[p] rank is even, and the certificate prints it."""
        try:
            record = ExternalCurveRecord(**fields)
            cert = analyze(model, p, record=record, assume_sha_finite=finite)
        except ShaclassError:
            return
        assert (f"    - {FINITE_SHA_LINE}\n" in certificate_to_text(cert)) == finite
        if cert["selmer"] is None:  # no Sha order and no Sha[p] rank
            assert record.sha_p_rank(p) is None and record.sha_order is None
            return
        dims = cert["selmer"]["possible_dims"]
        ranks = [int(re.search(rf"F_{p}-rank ([0-9]+)", r).group(1)) for r in cert["selmer"]["reasoning"]]
        assert len(ranks) == len(dims) > 0 and all(d >= record.mw_rank + r for d, r in zip(dims, ranks))
        if finite:
            assert all(r % 2 == 0 for r in ranks), (record, p, ranks)
        if p in dict(record.sha_p_ranks):
            assert ranks == [dict(record.sha_p_ranks)[p]]
