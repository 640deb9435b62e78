import http.client
import json
import urllib.error
from pathlib import Path

import pytest

from conftest import time_limit

from shaclass.cli import main
from shaclass.errors import (
    FixtureMissing,
    InsufficientData,
    InvalidInput,
    NetworkError,
    NotFound,
    SchemaDrift,
)
from shaclass.selmerdata import (
    LOCAL_FIXTURE,
    MAZUR_TORSION,
    OFFLINE_ONLY,
    REMOTE_FIRST,
    USER_SUPPLIED,
    ExternalCurveRecord,
    StoreConfig,
    apply_user_overrides,
    default_config,
    fetch_curve_record,
    packaged_fixtures_dir,
    parse_record_text,
    render_record_text,
    selmer_rank_scenarios,
    valid_label,
    write_cache,
)


def offline_config(tmp_path):
    return StoreConfig(fixtures_dir=packaged_fixtures_dir(), cache_dir=tmp_path)


class TestLabels:
    def test_valid(self):
        for label in ("1058d1", "11a1", "423801ci1", "1058.d1", "37.a1"):
            assert valid_label(label)

    def test_invalid(self):
        for label in ("", "abc", "11", "a1", "1058D1", "11a1; rm -rf", "11a1\n", "1058.d1\n",
                      "\u0661\u0661a1"):
            assert not valid_label(label)

    def test_fetch_rejects_bad_label(self, tmp_path):
        with pytest.raises(InvalidInput):
            fetch_curve_record("not-a-label", OFFLINE_ONLY, offline_config(tmp_path))

    def test_fetch_rejects_an_unknown_mode(self, tmp_path):
        with pytest.raises(InvalidInput, match="unknown fetch mode 'Sometimes'"):
            fetch_curve_record("11a1", "Sometimes", offline_config(tmp_path))

    def test_fetch_without_config_reads_the_packaged_fixtures(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHACLASS_CACHE_DIR", str(tmp_path))
        record = fetch_curve_record("11a1", OFFLINE_ONLY)
        assert record == fetch_curve_record("11a1", OFFLINE_ONLY, offline_config(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestFixtures:
    def test_featured_records(self, tmp_path):
        config = offline_config(tmp_path)
        d1 = fetch_curve_record("1058d1", OFFLINE_ONLY, config)
        assert d1.mw_rank == 0
        assert d1.sha_p_rank(5) == 2
        assert d1.ainvs == (1, -1, 0, -332311, -73733731)
        assert d1.provenance == LOCAL_FIXTURE

        c1 = fetch_curve_record("1058c1", OFFLINE_ONLY, config)
        assert c1.mw_rank == 2
        assert c1.sha_p_rank(5) == 0

        e2 = fetch_curve_record("423801ci1", OFFLINE_ONLY, config)
        assert e2.mw_rank == 0
        assert e2.sha_order == 625
        assert e2.sha_p_rank(5) is None  # structure genuinely unknown

    def test_missing_fixture(self, tmp_path):
        with pytest.raises(FixtureMissing):
            fetch_curve_record("9999zz9", OFFLINE_ONLY, offline_config(tmp_path))
        assert issubclass(FixtureMissing, NotFound)

    def test_offline_determinism(self, tmp_path):
        config = offline_config(tmp_path)
        a = fetch_curve_record("1058d1", OFFLINE_ONLY, config)
        b = fetch_curve_record("1058d1", OFFLINE_ONLY, config)
        assert a == b
        assert render_record_text(a) == render_record_text(b)

    def test_offline_never_touches_network(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("network call in OfflineOnly mode")

        monkeypatch.setattr("urllib.request.urlopen", boom)
        fetch_curve_record("1058d1", OFFLINE_ONLY, offline_config(tmp_path))

    def test_env_var_forces_offline(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHACLASS_OFFLINE", "1")

        def boom(*args, **kwargs):
            raise AssertionError("network call despite SHACLASS_OFFLINE=1")

        monkeypatch.setattr("urllib.request.urlopen", boom)
        record = fetch_curve_record("1058d1", REMOTE_FIRST, offline_config(tmp_path))
        assert record.provenance == LOCAL_FIXTURE


class TestCache:
    def test_round_trip(self, tmp_path):
        config = offline_config(tmp_path)
        record = fetch_curve_record("423801ci1", OFFLINE_ONLY, config)
        path = write_cache(record, config)
        reloaded = parse_record_text(path.read_text(), LOCAL_FIXTURE)
        assert reloaded == record

    def test_cache_serves_after_fixture_removed(self, tmp_path):
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path)
        record = ExternalCurveRecord(
            "53a1", (1, -1, 1, 0, 0), 1, (), None, None, provenance=USER_SUPPLIED
        )
        write_cache(record, config)
        got = fetch_curve_record("53a1", OFFLINE_ONLY, config)
        assert got.mw_rank == 1 and got.provenance == LOCAL_FIXTURE


    @pytest.mark.parametrize("mode", [OFFLINE_ONLY, REMOTE_FIRST])
    def test_cached_record_under_another_label_is_schema_drift(self, tmp_path, monkeypatch, mode):
        def refuse(url, timeout):
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        (tmp_path / "53a1.txt").write_text("label = 37a1\nainvs = 0,0,1,-1,0\nmw_rank = 1\n")
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path)
        with pytest.raises(SchemaDrift, match="record for 53a1 is labelled '37a1'"):
            fetch_curve_record("53a1", mode, config)


class _FakeResponse:
    def __init__(self, payload):
        self._payload = payload

    def read(self):
        return json.dumps(self._payload).encode()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestRemote:
    PAYLOAD = {
        "label": "37a1",
        "ainvs": [0, 0, 1, -1, 0],
        "rank": 1,
        "torsion_structure": [],
        "sha_order": 1,
        "sha_structure": [],
    }

    def test_remote_fetch_and_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: _FakeResponse(self.PAYLOAD)
        )
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path / "c")
        record = fetch_curve_record("37a1", REMOTE_FIRST, config)
        assert record.provenance == "RemoteDatabase"
        assert record.retrieved_at
        assert record.sha_structure == ()  # an empty list reads as in a fixture file
        cached = (config.cache_dir / "37a1.txt").read_text()
        assert parse_record_text(cached, "RemoteDatabase", record.retrieved_at) == record

    def test_remote_sha_rank_is_kept(self, tmp_path, monkeypatch):
        payload = dict(self.PAYLOAD, sha_order=25, sha_structure=None, sha_rank_5=2)
        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: _FakeResponse(payload)
        )
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path / "c")
        record = fetch_curve_record("37a1", REMOTE_FIRST, config)
        assert record.sha_p_ranks == ((5, 2),)
        assert record.sha_p_rank(5) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            dict(PAYLOAD, rank="one"),
            dict(PAYLOAD, rank=1.5),
            dict(PAYLOAD, label="../../escaped"),
            dict(PAYLOAD, label="11a1"),
            dict(PAYLOAD, ainvs=[0, 0, 1]),
            dict(PAYLOAD, rank=True),
            dict(PAYLOAD, torsion_structure="\nmw_rank = 0"),
            ["37a1", [0, 0, 1, -1, 0], 1],
            "label ainvs rank torsion_structure",
            dict(PAYLOAD, rank="\u0661"),
            dict(PAYLOAD, sha_order="2_5"),
        ],
        ids=["rank-word", "rank-float", "label-escapes", "label-differs", "ainvs-3",
             "rank-bool", "newline-in-value", "list", "string", "rank-arabic-indic", "order-underscore"],
    )
    def test_bad_payload_is_schema_drift(self, tmp_path, monkeypatch, payload):
        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: _FakeResponse(payload)
        )
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path / "a" / "b" / "c")
        with pytest.raises(SchemaDrift):
            fetch_curve_record("37a1", REMOTE_FIRST, config)
        assert list(tmp_path.rglob("*")) == []  # nothing cached, inside cache_dir or out

    def _fake_remote(self, monkeypatch):
        """urlopen answers PAYLOAD for 37a1 and 404 for every other label."""

        def urlopen(url, timeout):
            if url.endswith("/37a1"):
                return _FakeResponse(self.PAYLOAD)
            raise urllib.error.HTTPError(url, 404, "not found", {}, None)

        monkeypatch.delenv("SHACLASS_OFFLINE", raising=False)
        monkeypatch.setattr("urllib.request.urlopen", urlopen)

    def test_unwritable_cache_dir_is_invalid_input(self, tmp_path, monkeypatch, capsys):
        self._fake_remote(monkeypatch)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=not_a_dir)
        with pytest.raises(InvalidInput, match="cache dir"):
            fetch_curve_record("37a1", REMOTE_FIRST, config)
        argv = ["analyze", "--label", "37a1", "-p", "7", "--cache-dir", str(not_a_dir), "--format", "json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cache dir {not_a_dir} cannot be written")
        assert err.count("\n") == 1  # one error line, no traceback

    def test_unwritable_cache_dir_fails_one_batch_label(self, tmp_path, monkeypatch, capsys):
        # 37a1 is fetched and cannot be cached; 11a1 is not found remotely
        # and is read from the packaged fixtures, so nothing is written
        self._fake_remote(monkeypatch)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        batch = tmp_path / "labels.txt"
        batch.write_text("37a1\n11a1\n")
        argv = ["analyze", "--batch", str(batch), "-p", "7", "--cache-dir", str(not_a_dir), "--format", "json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["label"] == "11a1"
        assert err.startswith(f"error: 37a1: cache dir {not_a_dir} cannot be written")
        assert err.count("error:") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("label = 37a1\nmw_rank = x\n", "non-integer value"),
            # the comment and the blank line are skipped, so the bad integer is the first error
            ("# a comment\n\nlabel = 37a1\nmw_rank = x\n", "non-integer value"),
            ("label = 37a1\nmw_rank 0\n", "malformed record line: 'mw_rank 0'"),
            ("mw_rank = 0\n", "record missing label/mw_rank"),
            ("label = 37a1\ntorsion_structure = \n", "record missing label/mw_rank"),
        ],
        ids=["value-not-an-integer", "comment-and-blank-skipped", "no-equals", "no-label", "no-mw-rank"],
    )
    def test_bad_fixture_file_is_schema_drift(self, tmp_path, capsys, text, message):
        (tmp_path / "37a1.txt").write_text(text)
        config = StoreConfig(fixtures_dir=tmp_path, cache_dir=tmp_path / "c")
        with pytest.raises(SchemaDrift, match=message):
            fetch_curve_record("37a1", OFFLINE_ONLY, config)
        assert main(["analyze", "--label", "37a1", "-p", "5", "--offline", "--fixtures", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and err.count("error:") == 1

    @pytest.mark.parametrize("where", ["fixtures", "cache"])
    def test_record_file_not_utf8_is_schema_drift(self, tmp_path, where):
        (tmp_path / where).mkdir()
        (tmp_path / where / "99a1.txt").write_bytes(b"label = 99a1\nmw_rank = 0\xff\n")
        config = StoreConfig(fixtures_dir=tmp_path / "fixtures", cache_dir=tmp_path / "cache")
        with pytest.raises(SchemaDrift):
            fetch_curve_record("99a1", OFFLINE_ONLY, config)

    def test_body_not_utf8_is_network_error(self, tmp_path, monkeypatch):
        class Garbled(_FakeResponse):
            def read(self):
                return b"\xff\xfe{"

        monkeypatch.setattr("urllib.request.urlopen", lambda url, timeout: Garbled(None))
        monkeypatch.setattr("time.sleep", lambda s: None)
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path / "c")
        with pytest.raises(NetworkError):
            fetch_curve_record("37a1", REMOTE_FIRST, config)

    @pytest.mark.parametrize(
        "body",
        [b"<html>busy</html>", b'{"label": "11a1", "rank": ' + b"1" * 5000 + b"}"],
        ids=["not-json", "integer-too-long-for-json"],
    )
    def test_body_not_json_is_a_network_fault(self, tmp_path, monkeypatch, body):
        # a bad body is the server's fault, never the base URL's: the fixture
        # covers it when one exists, and NetworkError reports it when none does
        class Raw(_FakeResponse):
            def read(self):
                return body

        monkeypatch.setattr("urllib.request.urlopen", lambda url, timeout: Raw(None))
        monkeypatch.setattr("time.sleep", lambda s: None)
        record = fetch_curve_record("11a1", REMOTE_FIRST, offline_config(tmp_path))
        assert record.provenance == LOCAL_FIXTURE
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path / "c")
        with pytest.raises(NetworkError):
            fetch_curve_record("11a1", REMOTE_FIRST, config)

    def test_truncated_body_is_a_network_fault(self, tmp_path, monkeypatch):
        # IncompleteRead is an http.client.HTTPException, neither an OSError
        # nor a ValueError: it is retried, then the fixture covers it when one
        # exists, and NetworkError reports it when none does
        reads = []

        class Truncated(_FakeResponse):
            def read(self):
                reads.append(1)
                raise http.client.IncompleteRead(b"{", 100)

        monkeypatch.setattr("urllib.request.urlopen", lambda url, timeout: Truncated(None))
        monkeypatch.setattr("time.sleep", lambda s: None)
        record = fetch_curve_record("11a1", REMOTE_FIRST, offline_config(tmp_path))
        assert record.provenance == LOCAL_FIXTURE
        assert len(reads) == 2
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path / "c")
        with pytest.raises(NetworkError, match="100 more expected"):
            fetch_curve_record("11a1", REMOTE_FIRST, config)
        assert len(reads) == 4

    def test_server_error_is_retried_once(self, tmp_path, monkeypatch):
        answers = [urllib.error.HTTPError("u", 500, "server error", {}, None), _FakeResponse(self.PAYLOAD)]
        sleeps = []

        def urlopen(url, timeout):
            answer = answers.pop(0)
            if isinstance(answer, Exception):
                raise answer
            return answer

        monkeypatch.setattr("urllib.request.urlopen", urlopen)
        monkeypatch.setattr("time.sleep", sleeps.append)
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path / "c")
        record = fetch_curve_record("37a1", REMOTE_FIRST, config)
        assert (record.label, record.provenance) == ("37a1", "RemoteDatabase")
        assert (answers, sleeps, config.unreachable) == ([], [1.0], [])

    def test_bad_base_url_is_invalid_input(self, tmp_path, monkeypatch):
        def no_retry(seconds):
            raise AssertionError("a bad base URL was retried")

        monkeypatch.setattr("time.sleep", no_retry)
        config = StoreConfig(packaged_fixtures_dir(), tmp_path, base_url="no-scheme")
        # not retried, not reported as a network fault, not covered up by the fixture
        with pytest.raises(InvalidInput, match="base URL"):
            fetch_curve_record("1058d1", REMOTE_FIRST, config)

    def test_schema_drift(self, tmp_path, monkeypatch):
        bad = {"label": "37a1", "rank": 1}
        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: _FakeResponse(bad)
        )
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path)
        with pytest.raises(SchemaDrift):
            fetch_curve_record("37a1", REMOTE_FIRST, config)

    def test_network_failure_falls_back_to_fixture(self, tmp_path, monkeypatch):
        def refuse(url, timeout):
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        monkeypatch.setattr("time.sleep", lambda s: None)
        record = fetch_curve_record("1058d1", REMOTE_FIRST, offline_config(tmp_path))
        assert record.provenance == LOCAL_FIXTURE

    def test_network_failure_is_remembered_per_config(self, tmp_path, monkeypatch):
        fetches = []

        def refuse(url, timeout):
            fetches.append(url)
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        monkeypatch.setattr("time.sleep", lambda s: None)
        config = offline_config(tmp_path)
        for label in ("11a1", "37a1", "1058d1"):
            assert fetch_curve_record(label, REMOTE_FIRST, config).provenance == LOCAL_FIXTURE
        assert len(fetches) == 2  # the first label's try and retry only
        # a new config, as a later caller in the same process builds, asks again
        fetch_curve_record("11a1", REMOTE_FIRST, offline_config(tmp_path))
        assert len(fetches) == 4

    def test_network_failure_without_fixture(self, tmp_path, monkeypatch):
        def refuse(url, timeout):
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        monkeypatch.setattr("time.sleep", lambda s: None)
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path / "c")
        with pytest.raises(NetworkError):
            fetch_curve_record("37a1", REMOTE_FIRST, config)

    def test_remote_404_is_not_found(self, tmp_path, monkeypatch):
        def gone(url, timeout):
            raise urllib.error.HTTPError(url, 404, "not found", {}, None)

        monkeypatch.setattr("urllib.request.urlopen", gone)
        config = StoreConfig(fixtures_dir=tmp_path / "nope", cache_dir=tmp_path)
        with pytest.raises(NotFound) as raised:
            fetch_curve_record("99999zz9", REMOTE_FIRST, config)
        assert not isinstance(raised.value, FixtureMissing)  # the database had no record

    def test_remote_404_falls_back_to_fixture(self, tmp_path, monkeypatch):
        def gone(url, timeout):
            raise urllib.error.HTTPError(url, 404, "not found", {}, None)

        monkeypatch.setattr("urllib.request.urlopen", gone)
        record = fetch_curve_record("1058d1", REMOTE_FIRST, offline_config(tmp_path))
        assert record == fetch_curve_record("1058d1", OFFLINE_ONLY, offline_config(tmp_path))
        assert record.provenance == LOCAL_FIXTURE


class TestNoHomeDirectory:
    """A run with no cache dir given and no home directory, as under an
    arbitrary uid with HOME unset and no passwd entry."""

    @pytest.fixture(autouse=True, params=["path-home-raises", "no-home-no-passwd"])
    def _no_home(self, request, monkeypatch):
        if request.param == "path-home-raises":

            def no_home():
                raise RuntimeError("Could not determine home directory.")

            monkeypatch.setattr(Path, "home", no_home)
        else:

            def no_passwd_entry(uid):
                raise KeyError(f"getpwuid(): uid not found: {uid}")

            monkeypatch.delenv("HOME", raising=False)
            monkeypatch.setattr("pwd.getpwuid", no_passwd_entry)

    def test_offline_lookup_prints_the_same_certificate(self, capsys, tmp_path):
        argv = ["analyze", "--label", "11a1", "-p", "5", "--offline"]
        assert default_config().cache_dir is None
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr() == (out, "")

    def test_remote_fetch_has_no_cache_to_write(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: _FakeResponse(TestRemote.PAYLOAD)
        )
        assert main(["analyze", "--label", "37a1", "-p", "7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no cache dir for 37a1: set --cache-dir")
        assert "--cache-dir" in err and "SHACLASS_CACHE_DIR" in err
        assert err.count("\n") == 1  # one error line, no traceback


class TestRecordValidation:
    def test_structure_order_consistency(self):
        with pytest.raises(InvalidInput):
            ExternalCurveRecord("x1a1", None, 0, (), 25, (5,), (), LOCAL_FIXTURE)

    def test_sha_rank_divides_order(self):
        with pytest.raises(InvalidInput):
            ExternalCurveRecord(
                "x1a1", None, 0, (), 5, None, ((5, 2),), LOCAL_FIXTURE
            )

    def test_sha_rank_needs_p_at_least_2(self):
        # valuation(n, 1) never ends and valuation(n, 0) divides by zero
        for p in (0, 1):
            text = f"label = x1a1\nmw_rank = 0\nsha_order = 5\nsha_rank_{p} = 1\n"
            with pytest.raises(InvalidInput):
                parse_record_text(text, LOCAL_FIXTURE)

    @pytest.mark.parametrize("key", ["sha_rank_\u0665", "sha_rank_", "sha_rank_5a", "sha_rank_ 5", "sha_rank_+5"])
    def test_sha_rank_key_takes_ascii_digits_only(self, key):
        # int() reads the Arabic-Indic five as 5; the key names no p
        text = f"label = x1a1\nmw_rank = 0\nsha_order = 25\n{key} = 0\n"
        with pytest.raises(SchemaDrift, match="malformed key"):
            parse_record_text(text, LOCAL_FIXTURE)

    @pytest.mark.parametrize(
        "line",
        ["mw_rank = \u0662", "sha_order = 2_5", "torsion_structure = \u0665", "ainvs = 0,-1,1,-1_0,-20",
         "sha_rank_5 = \u0660", "mw_rank = +\u0660"],
    )
    def test_record_value_takes_ascii_digits_only(self, line):
        # int() reads the Arabic-Indic two as 2 and 2_5 as 25
        text = f"label = x1a1\nmw_rank = 0\nsha_order = 25\n{line}\n"
        with pytest.raises(SchemaDrift, match="non-integer value"):
            parse_record_text(text, LOCAL_FIXTURE)

    def test_one_sha_rank_per_p(self):
        # sha_rank_05 and sha_rank_5 both name p = 5, with ranks that disagree
        text = "label = x1a1\nmw_rank = 0\nsha_order = 25\nsha_rank_05 = 0\nsha_rank_5 = 2\n"
        with pytest.raises(InvalidInput, match="more than one rank"):
            parse_record_text(text, LOCAL_FIXTURE)
        with pytest.raises(InvalidInput, match="more than one rank"):
            ExternalCurveRecord("x1a1", None, 0, (), 25, None, ((5, 2), (5, 2)), LOCAL_FIXTURE)

    @pytest.mark.parametrize("torsion", [(0,), (0, -5), (-5,), (2, 0)])
    def test_torsion_factor_below_one_rejected(self, torsion):
        # scenarios would count each such entry as p-torsion (0 % 5 == -5 % 5 == 0)
        with pytest.raises(InvalidInput):
            ExternalCurveRecord("27a1", (0, 0, 1, 0, -7), 0, torsion, 1, None)
        text = "label = 27a1\nainvs = 0,0,1,0,-7\nmw_rank = 0\nsha_order = 1\n"
        text += "torsion_structure = " + ",".join(map(str, torsion)) + "\n"
        with pytest.raises(InvalidInput):
            parse_record_text(text, LOCAL_FIXTURE)

    @pytest.mark.parametrize(
        "torsion",
        # three factors, n1 not dividing n2, and shapes n1 | n2 that no curve over Q has
        [(5, 5, 5), (2, 2, 2), (2, 3), (4, 2), (11,), (3, 3), (2, 10), (1, 5)],
    )
    def test_torsion_outside_mazurs_list_rejected(self, torsion):
        with pytest.raises(InvalidInput, match="no torsion group over Q"):
            ExternalCurveRecord("x1a1", None, 0, torsion, 1, None)
        text = "label = x1a1\nmw_rank = 0\nsha_order = 1\n"
        text += "torsion_structure = " + ",".join(map(str, torsion)) + "\n"
        with pytest.raises(InvalidInput, match="no torsion group over Q"):
            parse_record_text(text, LOCAL_FIXTURE)

    def test_every_torsion_group_over_q_accepted(self):
        # Mazur: Z/n for n <= 10 or 12, Z/2 x Z/2n for n <= 4, and the trivial group
        shapes = [(), *((n,) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)), (2, 2), (2, 4), (2, 6), (2, 8)]
        for torsion in shapes:
            assert ExternalCurveRecord("x1a1", None, 0, torsion, 1, None).torsion_structure == torsion
        assert MAZUR_TORSION == frozenset(shapes)

    def test_sha_p_rank_resolution_order(self):
        rec = ExternalCurveRecord(
            "x1a1", None, 0, (), 50, (5, 10), ((3, 0),), LOCAL_FIXTURE
        )
        assert rec.sha_p_rank(3) == 0  # explicit entry wins
        assert rec.sha_p_rank(5) == 2  # from the invariant factors
        assert rec.sha_p_rank(7) == 0  # order coprime to 7

    def test_replace_validates(self):
        rec = ExternalCurveRecord("x1a1", None, 0, (), 25, (5, 5))
        assert rec._replace(mw_rank=2).mw_rank == 2
        with pytest.raises(InvalidInput):
            rec._replace(mw_rank=-1)
        with pytest.raises(InvalidInput):
            rec._replace(sha_structure=(0, 7))


class TestOverrides:
    def test_user_overrides_win(self, tmp_path):
        base = fetch_curve_record("1058d1", OFFLINE_ONLY, offline_config(tmp_path))
        updated = apply_user_overrides(base, mw_rank=1, sha_order=625)
        assert updated.mw_rank == 1
        assert updated.sha_order == 625
        assert updated.provenance == USER_SUPPLIED

    def test_no_overrides_no_change(self, tmp_path):
        base = fetch_curve_record("1058d1", OFFLINE_ONLY, offline_config(tmp_path))
        assert apply_user_overrides(base) is base

    def test_no_record_and_no_values_is_none(self):
        assert apply_user_overrides(None) is None
        assert apply_user_overrides(None, ainvs=(0, 1, 1, -2, 0)) is None

    @pytest.mark.parametrize("values", [{"sha_order": 4}, {"sha_structure": (2, 2)}])
    def test_sha_data_without_a_record_needs_mw_rank(self, values):
        with pytest.raises(InvalidInput, match="needs --mw-rank"):
            apply_user_overrides(None, ainvs=(0, 1, 1, -2, 0), **values)

    def test_no_record_starts_a_user_curve(self):
        rec = apply_user_overrides(None, mw_rank=1, sha_order=4, ainvs=(0, 1, 1, -2, 0))
        assert (rec.label, rec.ainvs, rec.provenance) == ("user-curve", (0, 1, 1, -2, 0), USER_SUPPLIED)
        assert (rec.mw_rank, rec.sha_order, rec.sha_structure, rec.torsion_structure) == (1, 4, None, ())


class TestScenarios:
    def _record(self, **kw):
        defaults = dict(
            label="x1a1",
            ainvs=None,
            mw_rank=0,
            torsion_structure=(),
            sha_order=None,
            sha_structure=None,
            sha_p_ranks=(),
            provenance=LOCAL_FIXTURE,
        )
        defaults.update(kw)
        return ExternalCurveRecord(**defaults)

    def test_featured_ambiguous_order(self, tmp_path):
        record = fetch_curve_record(
            "423801ci1", OFFLINE_ONLY, offline_config(tmp_path)
        )
        scenario = selmer_rank_scenarios(record, 5, True)
        assert scenario.possible_dims == (2, 4)
        scenario_loose = selmer_rank_scenarios(record, 5, True, assume_sha_finite=False)
        assert scenario_loose.possible_dims == (1, 2, 3, 4)

    def test_featured_known_rank(self, tmp_path):
        record = fetch_curve_record("1058d1", OFFLINE_ONLY, offline_config(tmp_path))
        assert selmer_rank_scenarios(record, 5, True).possible_dims == (2,)

    def test_rank_two_companion(self, tmp_path):
        record = fetch_curve_record("1058c1", OFFLINE_ONLY, offline_config(tmp_path))
        assert selmer_rank_scenarios(record, 5, True).possible_dims == (2,)

    def test_coprime_sha(self):
        rec = self._record(mw_rank=1, sha_order=9)
        scenario = selmer_rank_scenarios(rec, 5, True)
        assert scenario.possible_dims == (1,)

    def test_torsion_counts_without_irreducibility(self):
        rec = self._record(mw_rank=0, sha_order=1, sha_structure=(), torsion_structure=(5,))
        assert selmer_rank_scenarios(rec, 5, False).possible_dims == (1,)
        assert selmer_rank_scenarios(rec, 5, False).notes
        assert selmer_rank_scenarios(rec, 5, True).possible_dims == (0,)

    def test_insufficient_data(self):
        rec = self._record(mw_rank=2)
        with pytest.raises(InsufficientData):
            selmer_rank_scenarios(rec, 5, True)

    def test_every_dim_is_mw_plus_rank(self):
        rec = self._record(mw_rank=3, sha_order=5**6)
        scenario = selmer_rank_scenarios(rec, 5, True)
        assert scenario.possible_dims == (5, 7, 9)  # ranks 2, 4, 6
        for dim in scenario.possible_dims:
            assert (dim - 3) % 2 == 0  # even Sha rank under finiteness

    def test_odd_valuation_fallback(self):
        # a finite Sha has square order, so #Sha = 5 contradicts the assumption;
        # without it, rank 1 is the one scenario
        rec = self._record(mw_rank=0, sha_order=5)
        with pytest.raises(InvalidInput, match="--no-assume-sha-finite"):
            selmer_rank_scenarios(rec, 5, True)
        scenario = selmer_rank_scenarios(rec, 5, True, assume_sha_finite=False)
        assert scenario.possible_dims == (1,)
        assert scenario.notes == ()

    @pytest.mark.parametrize(
        "fields",
        [
            dict(sha_order=3 * 5**3),  # v_5(#Sha) = 3 is odd
            dict(sha_order=125, sha_p_ranks=((5, 2),)),  # an even rank, but #Sha[5^inf] = 5^3
            dict(sha_order=None, sha_p_ranks=((5, 1),)),
            dict(sha_order=5**4, sha_structure=(5, 5, 25)),  # Sha[5] has odd rank 3
            # an even rank and an even v_5, but Z/5 + Z/125 is no A x A
            dict(sha_order=5**4, sha_structure=(5, 125)),
            dict(sha_order=5**6, sha_structure=(5, 5, 5, 125)),
        ],
    )
    def test_p_part_that_cannot_be_a_square(self, fields):
        rec = self._record(mw_rank=1, **fields)
        with pytest.raises(InvalidInput, match="Sha\\[5\\^infinity\\] cannot be A x A"):
            selmer_rank_scenarios(rec, 5, True)
        assert selmer_rank_scenarios(rec, 5, True, assume_sha_finite=False).possible_dims
        # only the 5-part is read: where #Sha is prime to 3, Sha[3] = 0 stands
        if fields["sha_order"] is not None and fields["sha_order"] % 3:
            assert selmer_rank_scenarios(rec, 3, True).possible_dims == (1,)

    def test_p_part_that_pairs_up(self):
        rec = self._record(mw_rank=0, sha_order=3**2 * 5**6, sha_structure=(15, 15, 25, 25))
        assert selmer_rank_scenarios(rec, 5, True).sha_ranks == (4,)
        assert selmer_rank_scenarios(rec, 3, True).sha_ranks == (2,)
        assert selmer_rank_scenarios(rec, 7, True).sha_ranks == (0,)

    def test_sha_rank_behind_each_dim(self):
        rec = self._record(mw_rank=1, sha_order=5**3, torsion_structure=(5,))
        scenario = selmer_rank_scenarios(rec, 5, False, assume_sha_finite=False)
        assert scenario.sha_ranks == (1, 2, 3)
        assert scenario.possible_dims == (3, 4, 5)  # 1 + r + 1 from torsion
        known = self._record(mw_rank=0, sha_order=25, sha_structure=(5, 5))
        assert selmer_rank_scenarios(known, 5, True).sha_ranks == (2,)

    @pytest.mark.parametrize("p", [1, 2, 9])
    def test_p_not_an_odd_prime_is_invalid_input(self, p):
        # 1 divides the order infinitely often, 2 is not odd, and 9 is no
        # prime, so an "F_9-rank of Sha[9]" would mean nothing
        with time_limit(2), pytest.raises(InvalidInput, match="odd prime"):
            selmer_rank_scenarios(self._record(sha_order=81), p, True)

    def test_order_prime_to_p_without_rank_raises(self, monkeypatch):
        monkeypatch.setattr(ExternalCurveRecord, "sha_p_rank", lambda self, p: None)
        with pytest.raises(ArithmeticError, match="Sha order 9"):
            selmer_rank_scenarios(self._record(sha_order=9), 5, True)
