import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shaclass
from shaclass.cli import (
    EXIT_CAPACITY,
    EXIT_FIXTURE_MISSING,
    EXIT_INVALID_INPUT,
    EXIT_NETWORK,
    EXIT_OK,
    _build_parser,
    main,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _assert_p_refused_without_sympy(argv):
    """main(argv) in a fresh interpreter exits 2 on the bound on p, with sympy never imported."""
    code = (
        "import sys; from shaclass.cli import main; "
        f"code = main({argv!r}); "
        "print(code, 'sympy' in sys.modules)"
    )
    src = str(Path(shaclass.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == f"{EXIT_INVALID_INPUT} False\n"
    assert proc.stderr.startswith("error: p must be at most 1000000")


class TestAnalyze:
    def test_by_label_offline(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--label", "1058d1", "-p", "5", "--offline"
        )
        assert code == EXIT_OK
        assert "a_p = 2" in out
        assert "SurjectiveCertified" in out
        assert "unramified abelian extension with group E[p]: Yes" in out

    def test_by_coefficients_same_certificate(self, capsys):
        code1, by_label, _ = run(
            capsys,
            "analyze", "--label", "1058d1", "-p", "5", "--offline", "--format", "json",
        )
        code2, by_coeffs, _ = run(
            capsys,
            "analyze",
            "--curve", "1,-1,0,-332311,-73733731",
            "-p", "5",
            "--offline",
            "--mw-rank", "0",
            "--sha-order", "25",
            "--sha-structure", "5,5",
            "--format", "json",
        )
        assert code1 == code2 == EXIT_OK
        a, b = json.loads(by_label), json.loads(by_coeffs)
        # identical mathematical facts; identity and data provenance differ
        for key in ("a_p", "local_data", "t_set", "bounds", "ledgers",
                    "unramified_extension_exists", "equality_note", "image_status"):
            assert a[key] == b[key], key

    def test_featured_converse_curve(self, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--label", "423801ci1", "-p", "5", "--offline", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["selmer"]["possible_dims"] == [2, 4]
        assert doc["bounds"] == {
            "2": {"lower": 1, "upper": 2},
            "4": {"lower": 3, "upper": 4},
        }
        assert doc["equality_note"] is True

    def test_invalid_p(self, capsys):
        code, _, err = run(capsys, "analyze", "--label", "1058d1", "-p", "6", "--offline")
        assert code == EXIT_INVALID_INPUT
        assert "odd prime" in err

    def test_both_inputs_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "analyze", "--label", "1058d1", "--curve", "[0,1]", "-p", "5", "--offline",
        )
        assert code == EXIT_INVALID_INPUT

    def test_missing_fixture_offline(self, capsys):
        code, _, err = run(capsys, "analyze", "--label", "12345a1", "-p", "5", "--offline")
        assert code == EXIT_FIXTURE_MISSING

    def test_offline_makes_no_network_calls(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("network touched with --offline")

        monkeypatch.setattr("urllib.request.urlopen", boom)
        code, _, _ = run(capsys, "analyze", "--label", "1058d1", "-p", "5", "--offline")
        assert code == EXIT_OK

    def test_network_failure_exit_code(self, capsys, monkeypatch):
        import urllib.error

        def refuse(*a, **k):
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        monkeypatch.setattr("time.sleep", lambda s: None)
        code, _, err = run(
            capsys,
            "analyze", "--label", "999999zz99", "-p", "5",
            "--fixtures", "/nonexistent",
            "--cache-dir", "/tmp/shaclass-test-empty-cache",
        )
        assert code == EXIT_NETWORK

    def test_inconclusive_is_still_exit_zero(self, capsys):
        # 11a1 at p = 5: ledger fails, no bounds, but that is a valid result
        code, out, _ = run(capsys, "analyze", "--label", "11a1", "-p", "5", "--offline")
        assert code == EXIT_OK
        assert "bounds: not emitted" in out

    def test_batch(self, capsys, tmp_path):
        batch = tmp_path / "labels.txt"
        batch.write_text("1058d1\n1058c1\n")
        code, out, _ = run(
            capsys, "analyze", "--batch", str(batch), "-p", "5", "--offline",
            "--workers", "2",
        )
        assert code == EXIT_OK
        assert out.count("curve 1058") == 2

    def test_batch_label_fails_on_its_own(self, capsys, tmp_path):
        batch = tmp_path / "labels.txt"
        batch.write_text("1058d1\n12345a1\n1058c1\n")
        code, out, err = run(
            capsys, "analyze", "--batch", str(batch), "-p", "5", "--offline",
            "--format", "json",
        )
        # the exit code the failing label gives on its own
        assert code == EXIT_FIXTURE_MISSING
        assert run(capsys, "analyze", "--label", "12345a1", "-p", "5", "--offline")[0] == code
        decoder = json.JSONDecoder()
        first, end = decoder.raw_decode(out)
        second, _ = decoder.raw_decode(out, end + 1)
        assert [first["label"], second["label"]] == ["1058d1", "1058c1"]
        assert "error: 12345a1:" in err

    def test_record_file_not_utf8_is_invalid_input(self, capsys, tmp_path):
        # exit 2 on its own; in a batch the next label still runs
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "99a1.txt").write_bytes(
            b"label = 99a1\nainvs = 0,1,1,-2,0\nmw_rank = 2\xff\n"
        )
        code, out, err = run(
            capsys, "analyze", "--label", "99a1", "-p", "5", "--offline",
            "--cache-dir", str(cache),
        )
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err.startswith("error: record file for 99a1") and "Traceback" not in err
        batch = tmp_path / "labels.txt"
        batch.write_text("99a1\n1058d1\n")
        code, out, err = run(
            capsys, "analyze", "--batch", str(batch), "-p", "5", "--offline",
            "--cache-dir", str(cache), "--format", "json",
        )
        assert code == EXIT_INVALID_INPUT
        assert json.loads(out)["label"] == "1058d1"
        assert err.startswith("error: 99a1: record file for 99a1")

    def test_record_file_unreadable_is_invalid_input(self, capsys, tmp_path, monkeypatch):
        # a process run as root reads a file whatever its mode, so the refusal is patched in
        read_text = Path.read_text

        def refuse_37a1(path, *args, **kwargs):
            if path.name == "37a1.txt":
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", refuse_37a1)
        code, out, err = run(capsys, "analyze", "--label", "37a1", "-p", "5", "--offline")
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err.startswith("error: record file for 37a1") and "Traceback" not in err
        batch = tmp_path / "labels.txt"
        batch.write_text("11a1\n37a1\n1058d1\n")
        code, out, err = run(
            capsys, "analyze", "--batch", str(batch), "-p", "5", "--offline", "--format", "json",
        )
        assert code == EXIT_INVALID_INPUT
        decoder = json.JSONDecoder()
        first, end = decoder.raw_decode(out)
        second, _ = decoder.raw_decode(out, end + 1)
        assert [first["label"], second["label"]] == ["11a1", "1058d1"]
        assert err.startswith("error: 37a1: record file for 37a1")

    def test_missing_batch_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "analyze", "--batch", str(tmp_path / "nope.txt"), "-p", "5", "--offline",
        )
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("extra", [("--curve", "[0,1]"), ("--label", "1058d1")])
    def test_batch_with_one_curve_is_one_usage_error(self, capsys, tmp_path, extra):
        batch = tmp_path / "labels.txt"
        batch.write_text("1058d1\n1058c1\n")
        code, out, err = run(
            capsys, "analyze", "--batch", str(batch), *extra, "-p", "5", "--offline",
        )
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.count("not allowed with") == 1
        assert "1058c1" not in err

    def test_no_curve_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze", "-p", "5", "--offline")
        assert code == EXIT_INVALID_INPUT
        assert "one of the arguments --label --curve --batch is required" in err

    def test_batch_output_does_not_depend_on_workers(self, capsys, tmp_path):
        labels = ["1058d1", "11a1", "389a1"]
        batch = tmp_path / "labels.txt"
        batch.write_text("".join(f"{label}\n" for label in labels))
        common = ("analyze", "--batch", str(batch), "-p", "5", "--offline")
        outputs = [
            run(capsys, *common, *workers)[1]
            for workers in ((), ("--workers", "1"), ("--workers", "4"))
        ]
        singles = "".join(
            run(capsys, "analyze", "--label", label, "-p", "5", "--offline")[1]
            for label in labels
        )
        assert outputs == [singles] * 3

    def test_import_starts_no_thread_pool(self):
        code = "import sys, shaclass.cli; print('concurrent.futures' in sys.modules)"
        src = str(Path(shaclass.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.strip() == "False"

    def test_import_and_run_load_no_dataclasses_or_fractions(self):
        # records are NamedTuples and j is built only when read, so neither
        # the import nor an analyze run pays for these modules
        heavy = ("dataclasses", "fractions", "decimal", "inspect")
        code = (
            "import contextlib, io, sys\n"
            f"heavy = {heavy!r}\n"
            "import shaclass.cli\n"
            "print(*[m for m in heavy if m in sys.modules])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    shaclass.cli.main(['analyze', '--label', '389a1', '-p', '5', '--offline'])\n"
            "print(*[m for m in heavy if m in sys.modules])\n"
        )
        src = str(Path(shaclass.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.splitlines() == ["", ""]

    def test_p3_surjective_run_imports_no_sympy(self):
        code = (
            "import sys; from shaclass.cli import main; "
            "code = main(['analyze', '--label', '37a1', '-p', '3', '--offline']); "
            "print(code, 'sympy' in sys.modules)"
        )
        src = str(Path(shaclass.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert "SurjectiveCertified" in proc.stdout
        assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False"

    def test_fixture_runs_import_no_sympy(self):
        # every packaged fixture at each good p in {3, 5, 7}, the reducible
        # images of 11a1 at 5 and 1058c1 at 3 included; a scan shorter than
        # SCAN_PREFIX is test_galrep's
        # test_scan_shorter_than_the_prefix_tries_the_exact_factor
        code = (
            "import contextlib, io, sys\n"
            "from shaclass.cli import main\n"
            "from shaclass.selmerdata import packaged_fixtures_dir\n"
            "runs = [(path.stem, p) for path in sorted(packaged_fixtures_dir().glob('*.txt'))\n"
            "        for p in (3, 5, 7)]\n"
            "for label, p in runs:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        argv = ['analyze', '--label', label, '-p', str(p), '--offline']\n"
            "        code = main(argv)\n"
            "    status = [l for l in out.getvalue().splitlines() if 'mod-p image' in l]\n"
            "    print(label, p, code, *status)\n"
            "print('sympy' in sys.modules)\n"
        )
        src = str(Path(shaclass.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        *runs, sympy_loaded = proc.stdout.splitlines()
        assert sympy_loaded == "False"
        good = [r for r in runs if r.split()[2] == str(EXIT_OK)]
        # 423801ci1 has bad reduction at 3 and 7
        assert len(runs) == 21 and len(good) == 19
        assert "11a1 5 0   mod-p image: SmallImageCertified" in runs
        assert "1058c1 3 0   mod-p image: SmallImageCertified" in runs

    def test_refused_batch_sleeps_once(self, capsys, monkeypatch, tmp_path):
        import urllib.error

        fetches, sleeps = [], []

        def refuse(url, timeout):
            fetches.append(url)
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        monkeypatch.setattr("time.sleep", sleeps.append)
        batch = tmp_path / "labels.txt"
        batch.write_text("11a1\n37a1\n389a1\n")
        argv = ("analyze", "--batch", str(batch), "-p", "5", "--format", "json",
                "--cache-dir", str(tmp_path / "cache"))
        code, remote, _ = run(capsys, *argv)
        assert code == EXIT_OK
        # the first label tries twice with one backoff; the others go
        # straight to the packaged fixtures
        assert len(fetches) == 2 and sleeps == [1.0]
        code, offline, _ = run(capsys, *argv, "--offline")
        assert code == EXIT_OK and remote == offline

    def test_p3_t_set_at_2_by_kodaira_type(self, capsys):
        # 56a1 is I1* at 2, which has no 3-torsion in its component group,
        # so T = [7] (nonsplit I1) and the upper bound is d + 1
        flags = ("-p", "3", "--mw-rank", "0", "--sha-order", "1", "--offline")
        code, out, _ = run(capsys, "analyze", "--curve", "0,0,0,1,2", *flags)
        assert code == EXIT_OK
        assert "  T = [7]\n" in out
        assert "Selmer dim 0: 0 <= dim Hom <= 1\n" in out
        assert "provisional" not in out
        # I0* at 2 and I1* at 7: T is empty and the bound is an equality
        code, out, _ = run(capsys, "analyze", "--curve", "0,0,0,49,686", *flags)
        assert code == EXIT_OK
        assert "  T = []\n" in out
        assert "Selmer dim 0: 0 <= dim Hom <= 0\n" in out
        assert "  T empty: dim Hom_G equals" in out

    def test_factorization_too_hard_is_a_capacity_limit(self, capsys, tmp_path):
        # a valid curve whose discriminant leaves a composite cofactor above
        # 2^128 after trial division: exit 5, on its own and as a batch label
        ainvs = f"0,0,0,{10**45 + 1},{10**69 + 3}"
        code, out, err = run(capsys, "analyze", "--curve", ainvs, "-p", "5", "--offline")
        assert (code, out) == (EXIT_CAPACITY, "")
        assert err.startswith("error: cofactor ") and "exceeds 2^128" in err
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "99a1.txt").write_text(
            f"label = 99a1\nainvs = {ainvs}\nmw_rank = 0\ntorsion_structure = \n"
            "sha_order = 1\nsha_structure = \n"
        )
        batch = tmp_path / "labels.txt"
        batch.write_text("99a1\n")
        code, out, err = run(
            capsys, "analyze", "--batch", str(batch), "-p", "5", "--offline",
            "--fixtures", str(fixtures),
        )
        assert (code, out) == (EXIT_CAPACITY, "")
        assert err.startswith("error: 99a1: cofactor ")

    @pytest.mark.parametrize("structure", ["x", "5,,5", "0,7", "-5"])
    def test_bad_sha_structure_is_invalid_input(self, capsys, structure):
        code, out, err = run(
            capsys,
            "analyze", "--curve", "[0,1]", "-p", "7", "--offline", "--mw-rank", "0",
            "--sha-structure", structure,
        )
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flag", [("--sha-order", "1"), ("--sha-structure", "5,5")])
    def test_sha_data_for_a_curve_needs_mw_rank(self, capsys, flag):
        # 389a1's equation has rank 2; no rank may be made up for it
        code, out, err = run(
            capsys, "analyze", "--curve", "0,1,1,-2,0", "-p", "5", "--offline", *flag
        )
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err.startswith("error:") and "--mw-rank" in err

    @pytest.mark.parametrize("p", ["1000003", str(2**89 - 1)])
    def test_p_above_trial_division_bound_is_invalid_input(self, capsys, p):
        code, out, err = run(capsys, "analyze", "--label", "11a1", "-p", p, "--offline")
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err.startswith("error: p must be at most 1000000") and "Traceback" not in err

    @pytest.mark.parametrize("batch", [False, True])
    def test_big_p_is_refused_before_any_primality_test(self, tmp_path, batch):
        # the bound on p comes first, so 2^89 - 1 never reaches is_prime,
        # whose test at or above 3.3e24 imports sympy
        labels = tmp_path / "labels.txt"
        labels.write_text("11a1\n")
        source = ["--batch", str(labels)] if batch else ["--label", "11a1"]
        _assert_p_refused_without_sympy(["analyze", *source, "-p", str(2**89 - 1), "--offline"])

    def test_rho_step_budget_is_a_capacity_limit(self, capsys, monkeypatch):
        # the discriminant's cofactor, about 7e32, is below 2^128 but beyond
        # rho's budget; the budget is cut here to keep the run short, and
        # test_arith spends the full one on the same cofactor
        monkeypatch.setattr("shaclass.arith.RHO_STEP_BUDGET", 2**16)
        code, out, err = run(
            capsys, "analyze", "--curve", "0,0,0,10000000000000,1", "-p", "5", "--offline"
        )
        assert (code, out) == (EXIT_CAPACITY, "")
        assert err.startswith("error: cofactor ") and err.endswith(" rho steps\n")

    def test_offline_by_environment_missing_fixture(self, capsys, monkeypatch, tmp_path):
        # SHACLASS_OFFLINE=1 without --offline: the lookup's error type alone gives exit 4
        monkeypatch.setenv("SHACLASS_OFFLINE", "1")
        monkeypatch.setenv("SHACLASS_CACHE_DIR", str(tmp_path))
        for argv in (("analyze", "-p", "5"), ("tate",), ("invariants",)):
            code, out, err = run(capsys, *argv, "--label", "12345a1")
            assert (code, out) == (EXIT_FIXTURE_MISSING, "")
            assert err.startswith("error: no fixture or cached record for 12345a1")

    def test_sample_bound_is_not_an_option(self, capsys):
        # analyze always scans to galrep.DEFAULT_SAMPLE_BOUND
        code, out, err = run(
            capsys,
            "analyze", "--label", "11a1", "-p", "5", "--offline", "--sample-bound", "20",
        )
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert "unrecognized arguments: --sample-bound 20" in err


class TestSubcommands:
    def test_tate_table(self, capsys):
        code, out, _ = run(capsys, "tate", "--label", "1058d1", "--offline")
        assert code == EXIT_OK
        assert "v = 2" in out and "v = 23" in out
        assert out.count("c_v = 1") == 2

    def test_tate_single_prime(self, capsys):
        code, out, _ = run(
            capsys, "tate", "--curve", "1,-1,0,-332311,-73733731", "-v", "23", "--offline"
        )
        assert code == EXIT_OK
        assert "II*" in out

    @pytest.mark.parametrize("v", ["4", "-3"])
    def test_tate_bad_prime_prints_nothing(self, capsys, v):
        code, out, err = run(capsys, "tate", "--curve", "[0,1]", "-v", v)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error:") and "prime" in err

    def test_invariants(self, capsys):
        code, out, _ = run(capsys, "invariants", "--curve", "[0,1]")
        assert code == EXIT_OK
        assert "j = 0" in out
        assert "disc = -432" in out

    def test_cohomology_gl2(self, capsys):
        code, out, _ = run(
            capsys,
            "cohomology", "--p", "5",
            "--generators", "1,1,0,1;1,0,1,1;2,0,0,1",
        )
        assert code == EXIT_OK
        assert out == (
            "group order = 480\n"
            "h0 = 0\n"
            "h1 = 0\n"
            "central scalar 2 present: vanishing also follows without elimination\n"
        )

    def test_cohomology_unipotent(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--p", "5", "--generators", "1,1,0,1")
        assert code == EXIT_OK
        assert out == "group order = 5\nh0 = 1\nh1 = 1\n"

    @pytest.mark.parametrize("p, generators", [(2**89 - 1, "1,1,0,1"), (1000003, "1,0,0,1")])
    def test_cohomology_big_p_is_refused_before_any_primality_test(self, p, generators):
        # the bound analyze applies, even to a small group: 2^89 - 1 never
        # reaches is_prime, whose test at or above 3.3e24 imports sympy, nor
        # the group closure
        _assert_p_refused_without_sympy(["cohomology", "--p", str(p), "--generators", generators])

    @pytest.mark.parametrize("generators", ["1,1,0", "1,x,0,1"])
    def test_cohomology_bad_matrix(self, capsys, generators):
        code, _, err = run(capsys, "cohomology", "--p", "5", "--generators", generators)
        assert code == EXIT_INVALID_INPUT
        assert err.startswith("error:") and "Traceback" not in err

    def test_bad_curve_spec(self, capsys):
        code, _, err = run(capsys, "invariants", "--curve", "1,2")
        assert code == EXIT_INVALID_INPUT

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_INVALID_INPUT


def test_readme_command_line_names_every_option():
    # README's "## Command line" section and the parser name the same options
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])(--?[A-Za-z][\w-]*)", section))
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for subparser in sub.choices.values()
        for action in subparser._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    assert named - options == set(), "README names options the parser lacks"
    assert options - named == set(), "parser options README does not name"
