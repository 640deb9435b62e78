"""tools/tier1_gate.py passes a JUnit report only when exactly the by-design
failure failed; each case below is a small report in the shape pytest writes."""

import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "tools" / "tier1_gate.py"

AS_STATED = ("tests.test_acceptance", "test_criterion_01_example_1_as_stated")
BATCH = ("tests.test_cli.TestAnalyze", "test_batch")
# pytest reports a module that fails to collect with an empty classname
BROKEN_MODULE = ("", "tests.test_engine")


def junit(cases):
    """A JUnit report of (classname, name, outcome) cases, where outcome is
    None (passed), "failure" or "error"."""
    body = "".join(
        f'<testcase classname="{cls}" name="{name}">'
        + (f'<{outcome} message="boom">boom</{outcome}>' if outcome else "")
        + "</testcase>"
        for cls, name, outcome in cases
    )
    return (
        '<?xml version="1.0" encoding="utf-8"?>'
        f'<testsuites><testsuite name="pytest">{body}</testsuite></testsuites>'
    )


@pytest.mark.parametrize(
    "cases, code, line",
    [
        (
            [(*AS_STATED, "failure"), (*BATCH, None)],
            0,
            "tier-1 gate: ok",
        ),
        (
            [(*AS_STATED, "failure"), (*BATCH, "failure")],
            1,
            "unexpected failure: tests/test_cli.py::TestAnalyze::test_batch",
        ),
        (
            [(*AS_STATED, None), (*BATCH, None)],
            1,
            "expected to fail, but did not fail: "
            "tests/test_acceptance.py::test_criterion_01_example_1_as_stated",
        ),
        (
            [(*AS_STATED, "failure"), (*BATCH, None), (*BROKEN_MODULE, "error")],
            1,
            "unexpected failure: tests.test_engine",
        ),
    ],
    ids=["only-by-design", "one-more-fails", "by-design-passes", "collection-error"],
)
def test_gate_exit_code(tmp_path, cases, code, line):
    report = tmp_path / "tier1.xml"
    report.write_text(junit(cases))
    proc = subprocess.run(
        [sys.executable, str(GATE), str(report)], capture_output=True, text=True
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert any(out.startswith(line) for out in proc.stdout.splitlines()), proc.stdout
