#!/usr/bin/env python3
"""Pass a tier-1 test run only if exactly the by-design failure failed.

Reads the JUnit XML that pytest writes with --junitxml.  Exits 0 when the
set of failed or errored tests is exactly EXPECTED_FAILURES, and 1 otherwise,
naming each unexpected failure and each expected failure that did not fail.
test_criterion_01_example_1_as_stated fails by design (see README), so the
gate also goes red if it starts passing or stops running.

Usage: python3 tools/tier1_gate.py JUNIT_XML
"""

import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_FAILURES = {"tests/test_acceptance.py::test_criterion_01_example_1_as_stated"}


def node_id(case):
    """pytest node id of a <testcase>, e.g. classname tests.test_cli.TestAnalyze
    and name test_batch give tests/test_cli.py::TestAnalyze::test_batch."""
    parts = case.get("classname", "").split(".")
    for i in range(len(parts), 0, -1):
        path = "/".join(parts[:i]) + ".py"
        if (ROOT / path).is_file():
            return "::".join([path, *parts[i:], case.get("name", "")])
    return case.get("name", "")  # a collection error names only the module


def failed_tests(junit_path):
    return {
        node_id(case)
        for case in ET.parse(junit_path).getroot().iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    failed = failed_tests(argv[1])
    for test in sorted(failed - EXPECTED_FAILURES):
        print(f"unexpected failure: {test}")
    for test in sorted(EXPECTED_FAILURES - failed):
        print(f"expected to fail, but did not fail: {test}")
    if failed != EXPECTED_FAILURES:
        return 1
    print(f"tier-1 gate: ok, only the by-design failure ({len(failed)}) failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
