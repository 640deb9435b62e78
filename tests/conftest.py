import importlib.util
import json
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS_DIR))

DATA_DIR = TESTS_DIR / "data"


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once seconds have passed, by SIGALRM,
    so that a loop that never ends fails its test instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def tate_corpus():
    return json.loads((DATA_DIR / "tate_corpus.json").read_text())


@pytest.fixture(scope="session")
def image_corpus():
    return json.loads((DATA_DIR / "image_corpus.json").read_text())


@pytest.fixture(scope="session")
def gen_golden():
    """tools/gen_golden.py as a module: the tables the goldens were written from."""
    spec = importlib.util.spec_from_file_location("gen_golden", TESTS_DIR.parent / "tools" / "gen_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _offline_env(monkeypatch):
    """Tests never touch the network unless they explicitly opt in."""
    monkeypatch.delenv("SHACLASS_OFFLINE", raising=False)
    monkeypatch.delenv("SHACLASS_CACHE_DIR", raising=False)
