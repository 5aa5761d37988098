"""Suite-wide fixtures."""

import os
from pathlib import Path

import pytest
from mpmath import mp

from indexkernels import config

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the suite runs at the configured precision; importing the package sets
# none
mp.dps = config.get().dps


@pytest.fixture
def src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH: a
    `python -m indexkernels.cli` child does not see pytest's pythonpath
    setting, so without it the child imports nothing or another copy."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


@pytest.fixture(autouse=True)
def mp_prec_unchanged():
    """Fail a test that leaves mpmath's global precision changed: library
    calls, and tests that raise it, must restore it."""
    before = mp.prec
    yield
    after = mp.prec
    if after != before:
        mp.prec = before  # keep the tests that follow at the old precision
        pytest.fail("test left mp.prec at %d, it was %d" % (after, before))

