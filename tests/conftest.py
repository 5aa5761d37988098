"""Suite-wide fixtures."""

import pytest
from mpmath import mp


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
