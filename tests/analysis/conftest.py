"""Analysis test fixtures."""

from __future__ import annotations

import pytest

from repro.gpusim import hooks


@pytest.fixture(autouse=True)
def _no_sanitizer_leakage():
    """Every test starts and ends without an ambient sanitizer session."""
    assert hooks.SESSION.get() is None
    yield
    assert hooks.SESSION.get() is None
