"""Observability test fixtures."""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _no_obs_leakage():
    """Every test starts and ends with observability off."""
    assert obs.session() is None
    yield
    assert obs.session() is None
