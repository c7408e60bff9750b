"""Shared pytest configuration; keeps tests/ importable for oracles.py."""

import numpy as np
import pytest


@pytest.fixture
def refuse_large_aranges(monkeypatch):
    """np.arange raises instead of allocating 2^20 entries or more, so a
    guard that lets a 2^30-rule listing through fails without gigabytes."""
    real = np.arange

    def arange(*args, **kwargs):
        assert args[0] < 1 << 20, f"np.arange({args[0]}) would allocate"
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "arange", arange)
