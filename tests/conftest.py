# Makes this directory importable so tests can share the oracle helpers.

import pytest

import shq.linalg


@pytest.fixture
def corrupt_berkowitz(monkeypatch):
    """Double every coefficient of the first characteristic polynomial
    the Berkowitz recurrence returns; later calls are left alone."""
    real = shq.linalg._berkowitz
    calls = []

    def corrupted(mat):
        cp = real(mat)
        calls.append(mat)
        if len(calls) > 1:
            return cp
        return shq.linalg.CharPoly(cp.size, tuple(c + c for c in cp.a))

    monkeypatch.setattr(shq.linalg, "_berkowitz", corrupted)
