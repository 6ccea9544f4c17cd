# Makes this directory importable so tests can share the oracle helpers.

import pytest

import shq.linalg
import shq.pipeline


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


@pytest.fixture
def corrupt_localize_row(monkeypatch):
    """Add one to the a = 1 entry of every localized row the pipeline
    computes; the other entries are left alone."""
    real = shq.pipeline.localize_row

    def corrupted(m, n, weights):
        row = list(real(m, n, weights))
        row[1] += 1
        return tuple(row)

    monkeypatch.setattr(shq.pipeline, "localize_row", corrupted)
