# Makes this directory importable so tests can share the oracle helpers.

import contextlib
import signal

import pytest

import shq.linalg
import shq.pipeline
from shq.novikov import Novikov


@contextlib.contextmanager
def budget(seconds: int, message: str):
    """Raise TimeoutError(message) in the block once seconds have passed
    (SIGALRM), and restore the previous handler on the way out."""

    def timed_out(signum, frame):
        raise TimeoutError(message)

    old = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def constructions(monkeypatch):
    """The Novikov scalars built, one (field, coeff, power) item per
    Novikov.__init__ call."""
    built = []
    original = Novikov.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(Novikov, "__init__", counted)
    return built


@pytest.fixture
def corrupt_char_poly(monkeypatch):
    """Double every coefficient of the first characteristic polynomial
    the Krylov solve returns; later calls are left alone.  Clearing the
    list the fixture returns arms it again."""
    real = shq.linalg._solve
    calls = []

    def corrupted(op):
        c = real(op)
        calls.append(op)
        if len(calls) > 1:
            return c
        return [x + x for x in c]

    monkeypatch.setattr(shq.linalg, "_solve", corrupted)
    return calls


@pytest.fixture
def corrupt_every_char_poly(monkeypatch):
    """Double every coefficient of every characteristic polynomial the
    Krylov solve returns."""
    real = shq.linalg._solve
    monkeypatch.setattr(shq.linalg, "_solve", lambda op: [x + x for x in real(op)])


@pytest.fixture
def corrupt_localize_row(monkeypatch):
    """Add one to the a = 1 entry of every localized row the pipeline
    computes, exact or a residue row mod p; the other entries are left
    alone."""
    real = shq.pipeline.localize_row

    def corrupted(m, n, weights, p=0):
        row = list(real(m, n, weights, p))
        row[1] += 1
        return tuple(row)

    monkeypatch.setattr(shq.pipeline, "localize_row", corrupted)
