"""Constructing graded matrices and presentations: every refusal, each
relation coefficient read once, when the object is built, and no Novikov
scalar read to build a matrix."""

import pytest

from shq.linalg import LambdaMatrix, char_poly, spectrum
from shq.novikov import F2, GradingContext, Novikov, QQ
from shq.pipeline import build_r_matrix, compute_sh
from shq.ring import RingElement, RingPresentation, is_nilpotent, multiplication_matrix

zero, one, t = Novikov.zero(QQ), Novikov.one(QQ), Novikov.t(QQ)


def matrix(change=None, unknown=((2, 1, 1),), grading=GradingContext(2)):
    """A valid graded 3x3 matrix with one unknown (N*d = i - j + 1 at
    N = 2), rows ((0, 1, 0), (t, 0, 1), (0, 0, 0)), or the same with the
    value at t = 1 of entry (i, j) replaced: change = (i, j, c)."""
    rows = [{1: 1}, {0: 1, 2: 1}, {}]
    if change is not None:
        i, j, c = change
        rows[i][j] = c
    return LambdaMatrix(QQ, grading, rows, unknown)


def qh_element(coeffs):
    """An element of w^2 + t^2 at N = 1."""
    qh = RingPresentation("omega", (Novikov.t(QQ, 2), zero, one), GradingContext(1))
    return qh, RingElement(qh, coeffs)


def presentation(relation=None, unknown=((0, 2),), generator="omega"):
    """w^4 + 3t*w^2 + ?*t^2 at N = 2, or the given relation."""
    if relation is None:
        relation = (zero, zero, Novikov.monomial(QQ, 3, 1), zero, one)
    return RingPresentation(generator, relation, GradingContext(2), unknown)


REFUSALS = {
    "matrix-mixed-fields": lambda: matrix(unknown=())
    * LambdaMatrix(F2, GradingContext(2), [{}] * 3),
    "matrix-non-square": lambda: matrix((0, 3, 1)),
    "matrix-empty": lambda: LambdaMatrix(QQ, GradingContext(2), ()),
    "matrix-non-monomial-entry": lambda: multiplication_matrix(*qh_element((zero, one + t))),
    "matrix-off-grading-entry": lambda: matrix((0, 0, 1)),
    "matrix-off-grading-unknown": lambda: matrix(unknown=((2, 1, 2),)),
    "matrix-out-of-range-unknown": lambda: matrix(unknown=((2, 3, 1),)),
    "matrix-nonzero-placeholder": lambda: matrix(unknown=((1, 0, 1),)),
    "relation-unknown-generator": lambda: presentation(generator="x"),
    "relation-non-monic": lambda: presentation(
        (zero, zero, zero, zero, Novikov.constant(QQ, 2)), ()
    ),
    "relation-empty": lambda: presentation((), ()),
    "relation-non-monomial-coefficient": lambda: presentation(
        (zero, zero, Novikov.monomial(QQ, 3, 1) + one, zero, one)
    ),
    "relation-off-grading-coefficient": lambda: presentation(
        (zero, zero, Novikov.monomial(QQ, 3, 2), zero, one)
    ),
    "relation-off-grading-unknown": lambda: presentation(unknown=((0, 1),)),
    "relation-out-of-range-unknown": lambda: presentation(unknown=((4, 1),)),
    "relation-nonzero-unknown-slot": lambda: presentation(unknown=((2, 1),)),
}


def test_the_unchanged_objects_construct():
    assert matrix().unknown == {(2, 1, 1)}
    assert presentation().unknown_terms == ((0, 2),)


@pytest.mark.parametrize("build", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_construction_refusal(build):
    with pytest.raises(ValueError):
        build()


# -- reads ---------------------------------------------------------------------


@pytest.fixture
def reads(monkeypatch):
    """The scalars whose monomial_parts is called, one item per call."""
    seen = []
    original = Novikov.monomial_parts

    def counted(self):
        seen.append(self)
        return original(self)

    monkeypatch.setattr(Novikov, "monomial_parts", counted)
    return seen


@pytest.mark.parametrize("m, n", [(16, 8), (12, 1), (12, 13)])
def test_a_graded_matrix_is_read_at_construction(reads, m, n):
    # the rows at t = 1 are checked when the matrix is built, and no
    # Novikov scalar is read for it
    r = build_r_matrix(m, n)
    assert LambdaMatrix(QQ, r.grading, r.rows) == r
    assert not reads
    # after construction only the checked coefficients a_k are read
    reads.clear()
    cp = spectrum(r)[0]
    nonzero = sum(1 for a in cp.a if a)
    assert len(reads) <= nonzero
    reads.clear()
    char_poly(r)
    assert len(reads) <= nonzero


def test_a_graded_relation_is_read_at_construction(reads):
    qh = compute_sh(16, 8, trials=1).qh
    reads.clear()
    rebuilt = RingPresentation(qh.generator, qh.relation, qh.grading)
    assert sum(1 for x in reads if any(x is c for c in qh.relation)) == sum(
        1 for c in qh.relation if c
    )
    c1 = rebuilt.gen() * -8
    reads.clear()
    is_nilpotent(rebuilt, c1)
    multiplication_matrix(rebuilt, c1)
    assert reads, "the element is read"
    assert not any(x is c for x in reads for c in rebuilt.relation)
