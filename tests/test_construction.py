"""Constructing graded matrices and presentations: every refusal, no
Novikov scalar read to build a matrix, and none built from r's rows to
the checks on the QH presentation."""

import pytest

from shq.linalg import LambdaMatrix, char_poly, spectrum, stable_relation
from shq.novikov import F2, GradingContext, Novikov, QQ
from shq.pipeline import (
    _classical_omega_ring,
    build_r_matrix,
    compute_sh,
    result_to_dict,
    result_to_text,
)
from shq.ring import (
    RingPresentation,
    change_generator,
    is_nilpotent,
    multiplication_matrix,
    relation_str,
)

from oracles import presentation as oracle_presentation

zero, one = Novikov.zero(QQ), Novikov.one(QQ)


def matrix(change=None, unknown=((2, 1, 1),), grading=GradingContext(2)):
    """A valid graded 3x3 matrix with one unknown (N*d = i - j + 1 at
    N = 2), rows ((0, 1, 0), (t, 0, 1), (0, 0, 0)), or the same with the
    value at t = 1 of entry (i, j) replaced: change = (i, j, c)."""
    rows = [{1: 1}, {0: 1, 2: 1}, {}]
    if change is not None:
        i, j, c = change
        rows[i][j] = c
    return LambdaMatrix(QQ, grading, rows, unknown)


def presentation(relation=None, unknown=((0, 2),), generator="omega"):
    """w^4 + 3t*w^2 + ?*t^2 at N = 2, or the given relation."""
    if relation is None:
        relation = (zero, zero, Novikov.monomial(QQ, 3, 1), zero, one)
    return oracle_presentation(generator, relation, 2, unknown)


REFUSALS = {
    "matrix-mixed-fields": lambda: matrix(unknown=())
    * LambdaMatrix(F2, GradingContext(2), [{}] * 3),
    "matrix-non-square": lambda: matrix((0, 3, 1)),
    "matrix-empty": lambda: LambdaMatrix(QQ, GradingContext(2), ()),
    "matrix-off-grading-entry": lambda: matrix((0, 0, 1)),
    "matrix-off-grading-unknown": lambda: matrix(unknown=((2, 1, 2),)),
    "matrix-out-of-range-unknown": lambda: matrix(unknown=((2, 3, 1),)),
    "matrix-nonzero-placeholder": lambda: matrix(unknown=((1, 0, 1),)),
    "relation-unknown-generator": lambda: presentation(generator="x"),
    "relation-non-monic": lambda: presentation(
        (zero, zero, zero, zero, Novikov.constant(QQ, 2)), ()
    ),
    "relation-empty": lambda: presentation((), ()),
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


@pytest.mark.parametrize("m, n", [(16, 8), (12, 1), (12, 13)])
def test_a_graded_matrix_is_read_at_construction(constructions, m, n):
    # the rows at t = 1 are checked when the matrix is built, and no
    # Novikov scalar is built for it or its characteristic polynomial;
    # the view a builds one per coefficient on each call
    r = build_r_matrix(m, n)
    assert LambdaMatrix(QQ, r.grading, r.rows) == r
    cp = spectrum(r)[0]
    assert char_poly(r) == cp and constructions == []
    for _ in range(2):
        cp.a
    assert len(constructions) == 2 * cp.size


def test_a_graded_relation_is_read_at_construction(constructions):
    # the relation is read as its values at t = 1, checked against the
    # grading when the presentation is built; its Novikov view is built
    # only when asked for, and the values and grading alone rebuild an
    # equal presentation
    qh = compute_sh(16, 8, trials=1).qh
    constructions.clear()
    rebuilt = RingPresentation(qh.generator, qh.field, qh.grading, qh.values)
    assert rebuilt == qh and hash(rebuilt) == hash(qh) and constructions == []
    assert oracle_presentation(qh.generator, qh.relation, qh.grading.N) == qh
    with pytest.raises(ValueError, match="not homogeneous"):
        # 1 at g^8 of a degree-9 relation would be t^(1/8)
        RingPresentation(qh.generator, qh.field, qh.grading, (0,) * 8 + (1, 1))
    # partial mode renders its degree-25 relations without the view
    partial = compute_sh(24, 24, trials=1)
    constructions.clear()
    result_to_dict(partial), result_to_text(partial)
    assert constructions == []


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "GF2"])
@pytest.mark.parametrize("m, n", [(16, 8), (12, 1), (8, 3)])
def test_the_ring_checks_build_no_novikov_scalar(constructions, field, m, n):
    # from spectrum(r) to the nilpotency and multiplication-matrix checks
    # on c1 = -n*w, everything runs on values at t = 1
    r = build_r_matrix(m, n, field)
    constructions.clear()
    cp = spectrum(r)[0]
    p, rel_c = stable_relation(cp)
    if not field.of(-n):
        # c1 = 0: the classical ring in w, whose generator is nilpotent
        qh = _classical_omega_ring(m, field, r.grading)
        assert p == 0 and is_nilpotent(qh, qh.gen())
        assert constructions == []
        return
    qh_c = RingPresentation("c", field, r.grading, tuple(reversed(cp.values)) + (1,))
    qh = change_generator(qh_c, n)
    sh = change_generator(RingPresentation("c", field, r.grading, rel_c), n)
    c1 = qh.gen() * -n
    nilpotent = is_nilpotent(qh, c1)
    mm = multiplication_matrix(qh, c1)
    assert constructions == []
    assert p == sh.rank and nilpotent is (p == 0) and mm.weight == 1
    # rendering builds at most one scalar per nonzero coefficient
    text = relation_str(qh)
    assert len(constructions) <= sum(1 for c in qh.values if c)
    assert text == relation_str(oracle_presentation("omega", qh.relation, qh.grading.N))
