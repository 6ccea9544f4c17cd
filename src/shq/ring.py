"""Quotient presentations Lambda[g]/(monic relation) and their elements.

Quantum cohomology of the total space is a free rank-(m+1) module over
the Novikov ring, the Laurent polynomials in t, with basis the powers of
a degree-two generator: the quantum first Chern class c of the line
bundle, or the quantum lift omega of the hyperplane class, the two
differing by c = -n * omega.
Symplectic cohomology is presented the same way with a lower-degree
relation.  A presentation may be *incomplete*: the listed coefficients
are trusted, but specific powers of the generator carry undetermined
corrections recorded in unknown_terms; such presentations refuse any
computation that depends on the missing numbers.

Every presentation is graded and its relation homogeneous, so it is
stored the way linalg stores a matrix: the values at t = 1 of its
relation with its field and grading.  An element is stored as the
values at t = 1 of its coefficients with its weight.  Each constructor
reads its values through field.of_all, so they are ground values, ints
(a Fraction where not integral) over Q and bits over GF(2), the same
values the Novikov views relation and coeffs hold, and refuses with
ValueError a nonzero value of a weight no t-power fits, as
GradingContext.t_power decides.  The quotient runs on linalg's core,
on sparse vectors {power of g: value}: multiplication by g modulo the
relation is mat_vec on the companion's columns, stored with the
presentation, and a product x * y is horner over y's coefficients from
its top nonzero one, started at x.  None of this, nor the generator
change, builds a Novikov scalar.  Novikov scalars are read only where
they come in, by reduce and by multiplying an element with a scalar,
which raise ValueError unless the input is homogeneous (not 1 + g or
t*g with N = 0; t - 1 is refused where it is built); an int or
Fraction given to either is read as a constant through field.of.  Every
scalar is one monomial c*t^d, read as its c and d.  Scalars are built
only for the views relation and coeffs, on each call, each c lifted to
c*t^d with d = grading.t_power of its weight, and a presentation's
coefficient_str renders each relation coefficient from c.  A
multiplication matrix has the grading of its presentation and the
weight of its element, and is handed over as its rows at t = 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

from .linalg import LambdaMatrix, horner, mat_vec
from .novikov import CoefficientField, GradingContext, Novikov, Record, term_str


class IncompletePresentationError(ValueError):
    """Raised when arithmetic needs relation coefficients that are
    marked undetermined."""


class RingPresentation(Record):
    """Lambda[generator] / (relation), relation monic, stored at t = 1.

    values holds the relation's coefficients at t = 1, ascending in the
    generator g; its length is rank + 1 and its top is one.  The
    quotient has dimension ``rank`` with basis 1, g, ..., g^(rank-1).
    The relation is homogeneous of weight rank: the coefficient of g^k
    is c * t^d with d = grading.t_power(rank - k), so a nonzero value
    needs N to divide rank - k (k = rank when N = 0).  unknown_terms
    lists (gen_power, t_power) slots of the relation that carry
    undetermined corrections, kept as a tuple of pairs; the presentation
    is complete when there are none.  relation, the
    Novikov coefficients, is a view built on each call.
    """

    __slots__ = ("generator", "field", "grading", "values", "unknown_terms", "_companion")
    # _companion, the columns of multiplication by g that mat_vec reads,
    # follows from values, so equality, hash and repr leave it out
    _fields = __slots__[:-1]

    def __init__(
        self, generator: str, field: CoefficientField, grading: GradingContext, values,
        unknown_terms: tuple = (),
    ):
        values = field.of_all(values)
        # passed as a list, so that Record freezes the pairs inside it too
        Record.__init__(self, generator, field, grading, values, list(unknown_terms))
        if generator not in ("omega", "c"):
            raise ValueError(f"unknown generator {generator!r}")
        if not values or values[-1] != 1:
            raise ValueError("relation must be monic")
        power, deg = grading.t_power, self.rank
        for (k, d) in self.unknown_terms:
            if not (0 <= k < deg) or d < 1:
                raise ValueError(f"unknown term {(k, d)} out of range")
            if values[k]:
                raise ValueError("unknown relation slots must hold zero")
            if power(deg - k) != d:
                raise ValueError(
                    f"unknown term at power {k} declares t-power {d}, "
                    f"homogeneity needs N*d = {deg - k}"
                )
        if any(power(deg - k) is None for k in compress(range(deg + 1), values)):
            raise ValueError(
                "relation is not homogeneous: the coefficient of g^k must "
                f"be a monomial c*t^d with N*d = {deg} - k"
            )
        # g * g^k is g^(k+1), and at the top minus the relation's lower terms
        top = {k: field.of(-c) for k, c in enumerate(values[:-1]) if c}
        cols = [{k + 1: 1} for k in range(deg - 1)] + [top] if deg else []
        object.__setattr__(self, "_companion", cols)

    @property
    def complete(self) -> bool:
        return not self.unknown_terms

    @property
    def rank(self) -> int:
        """Dimension over the Novikov field."""
        return len(self.values) - 1

    @property
    def relation(self) -> tuple:
        """The Novikov coefficients of the relation, ascending, built on
        each call."""
        return tuple(map(self.coefficient, range(len(self.values))))

    def coefficient(self, k: int) -> Novikov:
        """The Novikov coefficient of g^k in the relation."""
        return Novikov(self.field, self.values[k], self.grading.t_power(self.rank - k))

    def coefficient_str(self, k: int) -> str:
        """str(self.coefficient(k)), with no scalar built."""
        return term_str(self.values[k], self.grading.t_power(self.rank - k))

    def _require_complete(self, what: str):
        if not self.complete:
            slots = sorted(k for (k, _) in self.unknown_terms)
            raise IncompletePresentationError(
                f"{what} needs the full relation; generator powers {slots} "
                "carry undetermined corrections"
            )

    # -- elements -----------------------------------------------------------

    def gen(self) -> "RingElement":
        return self.gen_power(1)

    def gen_power(self, k: int) -> "RingElement":
        if k < 0:
            raise ValueError("negative generator powers are not elements")
        return self.reduce([0] * k + [1])

    def reduce(self, raw) -> "RingElement":
        """Reduce a polynomial in the generator (Novikov coefficients, or
        ints and Fractions as constants, ascending, any length) modulo the
        relation, as the product of 1 with it.  Its nonzero coefficients
        must be monomials c*t^d of one weight N*d + k at g^k, else
        ValueError."""
        self._require_complete("reduction")
        weight, values = _at_one(self.field, self.grading, raw)
        # rank 0: the zero ring, where 1 is zero
        v = self._product({0: 1} if self.rank else {}, _sparse(values))
        return RingElement(self, _dense(v, self.rank), weight)

    # -- the arithmetic core, on values at t = 1 -----------------------------

    def _product(self, x: dict, y: dict) -> dict:
        """x * y of sparse vectors: y(g) x by horner over the companion's
        columns, from the top nonzero coefficient of y."""
        y = [y.get(k, 0) for k in range(max(y, default=-1), -1, -1)]
        return horner(self._companion, y, x, self.field.characteristic)

    @property
    def symbol(self) -> str:
        return "w" if self.generator == "omega" else "c"

    def __str__(self):
        return f"Lambda[{self.symbol}]/({relation_str(self)})"


def _gen_term_str(coeff: str, sym: str, k: int) -> str:
    """One term coeff*sym^k of a polynomial in the generator."""
    if k == 0:
        return coeff
    gen = sym if k == 1 else f"{sym}^{k}"
    if coeff == "1":
        return gen
    if " " in coeff or "/" in coeff:
        coeff = f"({coeff})"
    return f"{coeff}*{gen}"


def relation_str(pres: RingPresentation) -> str:
    """Relation as text, descending powers, unknown slots as '?*t^d'."""
    unknown = dict(pres.unknown_terms)
    parts = []
    for k in range(pres.rank, -1, -1):
        if k in unknown:
            parts.append(_gen_term_str(term_str("?", unknown[k]), pres.symbol, k))
        elif pres.values[k]:
            parts.append(_gen_term_str(pres.coefficient_str(k), pres.symbol, k))
    return " + ".join(parts)


class RingElement(Record):
    """Element of a quotient presentation, stored at t = 1.

    values holds the coefficients at t = 1 ascending in g, length rank;
    the coefficient of g^k is c * t^d with d = grading.t_power(weight - k),
    so a nonzero value needs N to divide weight - k (k = weight when N = 0).  A zero element
    has weight 0.  coeffs, the Novikov coefficients, is a view built on
    each call.
    """

    __slots__ = ("pres", "values", "weight")

    def __init__(self, pres: RingPresentation, values, weight: int):
        values = pres.field.of_all(values)
        if not any(values):
            weight = 0
        Record.__init__(self, pres, values, weight)
        if len(values) != pres.rank:
            raise ValueError(f"{len(values)} coefficients for a rank-{pres.rank} quotient")
        power = pres.grading.t_power
        if any(power(weight - k) is None for k in compress(range(len(values)), values)):
            raise ValueError(
                "element is not homogeneous: the coefficient of g^k must be a "
                f"monomial c*t^d of one weight N*d + k, with N = {pres.grading.N}"
            )

    @property
    def coeffs(self) -> tuple:
        """The Novikov coefficients, ascending, built on each call."""
        return tuple(map(self.coefficient, range(len(self.values))))

    def coefficient(self, k: int) -> Novikov:
        """The Novikov coefficient of g^k."""
        return Novikov(self.pres.field, self.values[k], self.pres.grading.t_power(self.weight - k))

    def __mul__(self, other):
        pres = self.pres
        if isinstance(other, RingElement):
            if other.pres != pres:
                raise ValueError("elements live in different presentations")
            v = pres._product(_sparse(self.values), _sparse(other.values))
            return RingElement(pres, _dense(v, pres.rank), self.weight + other.weight)
        if not isinstance(other, (int, Fraction, Novikov)):
            return NotImplemented
        weight, (c,) = _at_one(pres.field, pres.grading, (other,))
        return RingElement(pres, [x * c for x in self.values], self.weight + weight)

    __rmul__ = __mul__


def multiplication_matrix(pres: RingPresentation, x: RingElement) -> LambdaMatrix:
    """Matrix of multiplication by x on the basis g^(rank-1), ..., g, 1.

    Column j holds x * g^(rank-1-j); row i reads off the coefficient of
    g^(rank-1-i).  The matrix has the grading of pres and the weight w
    of x (1 for a degree-two class such as g or c1 = -n*g): entry (i, j)
    is c*t^d with N*d = i - j + w, and the values are handed over as its
    rows at t = 1."""
    if x.pres != pres:
        raise ValueError("element does not live in this presentation")
    pres._require_complete("multiplication matrix")
    r, col = pres.rank, _sparse(x.values)
    # each column is the companion times the column to its right
    rows = [{} for _ in range(r)]
    for j in range(r - 1, -1, -1):
        for k, c in col.items():
            rows[r - 1 - k][j] = c
        if j:
            col = mat_vec(pres._companion, col, pres.field.characteristic)
    return LambdaMatrix(pres.field, pres.grading, rows, weight=x.weight)


def change_generator(pres: RingPresentation, n: int) -> RingPresentation:
    """Rewrite a presentation in the quantum first Chern class c as one
    in the quantum hyperplane class omega, via c = -n * omega.

    Substituting and dividing by (-n)^rank rescales the coefficient
    of c^k by (-n)^(k - rank); over GF(2) an odd -n is one."""
    if pres.generator != "c":
        raise ValueError("change_generator starts from the c presentation")
    if not pres.field.of(-n):
        raise ValueError("generator change needs -n invertible in the field")
    deg, values = pres.rank, pres.values
    if not pres.field.characteristic:
        values = [Fraction(c, (-n) ** (deg - k)) if c else 0 for k, c in enumerate(values)]
    return RingPresentation("omega", pres.field, pres.grading, values, pres.unknown_terms)


def is_nilpotent(pres: RingPresentation, x: RingElement) -> bool:
    """Whether x^rank = 0; in a rank-r quotient any nilpotent element
    has vanishing r-th power."""
    if x.pres != pres:
        raise ValueError("element does not live in this presentation")
    pres._require_complete("nilpotency test")
    power = y = _sparse(x.values)
    for _ in range(pres.rank - 1):
        power = pres._product(power, y)
    return not power


def _sparse(values) -> dict:
    """The sparse vector {power of g: value} of values ascending in g."""
    return {k: c for k, c in enumerate(values) if c}


def _dense(v: dict, rank: int) -> list:
    """The rank values of an element from its sparse vector."""
    return [v.get(k, 0) for k in range(rank)]


def _at_one(field: CoefficientField, grading: GradingContext, coeffs) -> tuple:
    """(weight, values at t = 1) of coefficients of g^0, g^1, ...: Novikov
    scalars, or ints and Fractions taken as constants.

    They read when they are homogeneous: each nonzero coefficient c * t^d
    of g^k has a t-power the grading allows, grading.t_power(N*d) = d
    (so d = 0 when N = 0), and the same weight N*d + k; else ValueError,
    as for a scalar over another field.  A zero list has weight 0.
    """
    N, weight, values = grading.N, None, []
    for k, x in enumerate(coeffs):
        if not isinstance(x, Novikov):
            c, d = field.of(x), 0
        elif x.field != field:
            raise ValueError("coefficient field mismatch")
        else:
            c, d = x.coeff, x.power
        values.append(c)
        if not c:
            continue
        if grading.t_power(N * d) != d or weight not in (None, N * d + k):
            raise ValueError(
                "element is not homogeneous: the coefficient of g^k must be a "
                f"monomial c*t^d of one weight N*d + k, with N = {N}"
            )
        weight = N * d + k
    return (0 if weight is None else weight), values
