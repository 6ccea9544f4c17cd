"""Quotient presentations Lambda[g]/(monic relation) and their elements.

Quantum cohomology of the total space is a free rank-(m+1) module over
the Novikov scalars, Laurent polynomials in t, with basis the powers of
a degree-two generator: the quantum first Chern class c of the line
bundle, or the quantum lift omega of the hyperplane class, the two
differing by c = -n * omega.
Symplectic cohomology is presented the same way with a lower-degree
relation.  A presentation may be *incomplete*: the listed coefficients
are trusted, but specific powers of the generator carry undetermined
corrections recorded in unknown_terms; such presentations refuse any
computation that depends on the missing numbers.

All arithmetic in the quotient is one reduction step, multiplication
by the generator modulo the relation (_Core).  Every presentation is
graded and its relation homogeneous, so a homogeneous element (each
nonzero coefficient of g^k a monomial c * t^d of one weight N*d + k,
d = 0 when N = 0) is computed at t = 1 on ground-field values, and
only results are lifted back to Novikov scalars, the way linalg reads
graded matrices.  Arithmetic on any other element, such as 1 + g,
t - 1 or t*g with N = 0, raises ValueError.  The relation is read
once, at construction: the check that it is homogeneous also builds
the step at t = 1.  A multiplication matrix has the grading of its
presentation and the weight of its element, and is handed over as its
rows at t = 1.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional

from .linalg import LambdaMatrix, _ground, _lift
from .novikov import CoefficientField, GradingContext, Novikov, Record, unknown_term_str


class IncompletePresentationError(ValueError):
    """Raised when arithmetic needs relation coefficients that are
    marked undetermined."""


class RingPresentation(Record):
    """Lambda[generator] / (relation), relation monic.

    relation holds coefficients ascending in the generator; its length
    is degree + 1 and the top coefficient must be one.  The quotient
    has dimension ``degree`` with basis 1, g, ..., g^(degree-1).
    The relation must be homogeneous in grading.  unknown_terms lists
    (gen_power, t_power) slots of the relation that carry undetermined
    corrections; the presentation is complete when there are none.
    """

    __slots__ = ("generator", "relation", "grading", "unknown_terms", "_core_at_one")
    # _core_at_one, the step at t = 1 on the ground values of the relation,
    # is read once here; it follows from the other fields, so equality,
    # hash and repr leave it out
    _fields = __slots__[:-1]

    def __init__(
        self, generator: str, relation: tuple, grading: GradingContext, unknown_terms: tuple = ()
    ):
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "unknown_terms", unknown_terms)
        if generator not in ("omega", "c"):
            raise ValueError(f"unknown generator {generator!r}")
        if len(relation) < 1 or relation[-1] != Novikov.one(self.field):
            raise ValueError("relation must be monic")
        N = grading.N
        for (k, d) in unknown_terms:
            if not (0 <= k < self.degree) or d < 1:
                raise ValueError(f"unknown term {(k, d)} out of range")
            if relation[k]:
                raise ValueError("unknown relation slots must hold zero")
            if N * d != self.degree - k:
                raise ValueError(
                    f"unknown term at power {k} declares t-power {d}, "
                    f"homogeneity needs N*d = {self.degree - k}"
                )
        # homogeneous of degree 2*degree: the relation reads at t = 1,
        # with the weight degree of its monic top
        read = _at_one(N, relation)
        if read is None:
            raise ValueError(
                "relation is not homogeneous: the coefficient of g^k must "
                f"be a monomial c*t^d with N*d = {self.degree} - k"
            )
        object.__setattr__(self, "_core_at_one", _Core(self.field, read[1], N))

    @property
    def complete(self) -> bool:
        return not self.unknown_terms

    @property
    def field(self) -> CoefficientField:
        return self.relation[-1].field

    @property
    def degree(self) -> int:
        return len(self.relation) - 1

    @property
    def rank(self) -> int:
        """Dimension over the Novikov field."""
        return self.degree

    def _require_complete(self, what: str):
        if not self.complete:
            slots = sorted(k for (k, _) in self.unknown_terms)
            raise IncompletePresentationError(
                f"{what} needs the full relation; generator powers {slots} "
                "carry undetermined corrections"
            )

    # -- element constructors -------------------------------------------

    def zero(self) -> "RingElement":
        z = Novikov.zero(self.field)
        return RingElement(self, (z,) * self.rank)

    def one(self) -> "RingElement":
        return self.gen_power(0)

    def gen(self) -> "RingElement":
        return self.gen_power(1)

    def gen_power(self, k: int) -> "RingElement":
        if k < 0:
            raise ValueError("negative generator powers are not elements")
        z = Novikov.zero(self.field)
        raw = [z] * (k + 1)
        raw[k] = Novikov.one(self.field)
        return self.reduce(raw)

    def constant(self, scalar) -> "RingElement":
        if not isinstance(scalar, Novikov):
            scalar = Novikov.constant(self.field, scalar)
        return RingElement(self, (scalar,) + (Novikov.zero(self.field),) * (self.rank - 1))

    def element(self, coeffs) -> "RingElement":
        return self.reduce(list(coeffs))

    # -- reduction --------------------------------------------------------

    def reduce(self, raw) -> "RingElement":
        """Reduce a polynomial in the generator (coefficients ascending,
        any length) modulo the relation, by Horner's rule over the step."""
        self._require_complete("reduction")
        coeffs = [c if isinstance(c, Novikov) else Novikov.constant(self.field, c) for c in raw]
        core, (values,), (weight,) = _core(self, coeffs)
        return RingElement(self, core.lift(core.horner(values), weight))

    @property
    def symbol(self) -> str:
        return "w" if self.generator == "omega" else "c"

    def __str__(self):
        return f"Lambda[{self.symbol}]/({relation_str(self)})"


def _term_str(coeff: str, sym: str, k: int) -> str:
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
    for k in range(pres.degree, -1, -1):
        if k in unknown:
            parts.append(_term_str(unknown_term_str(unknown[k]), pres.symbol, k))
        elif pres.relation[k]:
            parts.append(_term_str(str(pres.relation[k]), pres.symbol, k))
    return " + ".join(parts)


class RingElement(Record):
    """Element of a quotient presentation; coeffs ascending, length rank."""

    __slots__ = ("pres", "coeffs")

    def __init__(self, pres: RingPresentation, coeffs: tuple):
        object.__setattr__(self, "pres", pres)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != pres.rank:
            raise ValueError(f"{len(coeffs)} coefficients for a rank-{pres.rank} quotient")

    def _check(self, other: "RingElement"):
        if self.pres != other.pres:
            raise ValueError("elements live in different presentations")

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check(other)
        return RingElement(
            self.pres, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return RingElement(self.pres, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, RingElement):
            self._check(other)
            core, (x, y), (wx, wy) = _core(self.pres, self.coeffs, other.coeffs)
            return RingElement(self.pres, core.lift(core.product(x, y), wx + wy))
        if isinstance(other, (Novikov, int)):
            s = other if isinstance(other, Novikov) else Novikov.constant(self.pres.field, other)
            return RingElement(self.pres, tuple(a * s for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        parts = [
            _term_str(str(c), self.pres.symbol, k)
            for k, c in reversed(list(enumerate(self.coeffs)))
            if c
        ]
        return " + ".join(parts) if parts else "0"


def multiplication_matrix(pres: RingPresentation, x: RingElement) -> LambdaMatrix:
    """Matrix of multiplication by x on the basis g^(rank-1), ..., g, 1.

    Column j holds x * g^(rank-1-j); row i reads off the coefficient of
    g^(rank-1-i).  The matrix has the grading of pres and the weight w
    of x (1 for a degree-two class such as g or c1 = -n*g): entry (i, j)
    is c*t^d with N*d = i - j + w, and the ground values are handed over
    as its rows at t = 1."""
    if x.pres != pres:
        raise ValueError("element does not live in this presentation")
    pres._require_complete("multiplication matrix")
    core, (col,), (weight,) = _core(pres, x.coeffs)
    r = pres.rank
    # each column is one step on from the column to its right
    rows = [{} for _ in range(r)]
    for j in range(r - 1, -1, -1):
        for k in compress(range(r), col):
            rows[r - 1 - k][j] = col[k]
        if j:
            col = core.step(col)
    return LambdaMatrix(pres.field, pres.grading, rows, weight=weight)


def change_generator(pres: RingPresentation, n: int) -> RingPresentation:
    """Rewrite a presentation in the quantum first Chern class c as one
    in the quantum hyperplane class omega, via c = -n * omega.

    Substituting and dividing by (-n)^degree rescales the coefficient
    of c^k by (-n)^(k - degree)."""
    if pres.generator != "c":
        raise ValueError("change_generator starts from the c presentation")
    scale = pres.field.of(-n)
    if not scale:
        raise ValueError("generator change needs -n invertible in the field")
    deg = pres.degree
    rel = tuple(
        c * Novikov.constant(pres.field, scale ** (k - deg)) if c else c
        for k, c in enumerate(pres.relation)
    )
    return RingPresentation("omega", rel, pres.grading, pres.unknown_terms)


def is_nilpotent(pres: RingPresentation, x: RingElement) -> bool:
    """Whether x^rank = 0; in a rank-r quotient any nilpotent element
    has vanishing r-th power."""
    if x.pres != pres:
        raise ValueError("element does not live in this presentation")
    pres._require_complete("nilpotency test")
    core, (values,), _ = _core(pres, x.coeffs)
    power = values
    for _ in range(pres.rank - 1):
        power = core.product(power, values)
    return not any(power)


# -- the arithmetic core -------------------------------------------------------


class _Core:
    """The reduction step of a presentation and what is built on it.

    The step multiplies a list of rank ground values at t = 1 (ints or
    Fractions over Q, bits over GF(2)), ascending in g, by g modulo the
    relation, reducing mod 2 over GF(2).
    """

    __slots__ = ("field", "N", "mod", "novikov_zero", "rank", "rel")

    def __init__(self, field, relation, N: int):
        self.field = field
        self.N = N
        self.mod = field.characteristic
        self.novikov_zero = Novikov.zero(field)
        self.rank = len(relation) - 1
        # (k, c) for each nonzero c below the monic top of the relation
        self.rel = [(k, c) for k, c in enumerate(relation[:-1]) if c]

    def step(self, v: list) -> list:
        """v * g modulo the relation."""
        top = v[-1]
        out = [0] + v[:-1]
        if top:
            mod = self.mod
            for k, c in self.rel:
                y = out[k] - top * c
                out[k] = y % mod if mod else y
        return out

    def product(self, x: list, y: list) -> list:
        """x * y by Horner's rule over the nonzero coefficients of y: one
        step for each power of g below the top of y."""
        powers = [k for k, c in enumerate(y) if c]
        acc = [0] * self.rank
        below = powers[-1] if powers else 0
        for k in reversed(powers):
            for _ in range(below - k):
                acc = self.step(acc)
            c = y[k]
            acc = [a + c * b if b else a for a, b in zip(acc, x)]
            if self.mod:
                acc = [a % self.mod for a in acc]
            below = k
        for _ in range(below):
            acc = self.step(acc)
        return acc

    def horner(self, raw: list) -> list:
        """The polynomial raw in g (ascending, any length) modulo the
        relation: its top rank coefficients, then a step per lower one."""
        if not self.rank:
            return []
        split = max(len(raw) - self.rank, 0)
        acc = raw[split:] + [0] * (self.rank + split - len(raw))
        for c in reversed(raw[:split]):
            acc = self.step(acc)
            if c:
                acc[0] = (acc[0] + c) % self.mod if self.mod else acc[0] + c
        return acc

    def lift(self, values: list, weight: int) -> tuple:
        """Novikov coefficients of a result of the given weight: a value c
        at g^k becomes c * t^((weight - k)/N), by linalg._lift, which
        raises ArithmeticError off the grading."""
        return tuple(
            _lift(self.field, self.N, weight - k, c) if c else self.novikov_zero
            for k, c in enumerate(values)
        )


def _at_one(N: int, coeffs) -> Optional[tuple]:
    """(weight, values) for coefficients of g^0, g^1, ... that read at
    t = 1 under grading N, else None.

    They read when they are homogeneous: each nonzero coefficient of g^k
    is a monomial c * t^d with the same weight N*d + k, and d = 0 when
    N = 0.  values holds the ground coefficients c (linalg._ground), 0
    where a coefficient vanishes; a zero list has weight 0.
    """
    weight, values = None, []
    for k, x in enumerate(coeffs):
        if not x:
            values.append(0)
            continue
        parts = x.monomial_parts()
        if parts is None or (parts[1] and not N):
            return None
        w = N * parts[1] + k
        if weight is None:
            weight = w
        elif w != weight:
            return None
        values.append(_ground(parts[0]))
    return (0 if weight is None else weight), values


def _core(pres: RingPresentation, *coeff_lists):
    """(core, values, weights): the core of pres, read at construction,
    and the ground values and weights of the coefficient lists at t = 1
    (_at_one).  A list that is not homogeneous raises ValueError."""
    core = pres._core_at_one
    read = [_at_one(core.N, c) for c in coeff_lists]
    if None in read:
        raise ValueError(
            "element is not homogeneous: the coefficient of g^k must be a "
            f"monomial c*t^d of one weight N*d + k, with N = {core.N}"
        )
    return core, [v for (_, v) in read], [w for (w, _) in read]
