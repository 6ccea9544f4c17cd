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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import LambdaMatrix
from .novikov import CoefficientField, GradingContext, Novikov, unknown_term_str


class IncompletePresentationError(ValueError):
    """Raised when arithmetic needs relation coefficients that are
    marked undetermined."""


@dataclass(frozen=True)
class RingPresentation:
    """Lambda[generator] / (relation), relation monic.

    relation holds coefficients ascending in the generator; its length
    is degree + 1 and the top coefficient must be one.  The quotient
    has dimension ``degree`` with basis 1, g, ..., g^(degree-1).
    unknown_terms lists (gen_power, t_power) slots of the relation that
    carry undetermined corrections; the presentation is complete when
    there are none.
    """

    generator: str
    relation: tuple
    grading: Optional[GradingContext] = None
    unknown_terms: tuple = ()

    def __post_init__(self):
        if self.generator not in ("omega", "c"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if len(self.relation) < 1 or self.relation[-1] != Novikov.one(self.field):
            raise ValueError("relation must be monic")
        for (k, d) in self.unknown_terms:
            if not (0 <= k < self.degree) or d < 1:
                raise ValueError(f"unknown term {(k, d)} out of range")
            if self.relation[k]:
                raise ValueError("unknown relation slots must hold zero")
        if self.grading is not None:
            self._check_homogeneous()

    def _check_homogeneous(self):
        # relation homogeneous of degree 2*degree: coefficient of g^k
        # must be a monomial t^d with N*d = degree - k
        N = self.grading.N
        for k, coeff in enumerate(self.relation):
            if not coeff:
                continue
            parts = coeff.monomial_parts()
            if parts is None:
                raise ValueError(f"relation coefficient at power {k} not a monomial")
            if N * parts[1] != self.degree - k:
                raise ValueError(
                    f"relation coefficient at power {k} has t-power {parts[1]}, "
                    f"homogeneity needs N*d = {self.degree - k}"
                )
        for (k, d) in self.unknown_terms:
            if N * d != self.degree - k:
                raise ValueError(
                    f"unknown term at power {k} declares t-power {d}, "
                    f"homogeneity needs N*d = {self.degree - k}"
                )

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
        any length) modulo the relation."""
        self._require_complete("reduction")
        z = Novikov.zero(self.field)
        coeffs = [c if isinstance(c, Novikov) else Novikov.constant(self.field, c) for c in raw]
        if len(coeffs) < self.rank:
            coeffs += [z] * (self.rank - len(coeffs))
        deg = self.degree
        for k in range(len(coeffs) - 1, deg - 1, -1):
            f = coeffs[k]
            if not f:
                continue
            coeffs[k] = z
            for idx in range(deg):
                coeffs[k - deg + idx] = coeffs[k - deg + idx] - f * self.relation[idx]
        return RingElement(self, tuple(coeffs[: self.rank]))

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


@dataclass(frozen=True)
class RingElement:
    """Element of a quotient presentation; coeffs ascending, length rank."""

    pres: RingPresentation
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.pres.rank:
            raise ValueError(
                f"{len(self.coeffs)} coefficients for a rank-{self.pres.rank} quotient"
            )

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
            z = Novikov.zero(self.pres.field)
            raw = [z] * (2 * self.pres.rank - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        raw[i + j] = raw[i + j] + a * b
            return self.pres.reduce(raw)
        if isinstance(other, (Novikov, int)):
            s = other if isinstance(other, Novikov) else Novikov.constant(self.pres.field, other)
            return RingElement(self.pres, tuple(a * s for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in the quotient")
        out = self.pres.one()
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        parts = [
            _term_str(str(c), self.pres.symbol, k)
            for k, c in reversed(list(enumerate(self.coeffs)))
            if c
        ]
        return " + ".join(parts) if parts else "0"


def multiplication_matrix(
    pres: RingPresentation, x: RingElement, grading: Optional[GradingContext] = None
) -> LambdaMatrix:
    """Matrix of multiplication by x on the basis g^(rank-1), ..., g, 1.

    Column j holds x * g^(rank-1-j); row i reads off the coefficient of
    g^(rank-1-i).  A grading is checked (ValueError when the product is
    not homogeneous in it) and lets the linear algebra run at t = 1; x
    of degree two in the grading of pres passes the check."""
    if x.pres != pres:
        raise ValueError("element does not live in this presentation")
    pres._require_complete("multiplication matrix")
    r = pres.rank
    cols = []
    for j in range(r):
        prod = x * pres.gen_power(r - 1 - j)
        cols.append([prod.coeffs[r - 1 - i] for i in range(r)])
    entries = tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))
    return LambdaMatrix(entries, grading=grading)


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
    pres._require_complete("nilpotency test")
    return not x ** pres.rank
