"""Exact arithmetic with one-variable Novikov scalars.

Quantum and symplectic cohomology of a line bundle over projective
space only ever involve finitely many powers of the quantum variable t,
so the coefficient ring is modelled exactly: scalars are Laurent
polynomials in t over a ground field (the rationals, or the field with
two elements).  Their units are the monomials c*t^d with c nonzero;
nothing here divides by a scalar.

A scalar is stored as its Laurent polynomial, with no zero coefficients
stored, so equality of values is literal equality of representations.
Each coefficient is a ground value as CoefficientField.of gives it: an
int over Q (a Fraction where not integral), a bit 0 or 1 over GF(2).
The t = 1 core of linalg and ring stores the same values, so a view
built from it and a scalar built here hold equal values of equal types.

Grading: t carries cohomological degree 2N, where N is the minimal
Chern number of the total space.  A GradingContext records N for the
matrices and presentations that carry it: their entries are checked to
be homogeneous, and graded matrices are computed at t = 1 (see linalg).
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Optional, Union


class Record:
    """Base of the immutable value types.

    A subclass lists its fields in __slots__ and sets each one with
    object.__setattr__ in its own __init__.  Equality (within one class
    only), hash and the repr Name(field=value, ...) read the fields named
    by _fields, which defaults to __slots__.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class CoefficientField:
    """Ground field of the Novikov scalars: exact rationals or GF(2)."""

    def __init__(self, kind: str):
        if kind not in ("Q", "GF2"):
            raise ValueError(f"unknown coefficient field {kind!r}")
        self.kind = kind
        self.characteristic = 0 if kind == "Q" else 2

    def of(self, x) -> Union[int, Fraction]:
        """The ground value of an int or Fraction: over Q an int, or a
        Fraction where not integral; over GF(2) a bit, 0 or 1, where an
        even denominator raises ZeroDivisionError.  A bool reads as the
        int 0 or 1; any other type raises TypeError."""
        if isinstance(x, int):
            return x & 1 if self.characteristic else int(x)
        if isinstance(x, Fraction):
            if not self.characteristic:
                return x.numerator if x.denominator == 1 else x
            if x.denominator % 2 == 0:
                raise ZeroDivisionError("denominator not invertible in GF(2)")
            return x.numerator & 1
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"CoefficientField({self.kind!r})"


QQ = CoefficientField("Q")
F2 = CoefficientField("GF2")

FIELDS = {"q": QQ, "gf2": F2}


class GradingContext(Record):
    """Degree bookkeeping: the quantum variable t has degree 2N."""

    __slots__ = ("N",)

    def __init__(self, N: int):
        object.__setattr__(self, "N", N)


# Laurent polynomials are dicts {exponent: coefficient}.  The helpers
# below may leave zero or unreduced sums; the Novikov constructor reads
# each coefficient through field.of and drops the zeros.


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def _pneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return out


class Novikov:
    """A Novikov scalar: the Laurent polynomial num in t, its
    coefficients ground values of field.of, with no zeros stored."""

    __slots__ = ("field", "num")

    def __init__(self, field: CoefficientField, num: dict):
        of = field.of
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", {e: c for e, x in num.items() if (c := of(x))})

    def __setattr__(self, name, value):
        raise AttributeError("Novikov scalars are immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: CoefficientField) -> "Novikov":
        return cls(field, {})

    @classmethod
    def one(cls, field: CoefficientField) -> "Novikov":
        return cls(field, {0: 1})

    @classmethod
    def constant(cls, field: CoefficientField, value) -> "Novikov":
        return cls(field, {0: value})

    @classmethod
    def monomial(cls, field: CoefficientField, coeff, power: int) -> "Novikov":
        return cls(field, {int(power): coeff})

    @classmethod
    def t(cls, field: CoefficientField, power: int = 1) -> "Novikov":
        return cls.monomial(field, 1, power)

    # -- structure ------------------------------------------------------

    def monomial_parts(self) -> Optional[tuple]:
        """(coefficient, t-power) when the value is c*t^d, else None."""
        if len(self.num) != 1:
            return None
        ((e, c),) = self.num.items()
        return c, e

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> Optional["Novikov"]:
        if isinstance(other, Novikov):
            if other.field != self.field:
                raise ValueError("coefficient field mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Novikov(self.field, {0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Novikov(self.field, _padd(self.num, other.num))

    __radd__ = __add__

    def __neg__(self):
        return Novikov(self.field, _pneg(self.num))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Novikov(self.field, _pmul(self.num, other.num))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Novikov.one(self.field)
        for _ in range(k):
            out = out * self
        return out

    # -- comparisons ----------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = Novikov(self.field, {0: other})
            except (TypeError, ZeroDivisionError):
                return NotImplemented
        if not isinstance(other, Novikov):
            return NotImplemented
        return self.field == other.field and self.num == other.num

    def __hash__(self):
        return hash((self.field.kind, frozenset(self.num.items())))

    # -- rendering ------------------------------------------------------

    def __str__(self):
        return _laurent_str(self.num)

    def __repr__(self):
        return f"Novikov[{self.field.kind}]({self})"


def term_str(c, e: int) -> str:
    """The monomial c*t^e as text, as str renders a Novikov scalar that is
    one: '7', 't', '-t^2', '3/4*t^-1'.  A c of '?' gives the undetermined
    coefficient '?*t^e'."""
    if e == 0:
        return str(c)
    t = "t" if e == 1 else f"t^{e}"
    if c == 1:
        return t
    if c == -1:
        return f"-{t}"
    return f"{c}*{t}"


def _laurent_str(d: dict) -> str:
    """Render with exponents ascending, e.g. '-1 + 2*t + t^3'."""
    if not d:
        return "0"
    parts = []
    for e in sorted(d):
        c = d[e]
        if parts and c < 0:
            parts.append(f" - {term_str(-c, e)}")
        elif parts:
            parts.append(f" + {term_str(c, e)}")
        else:
            parts.append(term_str(c, e))
    return "".join(parts)
