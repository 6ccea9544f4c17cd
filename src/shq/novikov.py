"""Exact arithmetic with one-variable Novikov scalars.

Quantum and symplectic cohomology of a line bundle over projective
space only ever involve finitely many powers of the quantum variable t,
so the coefficient ring is modelled exactly: scalars are Laurent
polynomials in t over a ground field (the rationals, or the field with
two elements).  Their units are the monomials c*t^d with c nonzero;
nothing here divides by a scalar.

A scalar is stored as its Laurent polynomial, with no zero coefficients
stored, so equality of values is literal equality of representations.

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


class GF2Element:
    """An element of the field with two elements."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = int(v) & 1

    def _coerce(self, other) -> "GF2Element":
        if isinstance(other, GF2Element):
            return other
        if isinstance(other, int):
            return GF2Element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GF2Element(self.v ^ other.v)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GF2Element(self.v & other.v)

    __rmul__ = __mul__

    def __neg__(self):
        return self

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, GF2Element):
            return self.v == other.v
        if isinstance(other, int):
            return self.v == other & 1
        return NotImplemented

    def __hash__(self):
        return hash(("GF2", self.v))

    def __repr__(self):
        return str(self.v)


class CoefficientField:
    """Ground field of the Novikov scalars: exact rationals or GF(2)."""

    def __init__(self, kind: str):
        if kind not in ("Q", "GF2"):
            raise ValueError(f"unknown coefficient field {kind!r}")
        self.kind = kind

    def of(self, x) -> Union[Fraction, GF2Element]:
        """Coerce an int, Fraction, or field element into this field."""
        if self.kind == "Q":
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
        else:
            if isinstance(x, GF2Element):
                return x
            if isinstance(x, int):
                return GF2Element(x)
            if isinstance(x, Fraction):
                if x.denominator % 2 == 0:
                    raise ZeroDivisionError("denominator not invertible in GF(2)")
                return GF2Element(x.numerator)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    @property
    def zero(self):
        return Fraction(0) if self.kind == "Q" else GF2Element(0)

    @property
    def one(self):
        return Fraction(1) if self.kind == "Q" else GF2Element(1)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "Q" else 2

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


# Laurent polynomials are dicts {exponent: coefficient} with no zero
# values stored.


def _trim(d: dict) -> dict:
    return {e: c for e, c in d.items() if c}


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _pneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


class Novikov:
    """A Novikov scalar: the Laurent polynomial num in t, with no zero
    coefficients stored."""

    __slots__ = ("field", "num")

    def __init__(self, field: CoefficientField, num: dict):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", _trim(num))

    def __setattr__(self, name, value):
        raise AttributeError("Novikov scalars are immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: CoefficientField) -> "Novikov":
        return cls(field, {})

    @classmethod
    def one(cls, field: CoefficientField) -> "Novikov":
        return cls(field, {0: field.one})

    @classmethod
    def constant(cls, field: CoefficientField, value) -> "Novikov":
        return cls(field, {0: field.of(value)})

    @classmethod
    def monomial(cls, field: CoefficientField, coeff, power: int) -> "Novikov":
        return cls(field, {int(power): field.of(coeff)})

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
        if isinstance(other, (int, Fraction, GF2Element)):
            return Novikov(self.field, {0: self.field.of(other)})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Novikov(self.field, _padd(self.num, other.num))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(Novikov)
        object.__setattr__(out, "field", self.field)
        object.__setattr__(out, "num", _pneg(self.num))
        return out

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
        if isinstance(other, (int, Fraction, GF2Element)):
            try:
                other = Novikov(self.field, {0: self.field.of(other)})
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


def _term_str(c, e: int) -> str:
    if e == 0:
        return str(c)
    t = "t" if e == 1 else f"t^{e}"
    if c == 1:
        return t
    if isinstance(c, Fraction) and c == -1:
        return f"-{t}"
    return f"{c}*{t}"


def unknown_term_str(d: int) -> str:
    """An undetermined coefficient of t^d, rendered '?*t^d'."""
    return _term_str("?", d)


def _laurent_str(d: dict) -> str:
    """Render with exponents ascending, e.g. '-1 + 2*t + t^3'."""
    if not d:
        return "0"
    parts = []
    for e in sorted(d):
        c = d[e]
        if parts and isinstance(c, Fraction) and c < 0:
            parts.append(f" - {_term_str(-c, e)}")
        elif parts:
            parts.append(f" + {_term_str(c, e)}")
        else:
            parts.append(_term_str(c, e))
    return "".join(parts)
