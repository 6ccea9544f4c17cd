"""Exact arithmetic with one-variable Novikov scalars.

Quantum and symplectic cohomology of a line bundle over projective
space are graded modules over the Novikov ring, the Laurent polynomials
in t over a ground field (the rationals, or the field with two
elements).  Every structure constant they carry is homogeneous, so a
Novikov scalar here is one monomial c*t^d.  Products, powers and
negatives stay monomials; a sum of two nonzero monomials with different
t-powers is not homogeneous and raises ValueError.  The units are the
monomials with c nonzero; nothing here divides by a scalar.

A scalar is stored as its coefficient c and t-power d, zero as c = 0
with d = 0, so equality of values is literal equality of
representations.  c is a ground value as CoefficientField.of gives it:
an int over Q (a Fraction where not integral), a bit 0 or 1 over GF(2).
The t = 1 core of linalg and ring stores the same values, so a view
built from it and a scalar built here hold equal values of equal types.

Grading: t carries cohomological degree 2N, where N is the minimal
Chern number of the total space.  A GradingContext records N for the
matrices and presentations that carry it, and holds the one grading
rule: a nonzero value of weight k is c*t^d with N*d = k (d = 0 when
N = 0), which GradingContext.t_power decides.  Their entries are checked
against it, and graded matrices are computed at t = 1 (see linalg).
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter, index, is_
from typing import Optional, Union


class Record:
    """Base of the immutable value types.

    A subclass lists its fields in __slots__; _fields, which defaults to
    __slots__, names the ones that make its value.  Record.__init__ binds
    them through the setters of their slot descriptors, by position or
    keyword in that order; a missing, extra, repeated or unknown field
    raises TypeError.  A list argument is stored as a tuple, every list
    and tuple in it a tuple too, so a value built from lists equals and
    hashes as the one built from tuples.  A subclass that normalizes or
    checks its arguments keeps its own __init__ and binds through one
    Record.__init__ call.
    Equality (within one class only), hash and the repr Name(field=value,
    ...) read the same fields, and copy and pickle rebuild a value
    through its constructor from them.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            fields = self._fields
            rest = fields[len(args):]
            if len(args) > len(fields) or kwargs.keys() != set(rest):
                raise TypeError(
                    f"{type(self).__name__} takes the fields {', '.join(fields)}; got "
                    f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword"
                )
            args += tuple(map(kwargs.__getitem__, rest))
        for bind, value in zip(setters, args):
            bind(self, _frozen(value) if type(value) is list else value)

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

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def _frozen(value):
    """A list or tuple as a tuple, every list and tuple in it a tuple too."""
    return tuple(map(_frozen, value)) if type(value) in (list, tuple) else value


class CoefficientField(Record):
    """Ground field of the Novikov scalars: exact rationals or GF(2)."""

    __slots__ = ("kind", "characteristic")
    _fields = __slots__[:-1]

    def __init__(self, kind: str):
        if kind not in ("Q", "GF2"):
            raise ValueError(f"unknown coefficient field {kind!r}")
        Record.__init__(self, kind)
        object.__setattr__(self, "characteristic", 0 if kind == "Q" else 2)

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

    def of_all(self, values) -> tuple:
        """The ground values of values under of, as a tuple: values
        itself when it is one already."""
        out = tuple(map(self.of, values))
        return values if type(values) is tuple and all(map(is_, out, values)) else out


QQ = CoefficientField("Q")
F2 = CoefficientField("GF2")

FIELDS = {"q": QQ, "gf2": F2}


class GradingContext(Record):
    """Degree bookkeeping: the quantum variable t has degree 2N."""

    __slots__ = ("N",)

    def t_power(self, k: int) -> Optional[int]:
        """The t-power d of a nonzero value of weight k, N*d = k, or None
        when no d fits; at N = 0 only k = 0 fits, with d = 0.  The one
        grading rule: every check and every lift of a value at t = 1 reads
        it."""
        N = self.N
        if N:
            return None if k % N else k // N
        return None if k else 0


class Novikov(Record):
    """A Novikov scalar: the monomial coeff * t^power, coeff a ground
    value of field.of, power an integer (read by operator.index, so a
    float or str raises TypeError).  Zero is coeff 0 with power 0, whatever
    power is given (such as None, where no t-power fits the weight).  It
    equals a plain int or Fraction x only as the constant x, power 0 and
    coeff == x with no reduction mod 2, and then hashes as x."""

    __slots__ = ("field", "coeff", "power")

    def __init__(self, field: CoefficientField, coeff, power: int):
        coeff = field.of(coeff)
        Record.__init__(self, field, coeff, index(power) if coeff else 0)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: CoefficientField) -> "Novikov":
        return cls(field, 0, 0)

    @classmethod
    def one(cls, field: CoefficientField) -> "Novikov":
        return cls(field, 1, 0)

    @classmethod
    def constant(cls, field: CoefficientField, value) -> "Novikov":
        return cls(field, value, 0)

    @classmethod
    def monomial(cls, field: CoefficientField, coeff, power: int) -> "Novikov":
        return cls(field, coeff, power)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> Optional["Novikov"]:
        if isinstance(other, Novikov):
            if other.field != self.field:
                raise ValueError("coefficient field mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Novikov(self.field, other, 0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.coeff and other.coeff and self.power != other.power:
            raise ValueError(f"the sum of {self} and {other} is not homogeneous")
        return Novikov(self.field, self.coeff + other.coeff, self.power or other.power)

    __radd__ = __add__

    def __neg__(self):
        return Novikov(self.field, -self.coeff, self.power)

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
        return Novikov(self.field, self.coeff * other.coeff, self.power + other.power)

    __rmul__ = __mul__

    # -- comparisons ----------------------------------------------------

    def __bool__(self):
        return bool(self.coeff)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.power and self.coeff == other
        return super().__eq__(other)

    def __hash__(self):
        return Record.__hash__(self) if self.power else hash(self.coeff)

    # -- rendering ------------------------------------------------------

    def __str__(self):
        return term_str(self.coeff, self.power)

    def __repr__(self):
        return f"Novikov[{self.field.kind}]({self})"


def term_str(c, e: int) -> str:
    """The monomial c*t^e as text, as str renders a Novikov scalar: '0'
    (whatever e), '7', 't', '-t^2', '3/4*t^-1'.  A c of '?' gives the
    undetermined coefficient '?*t^e'."""
    if e == 0 or not c:
        return str(c)
    t = "t" if e == 1 else f"t^{e}"
    if c == 1:
        return t
    if c == -1:
        return f"-{t}"
    return f"{c}*{t}"
