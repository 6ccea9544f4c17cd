"""Surface intersection theory for the universal-curve cross-check.

The moduli space of broken sections in the simplest case (twist one
over the line, bidegree (1,1)) has universal curve a two-point blow-up
of a product of two lines.  Euler characteristics of line bundles on
that surface, via Riemann-Roch, recover the obstruction bundle degree
and hence the section count independently of both the closed form and
the fixed-point sum.

A surface is recorded by its rank-two cohomology lattice: an integral
intersection form on a chosen basis, the canonical class, and the
topological Euler number.  Blowing up a point appends an exceptional
class: orthogonal to everything old, self-intersection -1, added to
the canonical class, Euler number up by one.
"""

from __future__ import annotations

from fractions import Fraction

from .gw import h1_p1
from .novikov import Record, need_int


class SurfaceRing(Record):
    """Intersection data of a smooth projective surface, its fields kept as tuples."""

    __slots__ = ("labels", "form", "canonical", "euler")

    def __init__(self, labels: tuple, form: tuple, canonical: tuple, euler: int):
        Record.__init__(self, labels, form, canonical, euler)
        r, form = self.rank, self.form
        if len(form) != r or any(len(row) != r for row in form):
            raise ValueError(f"form must be {r} x {r}, one row per label")
        if len(self.canonical) != r:
            raise ValueError(f"canonical class must have {r} coordinates")
        for p in range(r):
            for q in range(r):
                if form[p][q] != form[q][p]:
                    raise ValueError("form must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def intersect(self, x, y) -> int:
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError(f"classes must have {self.rank} coordinates")
        return sum(
            x[p] * self.form[p][q] * y[q]
            for p in range(self.rank)
            for q in range(self.rank)
        )

    def k_squared(self) -> int:
        return self.intersect(self.canonical, self.canonical)

    def chi_structure_sheaf(self) -> Fraction:
        """Noether: (K^2 + e)/12."""
        return Fraction(self.k_squared() + self.euler, 12)

    def chi_sheaf(self, z) -> Fraction:
        """Riemann-Roch for a line bundle of class z:
        chi(O) + (z^2 - z.K)/2."""
        zz = self.intersect(z, z)
        zk = self.intersect(z, self.canonical)
        return self.chi_structure_sheaf() + Fraction(zz - zk, 2)


def product_of_lines() -> SurfaceRing:
    return SurfaceRing(
        labels=("h1", "h2"),
        form=((0, 1), (1, 0)),
        canonical=(-2, -2),
        euler=4,
    )


def blow_up(s: SurfaceRing, k: int = 1) -> SurfaceRing:
    """Blow up k distinct points."""
    need_int("k", k, 0)
    r = s.rank
    labels = s.labels + tuple(f"e{p + 1}" for p in range(k))
    form = [row + (0,) * k for row in s.form]
    for p in range(k):
        row = [0] * (r + k)
        row[r + p] = -1
        form.append(row)
    return SurfaceRing(labels, form, s.canonical + (1,) * k, s.euler + k)


def universal_curve() -> SurfaceRing:
    """Universal curve over the compactified space of (1,1)-sections:
    the product of two lines blown up at the two marked-point
    constraints (0,0) and (infinity, infinity)."""
    return blow_up(product_of_lines(), 2)


def pulled_back_constraint() -> tuple:
    """Class of the pullback of O(-1,-1) to the universal curve; the
    exceptional directions receive nothing."""
    return (-1, -1, 0, 0)


def obstruction_bundle_degree() -> int:
    """Degree of the dual of the derived pushforward of the pulled-back
    twisting sheaf down to the moduli space, which is a line.

    The sheaf restricts to each fiber with degree -2, so the plain
    pushforward vanishes, the derived one has rank one, and Leray turns
    the total Euler characteristic chi (computed by Riemann-Roch on the
    universal curve) into minus the Euler characteristic of the derived
    pushforward.  The count orients the dual, giving degree
    rank - (-chi) = 1 + chi = 1.
    """
    c = universal_curve()
    z = pulled_back_constraint()
    chi = c.chi_sheaf(z)
    if chi.denominator != 1:
        raise ArithmeticError(f"Euler characteristic {chi} is not an integer")
    rank = h1_p1(-2)
    chi_pushforward = -int(chi)
    degree = chi_pushforward - rank
    return -degree
