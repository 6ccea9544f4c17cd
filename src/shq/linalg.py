"""Exact linear algebra over the Novikov scalars.

Matrices here represent quantum multiplication operators on the basis
omega^m, ..., omega, 1, so entries carry a grading constraint: with t
of degree 2N, the entry in row i, column j (0-indexed) can only be a
monomial c * t^d with N*d = i - j + 1.  Matrices may carry *unknown*
positions, entries whose t-power is pinned by the grading but whose
coefficient is not determined; such matrices refuse any computation
that would need the missing numbers.

The characteristic polynomial uses the Berkowitz algorithm: division
free, so it works verbatim over GF(2), and every result is verified by
substituting the matrix back in (Cayley-Hamilton).  That check, the
kernel dimensions of the powers and the Jordan blocks of eigenvalue
zero all come from one walk over mat, mat^2, ..., mat^s.

Graded matrices are computed at t = 1.  If every nonzero entry (i, j)
is c * t^d with N*d = i - j + 1 and N != 0, then
mat(t) = t^(1/N) * D * mat(1) * D^-1 with D = diag(t^(i/N)), so the
characteristic coefficients are a_k = c_k(mat(1)) * t^(k/N), and ranks,
kernel dimensions and the Cayley-Hamilton residual are those of the
constant matrix mat(1).  With N = 0 this holds when every t-power is
zero.  The grading is read once, at construction: the same pass that
validates the entries stores the rows of mat(1), and every computation
on the matrix starts from them.

One core computes every matrix: the Berkowitz recurrence, the walk
over the powers and a fraction-free elimination, all on sparse rows
that hold only the nonzero entries.  They use nothing but +, -, * and
truthiness, so two kinds of scalars feed them.  A graded matrix gives
the ground-field rows of mat(1) (ints or Fractions over Q, bits over
GF(2)), and only the s characteristic coefficients are lifted back to
Novikov scalars.  Any other matrix (entries such as 1 + t, or N = 0
with a nonzero t-power) gives its Novikov entries as they stand.  The
kernel back-substitutes on the same elimination of the Novikov rows,
so nothing but a unit is ever divided by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .novikov import CoefficientField, GF2Element, Novikov, unknown_term_str


class IncompleteMatrixError(ValueError):
    """Raised when arithmetic touches a matrix with unknown entries."""


class LambdaMatrix:
    """Square matrix of Novikov scalars, optionally with unknowns.

    entries: tuple of tuple of Novikov, rows first.
    grading: degree bookkeeping; every entry and unknown is checked
        to be homogeneous in it.
    unknown: frozenset of (row, col, t_power), 0-indexed positions whose
        coefficient is undetermined; the stored entry there is zero.

    Construction reads each entry once.  Under a grading it stores
    _at_one = (N, mod, rows) for the core, or None when mat(1) does not
    determine mat (no grading, or N = 0 with a nonzero t-power).  rows[i]
    maps column j to the ground coefficient of the nonzero entry (i, j):
    an int, or a Fraction where it is not integral, over Q (mod 0), a bit
    over GF(2) (mod 2).
    """

    __slots__ = ("entries", "grading", "unknown", "_at_one")

    def __init__(self, entries, grading=None, unknown=frozenset()):
        rows = tuple(tuple(r) for r in entries)
        s = len(rows)
        if s == 0 or any(len(r) != s for r in rows):
            raise ValueError("matrix must be square and nonempty")
        field = rows[0][0].field if isinstance(rows[0][0], Novikov) else None
        N = None if grading is None else grading.N
        # one pass over the entries validates them and, under a grading,
        # reads mat(1): with N = 0 only if every t-power is zero
        ground, readable = [], N is not None
        for i, row in enumerate(rows):
            out = {}
            for j, x in enumerate(row):
                if not isinstance(x, Novikov) or x.field != field:
                    raise ValueError("all entries must share one coefficient field")
                if N is None or not x:
                    continue
                parts = x.monomial_parts()
                if parts is None:
                    raise ValueError(f"entry ({i}, {j}) is not a monomial")
                c, d = parts
                k = i - j + 1
                if N * d != k:
                    raise ValueError(
                        f"entry ({i}, {j}) has t-power {d}, grading needs N*d = {k}"
                    )
                if d and not N:
                    readable = False
                out[j] = _ground(c)
            ground.append(out)
        unknown = frozenset(unknown)
        for (i, j, d) in unknown:
            if not (0 <= i < s and 0 <= j < s) or d < 0:
                raise ValueError(f"unknown position {(i, j, d)} out of range")
            if rows[i][j]:
                raise ValueError("unknown positions must hold a zero placeholder")
            if N is not None and N * d != i - j + 1:
                raise ValueError(
                    f"unknown at ({i}, {j}) declares t-power {d}, "
                    f"grading needs N*d = {i - j + 1}"
                )
        self.entries = rows
        self.grading = grading
        self.unknown = unknown
        self._at_one = (N, field.characteristic, tuple(ground)) if readable else None

    # -- structure --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def field(self) -> CoefficientField:
        return self.entries[0][0].field

    @property
    def is_complete(self) -> bool:
        return not self.unknown

    def _require_complete(self, what: str):
        if self.unknown:
            pos = sorted((i, j) for (i, j, _) in self.unknown)
            raise IncompleteMatrixError(
                f"{what} needs every entry; undetermined positions {pos}"
            )

    @classmethod
    def identity(cls, field: CoefficientField, s: int) -> "LambdaMatrix":
        one, zero = Novikov.one(field), Novikov.zero(field)
        return cls(
            tuple(
                tuple(one if i == j else zero for j in range(s)) for i in range(s)
            )
        )

    def __eq__(self, other):
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        return self.entries == other.entries and self.unknown == other.unknown

    def __hash__(self):
        return hash((self.entries, self.unknown))

    def __repr__(self):
        rows = "; ".join(", ".join(str(x) for x in r) for r in self.entries)
        return f"LambdaMatrix[{rows}]"

    def to_strings(self) -> list:
        """Entries as text, unknowns rendered '?*t^d'."""
        grid = [[str(x) for x in row] for row in self.entries]
        for (i, j, d) in self.unknown:
            grid[i][j] = unknown_term_str(d)
        return grid

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        self._require_complete("matrix product")
        other._require_complete("matrix product")
        if self.size != other.size:
            raise ValueError("size mismatch")
        zero = Novikov.zero(self.field)
        rows = []
        for row in self.entries:
            # row i of the product: the rows of other weighted by row i
            acc = [zero] * self.size
            for a, orow in zip(row, other.entries):
                if a:
                    acc = [x + a * y if y else x for x, y in zip(acc, orow)]
            rows.append(acc)
        return LambdaMatrix(rows)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative matrix powers are not needed here")
        out = self if k else LambdaMatrix.identity(self.field, self.size)
        for _ in range(k - 1):
            out = out * self
        return out


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial lambda^s + a_1 lambda^(s-1) + ... + a_s."""

    size: int
    a: tuple  # (a_1, ..., a_s)

    @property
    def field(self) -> CoefficientField:
        return self.a[0].field

    def coefficients(self) -> tuple:
        """All coefficients, descending in lambda, leading 1 included."""
        return (Novikov.one(self.field),) + self.a

    def __str__(self):
        parts = ["L^%d" % self.size]
        for k, c in enumerate(self.a, start=1):
            if c:
                e = self.size - k
                gen = "" if e == 0 else ("*L" if e == 1 else f"*L^{e}")
                parts.append(f"({c}){gen}")
        return " + ".join(parts)


def _berkowitz(mat: LambdaMatrix) -> CharPoly:
    """Characteristic polynomial by the Berkowitz vector recurrence.

    Division free: only ring operations on the entries, so valid over
    GF(2) as well as over the rationals.  Unverified; callers check it.
    """
    N, mod, rows = _sparse_rows(mat)
    zero = Novikov.zero(mat.field)
    a = tuple(
        _lift(mat.field, N, k, c) if c else zero
        for k, c in enumerate(_sparse_berkowitz(rows, mod), start=1)
    )
    return CharPoly(mat.size, a)


def _power_chain(mat: LambdaMatrix, cp: Optional[CharPoly], want_dims: bool):
    """The one walk over the powers of mat, holding only the current one.

    With cp it sums the Cayley-Hamilton residual mat^s + a_1 mat^(s-1)
    + ... + a_s and reports whether it vanishes.  With want_dims it
    records dim ker(mat^j) for j = 0, 1, ... up to the stabilization
    index.  Returns (annihilates or None, kernel dims or None).
    """
    N, mod, rows = _sparse_rows(mat)
    c = None
    if cp is not None:
        c = None if N is None else _coefficients_at_one(cp, N)
        if c is None:
            # ungraded, or a cp off the grading that t = 1 cannot read
            mod, rows, c = 0, _novikov_rows(mat), cp.coefficients()
    return _sparse_walk(rows, mod, c, want_dims)


# -- the scalars the core runs on ---------------------------------------------


def _sparse_rows(mat: LambdaMatrix):
    """(N, mod, rows) for the core: the reading of mat(1) stored at
    construction, else N = None, mod 0 and the Novikov rows."""
    return mat._at_one or (None, 0, _novikov_rows(mat))


def _novikov_rows(mat: LambdaMatrix) -> list:
    """rows[i] maps column j to the nonzero Novikov entry (i, j)."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat.entries]


def _ground(c):
    """A nonzero coefficient as a bit over GF(2), over Q as an int where
    it is integral."""
    if isinstance(c, GF2Element):
        return c.v
    return c.numerator if c.denominator == 1 else c


def _t_power(N: int, k: int) -> Optional[int]:
    """The t-power of a_k at grading N; None when N does not divide k."""
    if not N:
        return 0
    return k // N if k % N == 0 else None


def _lift(field: CoefficientField, N: Optional[int], k: int, c) -> Novikov:
    """The Novikov scalar of weight k whose value at t = 1 is the nonzero
    c: c * t^(k/N), such as a_k from c_k(mat(1)); c itself on Novikov
    scalars (N is None)."""
    if N is None:
        return c
    d = _t_power(N, k)
    if d is None:
        raise ArithmeticError(f"{c} of weight {k} at t = 1 does not fit grading N = {N}")
    return Novikov.monomial(field, c, d)


def _coefficients_at_one(cp: CharPoly, N: int) -> Optional[list]:
    """[1, c_1, ..., c_s] when every a_k is c_k * t^(k/N), else None."""
    out = [1]
    for k, x in enumerate(cp.a, start=1):
        if not x:
            out.append(0)
            continue
        parts = x.monomial_parts()
        if parts is None or parts[1] != _t_power(N, k):
            return None
        out.append(_ground(parts[0]))
    return out


def _clean(row: dict, mod: int) -> dict:
    """The nonzero entries of a sparse row, reduced mod 2 over GF(2)."""
    if mod:
        return {j: x % mod for j, x in row.items() if x % mod}
    return {j: x for j, x in row.items() if x}


def _sparse_berkowitz(rows: list, mod: int) -> list:
    """c_1, ..., c_s of the matrix with sparse rows by the Berkowitz
    recurrence: each product of the leading block and a vector runs
    over the vector's nonzero entries."""
    s = len(rows)
    cols = [{} for _ in range(s)]
    for p, row in enumerate(rows):
        for j, c in row.items():
            cols[j][p] = c
    C = [1, -rows[0].get(0, 0)]
    for i in range(1, s):
        # row i and column i of the leading (i+1) x (i+1) block, off the diagonal
        R = [(j, c) for j, c in rows[i].items() if j < i]
        vec = {p: c for p, c in cols[i].items() if p < i}
        col = [1, -rows[i].get(i, 0)]
        for step in range(i):
            if not R or not vec:
                break
            col.append(-sum(c * vec[j] for j, c in R if j in vec))
            if step < i - 1:
                acc = {}
                for j, v in vec.items():
                    for p, c in cols[j].items():
                        if p < i:
                            acc[p] = acc.get(p, 0) + c * v
                vec = _clean(acc, mod)
        col += [0] * (i + 2 - len(col))
        # C <- Toeplitz(col) * C, over the nonzero terms of each
        out = [0] * (i + 2)
        terms = [(q, x) for q, x in enumerate(col) if x]
        for k, c in enumerate(C):
            if c:
                for q, x in terms:
                    if k + q <= i + 1:
                        out[k + q] += c * x
        C = [x % mod for x in out] if mod else out
    return C[1:]


def _echelon(rows: list, mod: int) -> dict:
    """Pivot rows of sparse rows keyed by leading column, by
    fraction-free elimination: each row is reduced against the pivot
    row of its leading column, as pivot[lead] * row - row[lead] * pivot,
    until it is zero or leads in a column of its own."""
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            a, b = prow[lead], row[lead]
            new = {j: a * x for j, x in row.items()}
            for j, x in prow.items():
                new[j] = new.get(j, 0) - b * x
            row = _clean(new, mod)
    return pivots


def _sparse_walk(rows: list, mod: int, c, want_dims: bool):
    """_power_chain on sparse rows: the Cayley-Hamilton residual with
    the coefficients c = [1, c_1, ..., c_s] (or None) and the kernel
    dimensions of the powers, from one walk over sparse powers."""
    s = len(rows)
    residual = None
    if c is not None:
        residual = [{p: c[s]} for p in range(s)]
    dims = [0] if want_dims else None
    stable = not want_dims
    power = rows
    for j in range(1, s + 1):
        if j > 1:
            nxt = []
            for prow in power:
                acc = {}
                for k, v in prow.items():
                    for q, x in rows[k].items():
                        acc[q] = acc.get(q, 0) + v * x
                nxt.append(_clean(acc, mod))
            power = nxt
        if residual is not None and c[s - j]:
            a = c[s - j]
            for row, prow in zip(residual, power):
                for q, x in prow.items():
                    row[q] = row.get(q, 0) + a * x
        if not stable:
            d = s - len(_echelon(power, mod))
            stable = d in (dims[-1], s)
            if d != dims[-1]:
                dims.append(d)
        # past a zero power every later term of the residual vanishes
        if (stable and residual is None) or not any(power):
            break
    annihilates = None
    if residual is not None:
        annihilates = not any(_clean(row, mod) for row in residual)
    return annihilates, dims


def char_poly(mat: LambdaMatrix) -> CharPoly:
    """Characteristic polynomial, verified before returning: substituted
    back into the matrix it must annihilate it (Cayley-Hamilton)."""
    mat._require_complete("characteristic polynomial")
    cp = _berkowitz(mat)
    if not _power_chain(mat, cp, want_dims=False)[0]:
        raise ArithmeticError("characteristic polynomial failed to annihilate")
    return cp


def spectrum(mat: LambdaMatrix) -> tuple[CharPoly, bool, list]:
    """(characteristic polynomial, whether it annihilates the matrix,
    kernel_dims), all from one walk over the powers.  Unlike char_poly,
    a failed Cayley-Hamilton check is reported, not raised."""
    mat._require_complete("characteristic polynomial")
    cp = _berkowitz(mat)
    return (cp,) + _power_chain(mat, cp, want_dims=True)


def rank(mat: LambdaMatrix) -> int:
    mat._require_complete("rank")
    _, mod, rows = _sparse_rows(mat)
    return len(_echelon(rows, mod))


def kernel(mat: LambdaMatrix) -> list:
    """Basis of the kernel, one vector per free column.

    Back-substitution on the echelon form of the Novikov rows, without
    dividing: the vector starts as the free column's unit vector, and a
    pivot row whose sum with it is nonzero scales it by its pivot and
    sets its own column to minus that sum.  Each vector is then divided
    by its first nonzero entry when that entry is a unit, so a vector may
    keep a common factor that is not a unit: the kernel of
    ((1 + t, 1 + t), (0, 0)) is [(-1 - t, 1 + t)].
    """
    mat._require_complete("kernel")
    s = mat.size
    pivots = _echelon(_novikov_rows(mat), 0)
    zero, one = Novikov.zero(mat.field), Novikov.one(mat.field)
    basis = []
    for f in range(s):
        if f in pivots:
            continue
        v = {f: one}
        for p in sorted(pivots, reverse=True):
            row = pivots[p]
            acc = sum((x * v[j] for j, x in row.items() if j in v), zero)
            if acc:
                a = row[p]
                v = {j: a * x for j, x in v.items()}
                v[p] = -acc
        vec = [v.get(j, zero) for j in range(s)]
        lead = v[min(v)]
        if lead.monomial_parts() is not None:
            inv = lead.inverse()
            vec = [x * inv if x else x for x in vec]
        basis.append(tuple(vec))
    return basis


def kernel_dims(mat: LambdaMatrix) -> list:
    """dim ker(mat^j) for j = 0, 1, ..., k with k the stabilization
    index; the last entry is the dimension of the generalized kernel."""
    mat._require_complete("kernel dimensions")
    return _power_chain(mat, None, want_dims=True)[1]


def stabilization_index(mat: LambdaMatrix) -> int:
    """Least k with ker(mat^k) = ker(mat^(k+1))."""
    return len(kernel_dims(mat)) - 1


def stabilized_kernel(mat: LambdaMatrix) -> list:
    """Basis of the generalized kernel, ker(mat^k) at stabilization."""
    k = stabilization_index(mat)
    return kernel(mat ** k) if k else []


def zero_block_sizes(dims) -> list:
    """Jordan blocks of eigenvalue zero, descending, from kernel_dims."""
    deltas = [dims[k + 1] - dims[k] for k in range(len(dims) - 1)]
    deltas.append(0)
    sizes = []
    for k in range(len(deltas) - 1, 0, -1):
        sizes.extend([k] * (deltas[k - 1] - deltas[k]))
    return sorted(sizes, reverse=True)


def jordan_zero_block_sizes(mat: LambdaMatrix) -> list:
    """Sizes of the Jordan blocks of eigenvalue zero, descending."""
    return zero_block_sizes(kernel_dims(mat))


def stable_relation(cp: CharPoly) -> tuple[int, tuple]:
    """Split the characteristic polynomial lambda^s + a_1 lambda^(s-1)
    + ... + a_s as lambda^(s-p) * (monic degree-p part with nonzero
    constant term).

    The degree-p factor presents the quotient by the generalized kernel
    of the operator; p = 0 means the operator is nilpotent and the
    quotient is the zero ring.  Returns (p, coefficients ascending,
    length p + 1, monic).
    """
    coeffs = list(cp.coefficients())  # descending, length s + 1
    p = 0
    for k in range(cp.size, 0, -1):
        if cp.a[k - 1]:
            p = k
            break
    rel = coeffs[: p + 1]  # lambda^s .. lambda^(s-p) coefficients
    return p, tuple(reversed(rel))
