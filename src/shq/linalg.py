"""Exact linear algebra over the Novikov scalars.

Matrices here represent quantum multiplication operators on the basis
omega^m, ..., omega, 1, so entries carry a grading constraint: with t
of degree 2N, the entry in row i, column j (0-indexed) can only be a
monomial c * t^d with N*d = i - j + 1.  Matrices may carry *unknown*
positions, entries whose t-power is pinned by the grading but whose
coefficient is not determined; such matrices refuse any computation
that would need the missing numbers.

A characteristic polynomial needs a graded matrix whose mat(1) is
lower Hessenberg with a nonzero superdiagonal, such as r (the
classical -n there, the corrections below) or multiplication by -n*g
in a quotient (-n times a companion matrix), or the zero matrix
(lambda^s).  Anything else raises ValueError.  Such a matrix is
nonderogatory, so e_last is a cyclic vector: the Krylov vectors
K_k = mat^k e_last are triangular, each pivot a product of
superdiagonal entries, and forward substitution in
K_s + c_1 K_(s-1) + ... + c_s K_0 = 0 gives the coefficients (Krylov's
method, Wilkinson, The Algebraic Eigenvalue Problem, ch. 6).  The
shape also leaves one Jordan block of eigenvalue zero, so
dim ker mat^j = min(j, s - p) with p the degree of the stable part,
and no rank is computed.  Neither check passes by construction:
Cayley-Hamilton evaluates e_0^T p(mat) by Horner's rule, a row the
solve never used and a cyclic one (e_0^T mat^k ends in a product of
superdiagonal entries at column k), so it holds exactly when
p(mat) = 0; the Jordan chain check asks u = q(mat) e_last, where
cp = lambda^(s-p) * q, for mat^(s-p-1) u != 0 and mat^(s-p) u = 0.

The core computes at t = 1.  If every nonzero entry (i, j) is
c * t^d with N*d = i - j + 1 and N != 0, then
mat(t) = t^(1/N) * D * mat(1) * D^-1 with D = diag(t^(i/N)), so the
characteristic coefficients are a_k = c_k(mat(1)) * t^(k/N), and both
checks are those of mat(1).  With N = 0 this holds when every t-power
is zero.  Such a matrix is stored as the sparse rows of mat(1), ints or
Fractions over Q, bits over GF(2); equality, hashing and rendering use
them, and Novikov scalars are built only for the s coefficients and
when entries are asked for.  A matrix without a grading, or with N = 0
and a nonzero t-power, keeps its Novikov entries and the core refuses it.
Rank and kernel stay general: a fraction-free elimination on the
Novikov rows accepts any matrix.
"""

from __future__ import annotations

from typing import Optional

from .novikov import CoefficientField, GF2Element, Novikov, Record, unknown_term_str


class IncompleteMatrixError(ValueError):
    """Raised when arithmetic touches a matrix with unknown entries."""


class LambdaMatrix:
    """Square matrix of Novikov scalars, optionally with unknowns.

    grading: degree bookkeeping; every entry and unknown is checked
        to be homogeneous in it.
    unknown: frozenset of (row, col, t_power), 0-indexed positions whose
        coefficient is undetermined; the entry there is zero.

    A graded matrix is stored as at_one = (N, mod, rows), the rows of
    mat(1): rows[i] maps column j to c of the nonzero entry
    (i, j) = c * t^((i - j + 1)/N), an int (a Fraction where not
    integral) over Q, mod 0, or a bit over GF(2), mod 2.  from_rows takes
    them directly and the constructor reads graded entries into them;
    entries is then a view built on first use.  A matrix that mat(1)
    does not determine keeps its entries, with at_one None.
    """

    __slots__ = ("field", "size", "grading", "unknown", "at_one", "_entries")

    def __init__(self, entries, grading=None, unknown=frozenset()):
        rows = tuple(tuple(r) for r in entries)
        s = len(rows)
        if s == 0 or any(len(r) != s for r in rows):
            raise ValueError("matrix must be square and nonempty")
        field = rows[0][0].field if isinstance(rows[0][0], Novikov) else None
        N = None if grading is None else grading.N
        # one pass validates the entries and reads mat(1) (N = 0: no t-power)
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
                readable = readable and (bool(N) or not d)
                out[j] = _ground(c)
            ground.append(out)
        if readable:
            self._store(field, grading, unknown, rows=ground)
        else:
            self._store(field, grading, unknown, entries=rows)

    @classmethod
    def from_rows(cls, field, grading, rows, unknown=frozenset()) -> "LambdaMatrix":
        """The graded matrix whose mat(1) has these rows, each mapping column j
        to the value at t = 1 of entry (i, j), zeros dropped, mod 2 over GF(2)."""
        mat = cls.__new__(cls)
        mat._store(field, grading, unknown, rows=rows)
        return mat

    def _store(self, field, grading, unknown, rows=None, entries=None):
        N = None if grading is None else grading.N
        s, at_one = len(rows if entries is None else entries), None
        if rows is not None:
            mod, ground = field.characteristic, []
            for i, row in enumerate(rows):
                ground.append({})
                for j, x in row.items():
                    x = x % mod if mod else (x.numerator if x.denominator == 1 else x)
                    if not x:
                        continue
                    if not 0 <= j < s or ((i - j + 1) % N if N else i - j + 1):
                        raise ValueError(f"entry ({i}, {j}) does not fit grading N = {N}")
                    ground[-1][j] = x
            at_one = (N, mod, tuple(ground))
        unknown = frozenset(unknown)
        for (i, j, d) in unknown:
            if not (0 <= i < s and 0 <= j < s) or d < 0:
                raise ValueError(f"unknown position {(i, j, d)} out of range")
            if entries[i][j] if at_one is None else j in at_one[2][i]:
                raise ValueError("unknown positions must hold a zero placeholder")
            if N is not None and N * d != i - j + 1:
                raise ValueError(
                    f"unknown at ({i}, {j}) declares t-power {d}, "
                    f"grading needs N*d = {i - j + 1}"
                )
        self.field, self.size, self.grading, self.unknown = field, s, grading, unknown
        self.at_one, self._entries = at_one, entries

    # -- structure --------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """Rows of Novikov scalars; a graded matrix builds them on first use."""
        if self._entries is None:
            self._entries = tuple(map(tuple, self._grid(Novikov.zero(self.field), None)))
        return self._entries

    def _grid(self, zero, render):
        """The rows of a graded matrix as an s x s list grid: zero, and each
        nonzero entry as a Novikov scalar, passed through render if given."""
        N, _, rows = self.at_one
        grid = [[zero] * self.size for _ in rows]
        for i, row in enumerate(rows):
            for j, c in row.items():
                x = _lift(self.field, N, i - j + 1, c)
                grid[i][j] = render(x) if render else x
        return grid

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
        a, b = self.at_one, other.at_one
        # under one N and one field the rows determine the entries
        same = a[2] == b[2] if a and b and a[:2] == b[:2] else self.entries == other.entries
        return same and self.unknown == other.unknown

    def __hash__(self):
        # the rows of mat(1) under every storage, so equal entries hash equal
        rows = self.at_one[2] if self.at_one else (
            {j: _ground(sum(x.num.values())) for j, x in enumerate(row) if x}
            for row in self.entries
        )
        return hash((tuple(frozenset(row.items()) for row in rows), self.unknown))

    def __repr__(self):
        rows = "; ".join(", ".join(str(x) for x in r) for r in self.entries)
        return f"LambdaMatrix[{rows}]"

    def to_strings(self) -> list:
        """Entries as text, unknowns rendered '?*t^d'.  A graded matrix
        renders each zero as '0' and builds a Novikov scalar only for a
        nonzero entry."""
        grid = self._grid("0", str) if self.at_one else [list(map(str, r)) for r in self.entries]
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


class CharPoly(Record):
    """Monic characteristic polynomial lambda^s + a_1 lambda^(s-1) + ... + a_s."""

    __slots__ = ("size", "a")

    def __init__(self, size: int, a: tuple):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "a", a)  # (a_1, ..., a_s)

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


# -- the scalars the core runs on ---------------------------------------------


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


def _lift(field: CoefficientField, N: int, k: int, c) -> Novikov:
    """The Novikov scalar of weight k whose value at t = 1 is the nonzero
    c: c * t^(k/N), such as a_k from c_k(mat(1))."""
    d = _t_power(N, k)
    if d is None:
        raise ArithmeticError(f"{c} of weight {k} at t = 1 does not fit grading N = {N}")
    return Novikov.monomial(field, c, d)


# -- the Hessenberg core --------------------------------------------------------


def _hessenberg(mat: LambdaMatrix, what: str):
    """(N, op) of a complete mat whose mat(1) is lower Hessenberg with
    a nonzero superdiagonal, or zero; ValueError otherwise.  op is
    (sup, low, mod): the superdiagonal, the (i, j, entry) triples on and
    below the diagonal, and the modulus of the scalars, all of mat(1)."""
    mat._require_complete(what)
    if mat.at_one is None:
        raise ValueError(
            f"{what} needs a graded matrix that reads at t = 1 "
            "(no grading, or N = 0 with a nonzero t-power)"
        )
    N, mod, rows = mat.at_one
    sup, low = [0] * (len(rows) - 1), []
    for i, row in enumerate(rows):
        for j, x in row.items():
            if j > i + 1:
                raise ValueError(f"entry ({i}, {j}) lies above the superdiagonal")
            if j == i + 1:
                sup[i] = x
            else:
                low.append((i, j, x))
    if not all(sup) and (low or any(sup)):
        raise ValueError("a superdiagonal entry is zero and the matrix is not zero")
    return N, (sup, low, mod)


def _apply(op, v: list) -> list:
    """The matrix times v: the superdiagonal shifts v up, then each
    entry on or below the diagonal adds its term."""
    sup, low, mod = op
    out = [a * x for a, x in zip(sup, v[1:])]
    out.append(0)
    for i, j, a in low:
        if v[j]:
            out[i] += a * v[j]
    return [x % mod for x in out] if mod else out


def _horner(op, c, e: int) -> list:
    """q(mat) e_e by Horner's rule, for q = lambda^k + c_1 lambda^(k-1)
    + ... + c_k with c = [c_1, ..., c_k]."""
    mod = op[2]
    v = [0] * (len(op[0]) + 1)
    v[e] = 1
    for x in c:
        v = _apply(op, v)
        if x:
            v[e] = (v[e] + x) % mod if mod else v[e] + x
    return v


def _solve(op) -> list:
    """[c_1, ..., c_s] of an unreduced lower Hessenberg or zero matrix:
    the Krylov vectors K_k = mat^k e_last, then forward substitution in
    K_s + c_1 K_(s-1) + ... + c_s K_0 = 0, top row first.  Unverified;
    callers check it."""
    s, mod = len(op[0]) + 1, op[2]
    K = [[0] * (s - 1) + [1]]
    for _ in range(s):
        K.append(_apply(op, K[-1]))
    c, nonzero = [], []
    for i in range(s):
        # row i holds c_1, ..., c_(i+1); K_(s-1-i) starts there, with a
        # product of superdiagonal entries as its pivot (zero only in the
        # zero matrix, where every acc is zero too)
        acc = K[s][i] + sum(x * K[s - k][i] for k, x in nonzero)
        x = acc % mod if mod else acc
        if x:
            piv = K[s - 1 - i][i]
            # an integer matrix has integer c_k, so // is exact
            x = -x // piv if type(x) is int and type(piv) is int else -x / piv
            x = x % mod if mod else x
            nonzero.append((i + 1, x))
        c.append(x)
    return c


def _lifted(mat: LambdaMatrix, N: int, c) -> CharPoly:
    """The characteristic polynomial whose coefficients at t = 1 are c."""
    zero = Novikov.zero(mat.field)
    return CharPoly(
        mat.size,
        tuple(_lift(mat.field, N, k, x) if x else zero for k, x in enumerate(c, 1)),
    )


def _annihilates(op, c) -> bool:
    """Cayley-Hamilton on the cyclic row e_0^T, which the solve never
    used: e_0^T p(mat) = 0 exactly when p(mat) = 0.  Reversing the basis
    turns mat^T into a lower Hessenberg matrix again, whose
    superdiagonal is sup reversed and which sends e_0 to e_last."""
    sup, low, mod = op
    s = len(sup) + 1
    flipped = (sup[::-1], [(s - 1 - j, s - 1 - i, a) for i, j, a in low], mod)
    return not any(_horner(flipped, c, s - 1))


def _chain_dims(op, c) -> Optional[list]:
    """dim ker(mat^j) for j = 0, ..., s - p: min(j, s - p) once the
    Jordan chain of u = q(mat) e_last, cp = lambda^(s-p) q, has length
    exactly s - p; None when it has not.  A zero matrix gives [0, s]."""
    sup, low, _ = op
    s = len(c)
    if not low and not any(sup):
        return [0, s]
    p = max((k for k, x in enumerate(c, 1) if x), default=0)
    last, u = None, _horner(op, c[:p], s - 1)
    for _ in range(s - p):
        last, u = u, _apply(op, u)
    if any(u) or (last is not None and not any(last)):
        return None
    return list(range(s - p + 1))


def char_poly(mat: LambdaMatrix) -> CharPoly:
    """Characteristic polynomial, verified before returning: it must
    annihilate the matrix (Cayley-Hamilton)."""
    N, op = _hessenberg(mat, "characteristic polynomial")
    c = _solve(op)
    if not _annihilates(op, c):
        raise ArithmeticError("characteristic polynomial failed to annihilate")
    return _lifted(mat, N, c)


def spectrum(mat: LambdaMatrix) -> tuple[CharPoly, bool, Optional[list]]:
    """(characteristic polynomial, whether it annihilates the matrix,
    kernel_dims or None when the Jordan chain check fails).  Unlike
    char_poly and kernel_dims, a failed check is reported, not raised."""
    N, op = _hessenberg(mat, "characteristic polynomial")
    c = _solve(op)
    return _lifted(mat, N, c), _annihilates(op, c), _chain_dims(op, c)


def rank(mat: LambdaMatrix) -> int:
    mat._require_complete("rank")
    return len(_echelon(_novikov_rows(mat)))


def _echelon(rows: list) -> dict:
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
            row = {j: x for j, x in new.items() if x}
    return pivots


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
    pivots = _echelon(_novikov_rows(mat))
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
    index; the last entry is the dimension of the generalized kernel.
    Raises ArithmeticError when the Jordan chain check fails."""
    _, op = _hessenberg(mat, "kernel dimensions")
    dims = _chain_dims(op, _solve(op))
    if dims is None:
        raise ArithmeticError("the Jordan chain of eigenvalue zero has the wrong length")
    return dims


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
