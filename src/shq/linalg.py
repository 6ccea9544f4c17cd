"""Exact linear algebra over the Novikov scalars.

Matrices here represent quantum multiplication operators on the basis
omega^m, ..., omega, 1, so entries carry a grading constraint: with t
of degree 2N, a matrix of weight w holds at row i, column j (0-indexed)
either zero or a monomial c * t^d with N*d = i - j + w.  r and each
multiplication by a degree-two class have weight 1, the identity has
weight 0, and a product adds the weights.  Matrices may carry *unknown*
positions, entries whose t-power is pinned by the grading but whose
coefficient is not determined; such matrices refuse any computation
that would need the missing numbers.

A characteristic polynomial needs a matrix of weight 1 whose mat(1) is
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
dim ker mat^j = min(j, s - p) with p the degree of the stable part.
The rank is s - dim ker mat, and the Jordan chain u, mat u, ...,
mat^(s-p-1) u (u below) spans the generalized kernel: there is no
elimination and no matrix power, and every function here reads the
one solve.  Neither check passes by construction:
Cayley-Hamilton evaluates e_0^T p(mat) by Horner's rule, a row the
solve never used and a cyclic one (e_0^T mat^k ends in a product of
superdiagonal entries at column k), so it holds exactly when
p(mat) = 0; the Jordan chain check asks u = q(mat) e_last, where
cp = lambda^(s-p) * q, for mat^(s-p-1) u != 0 and mat^(s-p) u = 0.
The solve, both checks, matrix products and ring's quotients share one
mat-vec and one Horner loop, mat_vec and horner, on an operator's
columns {row: value} and sparse vectors {index: value}, so a step costs
the nonzeros it touches, not s.  Cayley-Hamilton reads mat's rows as
the columns of its transpose.

Everything computes at t = 1.  With N != 0,
mat(t) = t^(w/N) * D * mat(1) * D^-1 with D = diag(t^(i/N)), so the
characteristic coefficients of a weight-1 matrix are
a_k = c_k(mat(1)) * t^(k/N), both checks are those of mat(1), the rank
is that of mat(1) and each generalized kernel vector is D times one of
mat(1); with N = 0 every t-power is zero.  A matrix is therefore stored
as the sparse rows of mat(1) and a characteristic polynomial as
c_1, ..., c_s, both in the one ground-value format of
CoefficientField.of: an int (a Fraction where not integral) over Q, a
bit 0 or 1 over GF(2).  The grading rule is GradingContext.t_power: a
nonzero value of weight k is stored only where it gives the t-power d
with N*d = k (at N = 0, only k = 0 with d = 0), and is refused
elsewhere: by the matrix with ValueError, and by CharPoly with
ArithmeticError.  Novikov scalars are built only for generalized
kernel vectors and, on each call, when the entries of a matrix or the
coefficients a_k are asked for: the value c of weight k
lifts to Novikov(field, c, grading.t_power(k)), so the views hold the
same values.  Rendering builds none, as each entry or a_k is one
monomial c * t^d, rendered from c by term_str.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .novikov import CoefficientField, Novikov, Record, term_str


class IncompleteMatrixError(ValueError):
    """Raised when arithmetic touches a matrix with unknown entries."""


class LambdaMatrix(Record):
    """Square matrix of Novikov scalars of one weight, optionally with
    unknowns, stored as its rows at t = 1.

    rows[i] maps column j to c of the nonzero entry
    (i, j) = c * t^((i - j + weight)/N), a ground value of field.of: an
    int (a Fraction where not integral) over Q, or a bit over GF(2).
    The constructor reads each value it is given through field.of, drops
    zeros and checks each position against the grading; entries is a
    view built on each call.
    unknown: frozenset of (row, col, t_power), 0-indexed positions whose
        coefficient is undetermined; the entry there is zero.
    size, the number of rows, follows from rows.
    """

    __slots__ = ("field", "grading", "rows", "unknown", "weight", "size")
    _fields = __slots__[:-1]

    def __init__(self, field: CoefficientField, grading, rows, unknown=(), weight: int = 1):
        of, power, s = field.of, grading.t_power, len(rows)
        if not s:
            raise ValueError("matrix must be nonempty")
        ground = []
        for i, row in enumerate(rows):
            ground.append({})
            for j, x in row.items():
                x = of(x)
                if not x:
                    continue
                if not 0 <= j < s or power(i - j + weight) is None:
                    raise ValueError(
                        f"entry ({i}, {j}) does not fit grading N = {grading.N} at weight {weight}"
                    )
                ground[-1][j] = x
        unknown = frozenset(unknown)
        for (i, j, d) in unknown:
            if not (0 <= i < s and 0 <= j < s) or d < 0:
                raise ValueError(f"unknown position {(i, j, d)} out of range")
            if j in ground[i]:
                raise ValueError("unknown positions must hold a zero placeholder")
            if power(i - j + weight) != d:
                raise ValueError(
                    f"unknown at ({i}, {j}) declares t-power {d}, "
                    f"grading needs N*d = {i - j + weight}"
                )
        Record.__init__(self, field, grading, tuple(ground), unknown, weight)
        object.__setattr__(self, "size", s)

    # -- structure --------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """Rows of Novikov scalars, built on each call."""
        power, w, field = self.grading.t_power, self.weight, self.field
        zero = Novikov.zero(field)
        grid = [[zero] * self.size for _ in self.rows]
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                grid[i][j] = Novikov(field, c, power(i - j + w))
        return tuple(map(tuple, grid))

    @property
    def is_complete(self) -> bool:
        return not self.unknown

    def _require_complete(self, what: str):
        if self.unknown:
            pos = sorted((i, j) for (i, j, _) in self.unknown)
            raise IncompleteMatrixError(
                f"{what} needs every entry; undetermined positions {pos}"
            )

    def _value(self):
        # an all-zero matrix has the same entries at every weight
        weight = self.weight if self.unknown or any(self.rows) else None
        return (self.field, self.grading, weight, self.rows, self.unknown)

    def __eq__(self, other):
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        field, grading, weight, rows, unknown = self._value()
        return hash((field, grading, weight, tuple(frozenset(r.items()) for r in rows), unknown))

    def __repr__(self):
        rows = "; ".join(", ".join(r) for r in self.to_strings())
        return f"LambdaMatrix[{rows}]"

    def to_strings(self) -> list:
        """Entries as text, as str renders the entries: each zero '0', and
        each nonzero c * t^d rendered from c with no Novikov scalar built.
        Unknowns read '?*t^d', one string per t-power."""
        power, w, text = self.grading.t_power, self.weight, {}
        grid = [["0"] * self.size for _ in self.rows]
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                grid[i][j] = term_str(c, power(i - j + w))
        for (i, j, d) in self.unknown:
            grid[i][j] = text.get(d) or text.setdefault(d, term_str("?", d))
        return grid

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        self._require_complete("matrix product")
        other._require_complete("matrix product")
        if (self.field, self.grading, self.size) != (other.field, other.grading, other.size):
            raise ValueError("a product needs one field, one grading and one size")
        # row i of the product: the rows of other, the columns of its
        # transpose, weighted by row i
        mod = self.field.characteristic
        rows = [mat_vec(other.rows, row, mod) for row in self.rows]
        return LambdaMatrix(self.field, self.grading, rows, weight=self.weight + other.weight)


class CharPoly(Record):
    """Monic characteristic polynomial lambda^s + a_1 lambda^(s-1) + ...
    + a_s of a weight-1 matrix, stored at t = 1.

    values holds c_1, ..., c_s as ground values of field.of, and
    a_k = c_k * t^d with d = grading.t_power(k); a nonzero c_k of a
    weight k no d fits (N not dividing k, or any k at N = 0) raises
    ArithmeticError.  a, the Novikov coefficients, is a view built on
    each call.
    """

    __slots__ = ("field", "grading", "values")

    def __init__(self, field: CoefficientField, grading, values):
        values = field.of_all(values)
        Record.__init__(self, field, grading, values)
        for k, c in enumerate(values, 1):
            if c and grading.t_power(k) is None:
                raise ArithmeticError(
                    f"{c} of weight {k} at t = 1 does not fit grading N = {grading.N}"
                )

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def a(self) -> tuple:
        """(a_1, ..., a_s) as Novikov scalars, built on each call."""
        return tuple(map(self.coefficient, range(1, self.size + 1)))

    def coefficient(self, k: int) -> Novikov:
        """a_k as a Novikov scalar, 1 <= k <= s."""
        return Novikov(self.field, self.values[k - 1], self.grading.t_power(k))

    def coefficient_str(self, k: int) -> str:
        """str(self.coefficient(k)), with no scalar built."""
        return term_str(self.values[k - 1], self.grading.t_power(k))


# -- the shared core ----------------------------------------------------------


def mat_vec(cols, v: dict, mod: int) -> dict:
    """The operator with columns cols, cols[j] = {row: value}, times the
    sparse vector v = {index: value}, mod mod (0: none), zeros dropped."""
    out = {}
    get = out.get
    for j, x in v.items():
        for i, a in cols[j].items():
            out[i] = get(i, 0) + a * x
    if mod:
        return {i: y for i, x in out.items() if (y := x % mod)}
    return {i: x for i, x in out.items() if x}


def horner(cols, coeffs, u: dict, mod: int) -> dict:
    """p(op) u by Horner's rule, op given by its columns as for mat_vec
    and p = coeffs[0] lambda^k + coeffs[1] lambda^(k-1) + ... + coeffs[k]."""
    v = {}
    for c in coeffs:
        if v:
            v = mat_vec(cols, v, mod)
        if c:
            for i, x in u.items():
                v[i] = v.get(i, 0) + c * x
            v = {i: y for i, x in v.items() if (y := x % mod if mod else x)}
    return v


# -- the Hessenberg solve and its checks ----------------------------------------


def _hessenberg(mat: LambdaMatrix):
    """(columns of mat(1), modulus) of a complete mat of weight 1 whose
    mat(1) is lower Hessenberg with a nonzero superdiagonal, or zero;
    ValueError otherwise."""
    mat._require_complete("characteristic polynomial")
    if mat.weight != 1:
        raise ValueError(f"characteristic polynomial needs a matrix of weight 1, not {mat.weight}")
    rows, cols = mat.rows, [{} for _ in mat.rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            if j > i + 1:
                raise ValueError(f"entry ({i}, {j}) lies above the superdiagonal")
            cols[j][i] = x
    if any(rows) and not all(i + 1 in row for i, row in enumerate(rows[:-1])):
        raise ValueError("a superdiagonal entry is zero and the matrix is not zero")
    return cols, mat.field.characteristic


def _solve(op) -> list:
    """[c_1, ..., c_s] of an unreduced lower Hessenberg or zero matrix:
    the sparse Krylov vectors K_k = mat^k e_last, then forward
    substitution in K_s + c_1 K_(s-1) + ... + c_s K_0 = 0, top row first,
    with acc the left side so far.  Unverified; callers check it."""
    cols, mod = op
    s = len(cols)
    K = [{s - 1: 1}]
    for _ in range(s):
        K.append(mat_vec(cols, K[-1], mod))
    acc, c = dict(K[s]), []
    for i in range(s):
        # row i fixes c_(i+1), the weight of K_(s-1-i), whose pivot there is
        # a product of superdiagonal entries (zero only in the zero matrix)
        x = acc.get(i, 0)
        x = x % mod if mod else x
        if x:
            piv = K[s - 1 - i][i]
            # an integer matrix has integer c_k, so // is exact
            x = -x // piv if type(x) is int and type(piv) is int else -x / piv
            x = x % mod if mod else x
            for j, y in K[s - 1 - i].items():
                acc[j] = acc.get(j, 0) + x * y
        c.append(x)
    return c


def _annihilates(mat: LambdaMatrix, c) -> bool:
    """Cayley-Hamilton on the cyclic row e_0^T, which the solve never
    used: e_0^T p(mat) = 0 exactly when p(mat) = 0, by horner through
    every power on the rows of mat, the columns of its transpose."""
    return not horner(mat.rows, [1, *c], {0: 1}, mat.field.characteristic)


def _chain_dims(op, c, chain=None) -> Optional[list]:
    """dim ker(mat^j) for j = 0, ..., s - p: min(j, s - p) once the
    Jordan chain u, mat u, ..., mat^(s-p-1) u of u = q(mat) e_last,
    cp = lambda^(s-p) q, has length exactly s - p; None when it has not.
    A zero matrix gives [0, s] and the chain e_0, ..., e_(s-1).  The
    chain's vectors are appended to chain when it is a list."""
    cols, mod = op
    s = len(c)
    if not any(cols):
        if chain is not None:
            chain.extend({j: 1} for j in range(s))
        return [0, s]
    p = max((k for k, x in enumerate(c, 1) if x), default=0)
    u = horner(cols, [1, *c[:p]], {s - 1: 1}, mod)
    for _ in range(s - p):
        # a zero link ends the chain short, and every later link is zero
        if not u:
            return None
        if chain is not None:
            chain.append(u)
        u = mat_vec(cols, u, mod)
    if u:
        return None
    return list(range(s - p + 1))


def char_poly(mat: LambdaMatrix) -> CharPoly:
    """Characteristic polynomial, verified before returning: it must
    annihilate the matrix (Cayley-Hamilton)."""
    cp, annihilates, _ = spectrum(mat)
    if not annihilates:
        raise ArithmeticError("characteristic polynomial failed to annihilate")
    return cp


def spectrum(mat: LambdaMatrix) -> tuple[CharPoly, bool, Optional[list]]:
    """(characteristic polynomial, whether it annihilates the matrix,
    kernel_dims or None when the Jordan chain check fails), a failed
    check reported, from the one solve."""
    op = _hessenberg(mat)
    c = _solve(op)
    return CharPoly(mat.field, mat.grading, c), _annihilates(mat, c), _chain_dims(op, c)


def kernel_dims(mat: LambdaMatrix, chain=None) -> list:
    """dim ker(mat^j) for j = 0, 1, ..., k with k the stabilization
    index; the last entry is the dimension of the generalized kernel.
    The solve and its Jordan chain check only: no Cayley-Hamilton pass
    and no CharPoly.  Raises ArithmeticError when the check fails.  The
    Jordan chain at t = 1 is appended to chain when it is a list."""
    op = _hessenberg(mat)
    dims = _chain_dims(op, _solve(op), chain)
    if dims is None:
        raise ArithmeticError("the Jordan chain of eigenvalue zero has the wrong length")
    return dims


def rank(mat: LambdaMatrix) -> int:
    """s - dim ker mat, from kernel_dims."""
    mat._require_complete("rank")
    dims = kernel_dims(mat)
    return mat.size - (dims[1] if len(dims) > 1 else 0)


def stabilization_index(mat: LambdaMatrix) -> int:
    """Least k with ker(mat^k) = ker(mat^(k+1))."""
    return len(kernel_dims(mat)) - 1


def stabilized_kernel(mat: LambdaMatrix) -> list:
    """Basis of the generalized kernel, ker(mat^k) at stabilization: the
    Jordan chain of kernel_dims, or the unit vectors of a zero matrix.
    Each chain vector v of mat(1) is divided by its first nonzero entry
    v_i and lifted to x_j = v_j * t^((j - i)/N), a vector of the
    generalized kernel of mat (D * v up to a unit, see the module
    docstring)."""
    chain, power, field = [], mat.grading.t_power, mat.field
    kernel_dims(mat, chain)
    basis = []
    for v in chain:
        i = min(v)
        lift = (Novikov(field, Fraction(v.get(j, 0)) / v[i], power(j - i)) for j in range(mat.size))
        basis.append(tuple(lift))
    return basis


def jordan_zero_block_sizes(mat: LambdaMatrix) -> list:
    """Sizes of the Jordan blocks of eigenvalue zero, descending.
    kernel_dims is [0, 1, ..., k], one block of size k, or [0, s] for
    the zero matrix, s blocks of size 1."""
    dims = kernel_dims(mat)
    k = len(dims) - 1
    return [k] * (dims[-1] // k) if k else []


def stable_relation(cp: CharPoly) -> tuple[int, tuple]:
    """Split the characteristic polynomial lambda^s + a_1 lambda^(s-1)
    + ... + a_s as lambda^(s-p) * (monic degree-p part with nonzero
    constant term).

    The degree-p factor presents the quotient by the generalized kernel
    of the operator; p = 0 means the operator is nilpotent and the
    quotient is the zero ring.  Returns (p, its coefficients at t = 1
    ascending, length p + 1, monic).
    """
    p = max((k for k, c in enumerate(cp.values, 1) if c), default=0)
    return p, tuple(reversed(cp.values[:p])) + (1,)
