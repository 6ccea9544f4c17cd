"""Independent oracles used to pin expected values in the test suite.

Each oracle recomputes a quantity by a route disjoint from the package
implementation: sympy symbolics, brute-force enumeration over
permutations, dense loops over every entry, or classical closed
forms.  Tests freeze values produced here against the package's own
answers.

The package's Novikov scalars are values without arithmetic.  The
arithmetic of monomials c*t^d that the oracles and the tests run is
owned here, by Scalar: sums at one t-power, negatives and products,
with an int or Fraction read as a constant.  Each oracle lifts the
scalars it takes in into Scalar, and a Scalar equals and hashes as the
Novikov scalar with the same field, coefficient and power, so the
oracles' answers compare directly with the package's.
"""

import math
from fractions import Fraction
from itertools import permutations

import sympy

from shq.linalg import LambdaMatrix
from shq.novikov import QQ, GradingContext, Novikov
from shq.ring import RingElement, RingPresentation


class Scalar(Novikov):
    """A Novikov scalar c*t^d with monomial arithmetic: +, - and * with
    another scalar of its field or with an int or Fraction (a constant),
    on either side, and unary -.  A sum of two nonzero monomials at
    different t-powers is not homogeneous, and a sum or product across
    two fields has no field: both raise ValueError."""

    __slots__ = ()
    # Record reads an empty __slots__ as no fields
    _fields = Novikov._fields

    def __eq__(self, other):
        if isinstance(other, Novikov):
            return self._key(self) == other._key(other)
        return Novikov.__eq__(self, other)

    __hash__ = Novikov.__hash__

    def _coerce(self, other):
        if isinstance(other, Novikov):
            if other.field != self.field:
                raise ValueError("coefficient field mismatch")
            return lift(other)
        if isinstance(other, (int, Fraction)):
            return Scalar(self.field, other, 0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.coeff and other.coeff and self.power != other.power:
            raise ValueError(f"the sum of {self} and {other} is not homogeneous")
        return Scalar(self.field, self.coeff + other.coeff, self.power or other.power)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, -self.coeff, self.power)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + -self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.coeff * other.coeff, self.power + other.power)

    __rmul__ = __mul__


def lift(x) -> Scalar:
    """The Novikov scalar x as a Scalar: x itself when it is one."""
    return x if type(x) is Scalar else Scalar(x.field, x.coeff, x.power)


def lift_rows(rows) -> list:
    """A grid of Novikov scalars as lists of Scalars."""
    return [list(map(lift, row)) for row in rows]


def sympy_tau(n: int) -> list[int]:
    """Coefficients of prod_{A+B=n, A,B>=1} (A*x + B), ascending in x."""
    x = sympy.symbols("x")
    poly = sympy.Integer(1)
    for A in range(1, n):
        poly *= A * x + (n - A)
    poly = sympy.Poly(sympy.expand(poly), x)
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    coeffs += [0] * (n - len(coeffs))
    return coeffs


def permutation_charpoly(entries) -> list:
    """Characteristic polynomial of a matrix of Novikov scalars by
    brute-force Leibniz expansion of det(lambda*I - M).

    Returns coefficients [c_0, ..., c_s] with
    det = sum_k c_k * lambda^(s - k), c_0 = 1.  Exponential in the
    size; keep matrices small.
    """
    entries = lift_rows(entries)
    s = len(entries)
    field = entries[0][0].field
    zero = Scalar.zero(field)
    one = Scalar.one(field)
    # polynomial in lambda with Novikov coefficients: list ascending
    def padd(a, b):
        out = [zero] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] = out[i] + c
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return out

    def pmul(a, b):
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return out

    def sign(perm) -> int:
        seen = [False] * len(perm)
        s = 1
        for i in range(len(perm)):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                s = -s
        return s

    det = [zero]
    for perm in permutations(range(s)):
        term = [one]
        for i in range(s):
            j = perm[i]
            # entry of lambda*I - M
            cell = [zero - entries[i][j]]
            if i == j:
                cell = padd(cell, [zero, one])
            term = pmul(term, cell)
        if sign(perm) < 0:
            term = [zero - c for c in term]
        det = padd(det, term)
    # descending in lambda, normalised to start at c_0
    det = det + [zero] * (s + 1 - len(det))
    out = list(reversed(det[: s + 1]))
    assert out[0] == one
    return out


def dense_product(a, b) -> tuple:
    """Product of two square matrices of Novikov scalars (rows of
    entries) by the triple loop, every zero included."""
    a, b = lift_rows(a), lift_rows(b)
    s = len(a)
    zero = Scalar.zero(a[0][0].field)
    rows = []
    for i in range(s):
        row = []
        for j in range(s):
            acc = zero
            for k in range(s):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def dense_powers(a, k: int) -> list:
    """[a, a^2, ..., a^k] of a square matrix of Novikov scalars by
    dense_product."""
    powers = [a]
    for _ in range(k - 1):
        powers.append(dense_product(powers[-1], a))
    return powers


def dense_apply(a, vec) -> tuple:
    """Matrix times vector by the double loop, every zero included."""
    a, vec = lift_rows(a), list(map(lift, vec))
    zero = Scalar.zero(a[0][0].field)
    out = []
    for row in a:
        acc = zero
        for k in range(len(row)):
            acc = acc + row[k] * vec[k]
        out.append(acc)
    return tuple(out)


def _novikov_dot(xs, ys, zero):
    acc = zero
    for x, y in zip(xs, ys):
        if x and y:
            acc = acc + x * y
    return acc


def novikov_berkowitz(entries) -> tuple:
    """(a_1, ..., a_s) of a matrix of Novikov scalars by the Berkowitz
    recurrence run on the Novikov entries themselves, every scalar
    canonicalised after each operation: the path the graded core
    replaced."""
    entries = lift_rows(entries)
    s = len(entries)
    field = entries[0][0].field
    one, zero = Scalar.one(field), Scalar.zero(field)
    E = entries
    C = [one, -E[0][0]]
    for i in range(1, s):
        col = [one, -E[i][i]]
        vec = [E[k][i] for k in range(i)]
        for step in range(i):
            col.append(-_novikov_dot(E[i], vec, zero))
            if step < i - 1:
                vec = [_novikov_dot(E[p], vec, zero) for p in range(i)]
        C = [_novikov_dot(col[r::-1], C, zero) for r in range(i + 2)]
    return tuple(C[1:])


def novikov_rank(entries) -> int:
    """Rank over the Novikov scalars by dense Gaussian elimination that
    never divides: each row under the pivot row P becomes
    P[c] * row - row[c] * P."""
    rows = lift_rows(entries)
    r = 0
    for c in range(len(rows[0])):
        pr = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        for k in range(r + 1, len(rows)):
            x = rows[k][c]
            if x:
                rows[k] = [p * a - x * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


def unit_inverse(x):
    """1/(c*t^d) = c^-1 * t^-d; zero raises ZeroDivisionError."""
    if not x:
        raise ZeroDivisionError("inverting zero Novikov scalar")
    return Scalar.monomial(x.field, Fraction(1) / x.coeff, -x.power)


def graded_matrix(entries, N: int, unknown=(), weight: int = 1) -> LambdaMatrix:
    """The matrix of weight weight at grading N whose entries are the
    given grid of zeros and monomials c*t^d: its rows at t = 1 hold the
    c, and its entries must give the grid back, so a grid with an entry
    off the grading raises ValueError."""
    rows = [{j: x.coeff for j, x in enumerate(row) if x} for row in entries]
    mat = LambdaMatrix(entries[0][0].field, GradingContext(N), rows, unknown, weight)
    if mat.entries != tuple(map(tuple, entries)):
        raise ValueError(f"the grid does not fit grading N = {N} at weight {weight}")
    return mat


def presentation(generator: str, relation, N: int, unknown_terms=()) -> RingPresentation:
    """The presentation at grading N whose relation is the given tuple of
    zeros and monomials c*t^d, ascending: its values at t = 1 hold the c,
    and its relation must give the tuple back, so a coefficient off the
    grading raises ValueError."""
    values = [x.coeff for x in relation]
    field = relation[-1].field if relation else QQ
    pres = RingPresentation(generator, field, GradingContext(N), values, unknown_terms)
    if pres.relation != tuple(relation):
        raise ValueError(f"relation is not homogeneous at grading N = {N}")
    return pres


def ring_zero(pres):
    """The zero element of pres."""
    return RingElement(pres, (0,) * pres.rank, 0)


def ring_sum(a, b):
    """a + b, two elements of one presentation, by adding their Novikov
    coefficients and reading the sum back, which needs one weight."""
    if a.pres != b.pres:
        raise ValueError("elements live in different presentations")
    return a.pres.reduce([lift(x) + y for x, y in zip(a.coeffs, b.coeffs)])


def rref_kernel(entries) -> list:
    """Kernel basis by reduced row echelon form, one vector per free
    column, each divided by its first nonzero entry.  Every pivot it
    meets is inverted, so it needs pivots that are units c*t^d, as in
    any graded matrix."""
    s = len(entries)
    rows = lift_rows(entries)
    r = 0
    pivots = []
    for c in range(s):
        pr = next((k for k in range(r, s) if rows[k][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = unit_inverse(rows[r][c])
        rows[r] = [x * inv if x else x for x in rows[r]]
        for k in range(s):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [x - f * y if y else x for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == s:
            break
    zero, one = Scalar.zero(entries[0][0].field), Scalar.one(entries[0][0].field)
    basis = []
    for f in range(s):
        if f in pivots:
            continue
        v = [zero] * s
        v[f] = one
        for k, p in enumerate(pivots):
            v[p] = -rows[k][f]
        inv = unit_inverse(next(x for x in v if x))
        basis.append(tuple(x * inv if x else x for x in v))
    return basis


def novikov_power_chain(entries, a) -> tuple:
    """(whether lambda^s + a_1 lambda^(s-1) + ... + a_s annihilates the
    matrix, dim ker(M^j) for j = 0, 1, ... up to stabilization), from
    the powers M, ..., M^s multiplied out over Novikov scalars."""
    entries = lift_rows(entries)
    s = len(entries)
    field = entries[0][0].field
    zero = Scalar.zero(field)
    coeffs = (Scalar.one(field),) + tuple(map(lift, a))
    # each column as its nonzero (row, entry) pairs
    cols = [[(k, row[q]) for k, row in enumerate(entries) if row[q]] for q in range(s)]
    residual = [[coeffs[s] if p == q else zero for q in range(s)] for p in range(s)]
    dims, stable = [0], False
    power = entries
    for j in range(1, s + 1):
        if j > 1:
            power = [
                [sum((row[k] * x for k, x in col if row[k]), zero) for col in cols]
                for row in power
            ]
        c = coeffs[s - j]
        for p, row in enumerate(power):
            for q, x in enumerate(row):
                if c and x:
                    residual[p][q] = residual[p][q] + c * x
        if not stable:
            d = s - novikov_rank(power)
            stable = d in (dims[-1], s)
            if d != dims[-1]:
                dims.append(d)
        if d == s:
            break  # a zero power: every later term vanishes
    return not any(x for row in residual for x in row), dims


def novikov_reduce(relation, raw) -> tuple:
    """A polynomial in the generator (Novikov coefficients ascending, any
    length) modulo the monic relation, by cancelling the top power with
    a multiple of the relation, top down."""
    relation = list(map(lift, relation))
    deg = len(relation) - 1
    zero = Scalar.zero(relation[-1].field)
    coeffs = list(map(lift, raw)) + [zero] * max(deg - len(raw), 0)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        f = coeffs[k]
        if not f:
            continue
        coeffs[k] = zero
        for idx in range(deg):
            coeffs[k - deg + idx] = coeffs[k - deg + idx] - f * relation[idx]
    return tuple(coeffs[:deg])


def novikov_product(relation, a, b) -> tuple:
    """Product of two reduced elements (coefficient tuples) by the
    schoolbook convolution over Novikov scalars, then novikov_reduce."""
    a, b = list(map(lift, a)), list(map(lift, b))
    zero = Scalar.zero(relation[-1].field)
    raw = [zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                raw[i + j] = raw[i + j] + x * y
    return novikov_reduce(relation, raw)


def novikov_multiplication_matrix(pres, x) -> tuple:
    """The entries of multiplication by the element x of pres on the
    basis g^(rank-1), ..., g, 1: column j is the full product
    x * g^(rank-1-j)."""
    r = pres.rank
    zero, one = Scalar.zero(pres.field), Scalar.one(pres.field)
    cols = []
    for j in range(r):
        g_power = novikov_reduce(pres.relation, [zero] * (r - 1 - j) + [one])
        prod = novikov_product(pres.relation, x.coeffs, g_power)
        cols.append([prod[r - 1 - i] for i in range(r)])
    return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))


def novikov_grid_r(m: int, n: int, field) -> tuple:
    """(entries, unknown) of r for O(-n) over P^m outside the refused band,
    written entry by entry as an (m+1) x (m+1) grid of Novikov scalars:
    -n on the superdiagonal, n^2 * tau(a, n) * t at (N + a - 1, a) when
    N = 1 + m - n >= 1, and the d >= 2 positions d*N + a - 1, a with
    a < min(n, m + 1 - d*N) as unknowns unless -n vanishes in the field."""
    s, N = m + 1, 1 + m - n
    zero = Scalar.zero(field)
    grid = [[zero] * s for _ in range(s)]
    for i in range(m):
        grid[i][i + 1] = Scalar.constant(field, -n)
    unknown = set()
    if N >= 1:
        for a, c in enumerate(sympy_tau(n)):
            grid[N + a - 1][a] = Scalar.monomial(field, n * n * c, 1)
        if field.of(-n):
            for d in range(2, m // N + 1):
                unknown.update((d * N + a - 1, a, d) for a in range(min(n, m + 1 - d * N)))
    return tuple(tuple(row) for row in grid), frozenset(unknown)


def novikov_is_nilpotent(pres, x) -> bool:
    """Whether x^rank vanishes, by rank schoolbook products."""
    power = novikov_reduce(pres.relation, [Scalar.one(pres.field)])
    for _ in range(pres.rank):
        power = novikov_product(pres.relation, power, x.coeffs)
    return not any(power)


def closed_form(m: int, n: int, field) -> tuple:
    """(QH relation, SH relation or None for the zero ring) of O(-n) over
    P^m in the hyperplane generator w, coefficients ascending, from the
    closed forms alone, for the pairs with every correction determined.

    Monotone window 2n <= m + 1, with N = 1 + m - n:
    QH = Lambda[w]/(w^(m+1) + n^n t w^n) and SH = Lambda[w]/(w^N + n^n t),
    the coefficient n^n reduced mod 2 over GF(2).  An even twist over
    GF(2) makes it vanish: QH is classical and SH = 0.  So do the
    Calabi-Yau twist n = m + 1 and the large twists n >= 2m + 1.
    """
    zero, one = Scalar.zero(field), Scalar.one(field)
    qh = [zero] * (m + 1) + [one]
    if 2 * n <= m + 1:
        coeff = Scalar.monomial(field, n ** n, 1)
        if coeff:
            N = 1 + m - n
            qh[n] = coeff
            sh = [coeff] + [zero] * (N - 1) + [one]
            return tuple(qh), tuple(sh)
    elif n != m + 1 and n < 2 * m + 1:
        raise ValueError(f"({m}, {n}) has undetermined or undefined corrections")
    return tuple(qh), None


def noether_chi_trivial(k_squared: int, euler: int) -> Fraction:
    """Euler characteristic of the structure sheaf of a surface from
    its canonical self-intersection and topological Euler number."""
    return Fraction(k_squared + euler, 12)


def kunneth_chi(a: int, b: int) -> int:
    """chi of a product of two curve line bundles of degrees a, b >= 0."""
    return (a + 1) * (b + 1)


def sympy_entry(m: int, n: int, a: int, alphas) -> Fraction:
    """Degree-one matrix entry by equivariant fixed-point summation,
    recomputed with sympy Rational arithmetic.

    Marked points move inside the two constraint planes, so the
    deformation products run over the planes' own fixed-point labels:
    i, I in 0..a and j, J in m-(n-a-1)..m.  The fixed-point integral is
    -n times the pair sum, and the entry rescales that by -n again.
    """
    al = [sympy.Rational(x.numerator, x.denominator) for x in alphas]
    total = sympy.Integer(0)
    for i in range(0, a + 1):
        for j in range(m - (n - a - 1), m + 1):
            num = sympy.Integer(1)
            for A in range(1, n):
                num *= A * al[i] + (n - A) * al[j]
            den = sympy.Integer(1)
            for I in range(0, a + 1):
                if I != i:
                    den *= al[i] - al[I]
            for J in range(m - (n - a - 1), m + 1):
                if J != j:
                    den *= al[j] - al[J]
            total += num / den
    total = sympy.Rational(sympy.nsimplify(n * n * total))
    return Fraction(int(total.p), int(total.q))


def pair_sum_entry(m: int, n: int, a: int, alphas) -> Fraction:
    """Degree-one matrix entry as n^2 times the pair sum, one Fraction
    per pair (i, j): the Serre product over the two move products,
    every term rebuilt from the weights."""
    al = list(alphas)
    iset = range(0, a + 1)
    jset = range(m - (n - a - 1), m + 1)
    total = Fraction(0)
    for i in iset:
        for j in jset:
            serre = math.prod(A * al[i] + (n - A) * al[j] for A in range(1, n))
            moves = math.prod(al[i] - al[I] for I in iset if I != i) * math.prod(
                al[j] - al[J] for J in jset if J != j
            )
            total += Fraction(serre, moves)
    return n * n * total


def fixed_graph_terms(m: int, n: int, a: int, alphas) -> dict:
    """Reciprocal Euler class of every fixed broken section, unmerged:
    {(i, j, bubble_over): Fraction} with bubble_over "infinity" or "zero".

    Both graphs through (q_i, q_j) share the Serre weights
    A*a_i + (n-A)*a_j and the moves of the marked points inside their
    planes.  With the bubble over infinity the node smoothing weight is
    a_i - a_j and the line-bundle point weight -n*a_i; over zero they are
    a_j - a_i and -n*a_j.  Their sum is -n times the pair term, so all
    terms add up to the fixed-point integral."""
    al = list(alphas)
    iset = range(0, a + 1)
    jset = range(m - (n - a - 1), m + 1)
    terms = {}
    for i in iset:
        for j in jset:
            serre = math.prod(A * al[i] + (n - A) * al[j] for A in range(1, n))
            moves = math.prod(al[i] - al[I] for I in iset if I != i) * math.prod(
                al[j] - al[J] for J in jset if J != j
            )
            terms[i, j, "infinity"] = Fraction(-n * al[i] * serre, (al[i] - al[j]) * moves)
            terms[i, j, "zero"] = Fraction(-n * al[j] * serre, (al[j] - al[i]) * moves)
    return terms
