"""Exact polynomial arithmetic over arbitrary-precision integers and rationals.

This module is the arithmetic layer for the whole package: dense univariate
polynomials over Q, bivariate coefficient grids over Z (evaluation and text
only), the falling-factorial basis, and exact linear algebra (a
fraction-free Bareiss solver, integer determinants, Newton interpolation,
and integer characteristic polynomials by Hessenberg reduction modulo
primes).  No floating point appears anywhere: a float handed to a
polynomial, to its arithmetic, to an evaluation or to the linear algebra
raises TypeError.

Conventions:

* Every exact value this module returns is in normal form: a plain int,
  or a Fraction only when its denominator exceeds 1.  The graph
  polynomials are integral, so their arithmetic runs on ints end to end.
  Fraction(n) and n compare and hash equal, so the normal form changes
  no comparison, key or printed text.
* UniPoly stores normal-form coefficients in ascending degree order with
  no trailing zero; the zero polynomial stores nothing and reports degree
  MINUS_INFINITY rather than -1.
* BiPoly stores a rectangular integer grid indexed by (degree in X,
  degree in Y) with trailing all-zero rows and columns removed.

Text formats, shared bit-exactly with the CLI:

* univariate: ascending coefficients separated by single spaces, each a
  bare integer or "num/den", e.g. "2 0 -4 0 1" is X^4 - 4X^2 + 2;
* bivariate: grid rows of fixed X-degree separated by ";", each row the
  integer Y-coefficients of that X-power, e.g. "0 1;1 0;1 0" is
  X^2 + X + Y.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction

from .errors import InputError

MINUS_INFINITY = float("-inf")

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")


def _exact(c):
    """c in normal form: an int, or a Fraction with denominator above 1.

    Raises TypeError on a float, whose binary expansion is no exact value.
    """
    if isinstance(c, float):
        raise TypeError(f"float {c!r} in exact arithmetic")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _integer(c) -> int:
    """c as an int; raises unless it is an integer in exact form."""
    c = _exact(c)
    if type(c) is not int:
        raise ValueError(f"non-integer coefficient {c}")
    return c


def parse_rational(text: str) -> Fraction:
    """Parse a bare integer or num/den with positive denominator."""
    if not _RATIONAL_RE.match(text):
        raise InputError(f"bad rational {text!r}: expected 'num' or 'num/den'")
    return Fraction(text)


class UniPoly:
    """Dense univariate polynomial over Q, immutable.

    Coefficients are ascending and in normal form: each is an int, or a
    Fraction whose denominator exceeds 1.  Construction normalizes them and
    strips trailing zeros, so equal polynomials compare and hash equal; a
    float coefficient raises TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[int | Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> UniPoly:
        return cls()

    @classmethod
    def one(cls) -> UniPoly:
        return cls((1,))

    @classmethod
    def x(cls) -> UniPoly:
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c=1) -> UniPoly:
        if k < 0:
            raise InputError("monomial degree must be nonnegative")
        return cls((0,) * k + (c,))

    # -- structure -----------------------------------------------------

    @property
    def degree(self):
        """Degree, or MINUS_INFINITY for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int | Fraction:
        """The X^k coefficient in normal form; 0 beyond the degree."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def leading_coefficient(self) -> int | Fraction:
        """The highest nonzero coefficient in normal form."""
        if not self.coeffs:
            raise InputError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def integer_coefficients(self) -> list[int]:
        """Coefficients as ints; raises if any denominator exceeds 1."""
        for c in self.coeffs:
            if type(c) is not int:
                raise ValueError(f"non-integer coefficient {c}")
        return list(self.coeffs)

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, float):
            raise TypeError(f"float {other!r} in exact arithmetic")
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def evaluate(self, x) -> int | Fraction:
        """Exact value at x by Horner's rule, in normal form.

        x is an int or a Fraction; a float raises TypeError.
        """
        if type(x) is not int:
            x = _exact(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc if type(acc) is int else _exact(acc)

    def substitute(self, q: UniPoly) -> UniPoly:
        """Composition self(q), by Horner in the polynomial ring."""
        acc = UniPoly()
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    # -- text and display ------------------------------------------------

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        return " ".join(str(c) for c in self.coeffs)

    @classmethod
    def parse(cls, text: str) -> UniPoly:
        stripped = text.strip()
        if not stripped:
            raise InputError("empty polynomial text")
        return cls(tuple(parse_rational(tok) for tok in stripped.split(" ")))

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __repr__(self):
        return f"UniPoly({self.text()!r})"


class BiPoly:
    """Bivariate polynomial over Z, a rectangular (X-degree, Y-degree) grid.

    Built from a grid, it is only evaluated, printed, parsed and compared.
    """

    __slots__ = ("grid",)

    def __init__(self, grid=()):
        rows = [[c if type(c) is int else _integer(c) for c in row]
                for row in grid]
        width = max((len(r) for r in rows), default=0)
        for r in rows:
            r.extend([0] * (width - len(r)))
        # trim trailing all-zero columns, then rows
        while width and all(r[width - 1] == 0 for r in rows):
            width -= 1
        rows = [r[:width] for r in rows]
        while rows and not any(rows[-1]):
            rows.pop()
        self.grid: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in rows)

    def evaluate(self, x, y) -> int | Fraction:
        """Exact value at (x, y), in normal form; a float raises TypeError."""
        x, y = _exact(x), _exact(y)
        acc = 0
        for row in reversed(self.grid):
            racc = 0
            for c in reversed(row):
                racc = racc * y + c
            acc = acc * x + racc
        return acc if type(acc) is int else _exact(acc)

    def text(self) -> str:
        if not self.grid:
            return "0"
        return ";".join(" ".join(str(c) for c in row) for row in self.grid)

    @classmethod
    def parse(cls, text: str) -> BiPoly:
        stripped = text.strip()
        if not stripped:
            raise InputError("empty polynomial text")
        rows = []
        for chunk in stripped.split(";"):
            toks = chunk.strip().split(" ")
            row = []
            for tok in toks:
                if not _INTEGER_RE.match(tok):
                    raise InputError(f"bad integer {tok!r} in bivariate text")
                row.append(int(tok))
            rows.append(row)
        return cls(rows)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.grid == other.grid

    def __hash__(self):
        return hash(("BiPoly", self.grid))

    def __repr__(self):
        return f"BiPoly({self.text()!r})"


def falling_to_monomial(coeffs) -> UniPoly:
    """Expand sum_j c_j X_(j) into the monomial basis, exactly."""
    result = []
    basis = [1]                    # X_(j), ascending; X_(0) = 1
    for j, c in enumerate(coeffs):
        if j:
            # X_(j) = X_(j-1) (X - (j - 1))
            basis = [a - (j - 1) * b
                     for a, b in zip([0] + basis, basis + [0])]
        if c:
            result.extend([0] * (len(basis) - len(result)))
            for k, b in enumerate(basis):
                result[k] += c * b
    return UniPoly(result)


# ---------------------------------------------------------------- linear algebra


def _scaled_integer_rows(rows, rhs):
    """Augmented rows scaled to integers, one lcm per row; a row of ints
    passes through as it is."""
    aug = []
    for row, b in zip(rows, rhs):
        r = [c if type(c) is int else _exact(c) for c in (*row, b)]
        scale = math.lcm(*(c.denominator for c in r))
        if scale != 1:
            r = [c.numerator * (scale // c.denominator) for c in r]
        aug.append(r)
    return aug


def solve_linear_exact(rows, rhs):
    """Solve A x = b exactly; one solution or None.

    Fraction-free (Bareiss) forward elimination over integer-scaled rows,
    then rational back substitution.  Pivots are chosen left to right by
    first nonzero column; free variables are set to 0, so the result is
    deterministic.  Returns a list of normal-form values (ints, and
    Fractions with denominator above 1), or None when inconsistent.
    """
    m = len(rows)
    if len(rhs) != m:
        raise InputError("matrix and right-hand side sizes differ")
    n = len(rows[0]) if m else 0
    for r in rows:
        if len(r) != n:
            raise InputError("ragged matrix")
    if m == 0:
        return []

    aug = _scaled_integer_rows(rows, rhs)
    pivots: list[tuple[int, int]] = []   # (row, column)
    prev = 1
    r = 0
    for col in range(n):
        p = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if p is None:
            continue
        if p != r:
            aug[r], aug[p] = aug[p], aug[r]
        piv = aug[r][col]
        for i in range(r + 1, m):
            ai = aug[i]
            ar = aug[r]
            f = ai[col]
            for j in range(col, n + 1):
                ai[j] = (piv * ai[j] - f * ar[j]) // prev
        prev = piv
        pivots.append((r, col))
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if aug[i][n] != 0:
            return None

    x = [0] * n
    for ri, ci in reversed(pivots):
        row = aug[ri]
        acc = row[n]
        for j in range(ci + 1, n):
            if row[j]:
                acc -= row[j] * x[j]
        x[ci] = _exact(Fraction(acc, row[ci]))
    return x


def int_determinant(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [[c if type(c) is int else _integer(c) for c in row] for row in rows]
    for row in a:
        if len(row) != n:
            raise InputError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for c in range(n - 1):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        piv = a[c][c]
        for i in range(c + 1, n):
            ai = a[i]
            ac = a[c]
            f = ai[c]
            for j in range(c + 1, n):
                ai[j] = (piv * ai[j] - f * ac[j]) // prev
            ai[c] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


# Miller-Rabin to the first twelve prime bases is exact below
# 318665857834031151167461 (3.2e23), the least strong pseudoprime to all
# of them; the moduli lie below 2^61
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.2e23."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _modulus(i: int) -> int:
    """The i-th largest prime below 2^61 (i = 0 gives 2^61 - 1), found on
    first use."""
    c = _modulus(i - 1) - 2 if i else (1 << 61) - 1
    while not _is_prime(c):
        c -= 2
    return c


def _char_poly_mod(rows, p: int) -> list[int]:
    """Ascending coefficients of det(X I - A) mod p, p prime.

    A is reduced to upper Hessenberg form H by similarity transforms, and
    the characteristic polynomials of the leading blocks of H follow from
    one recurrence (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9); O(n^3) operations mod p.
    """
    n = len(rows)
    h = [[c % p for c in row] for row in rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(h[m][m - 1], -1, p)
        top = h[m][m - 1:]
        us = [h[i][m - 1] * inv % p for i in range(m + 1, n)]
        # rows i > m lose u_i times row m, then column m gains u_i times
        # column i: the similarity by the same elimination matrix
        for i, u in enumerate(us, m + 1):
            if u:
                hi = h[i]
                hi[m - 1:] = [(a - u * b) % p for a, b in zip(hi[m - 1:], top)]
        for row in h:
            row[m] = (row[m] + sum(map(operator.mul, us, row[m + 1:]))) % p
    # polys[k] = det(X I - H[:k, :k]); row k contributes its diagonal and,
    # through the subdiagonal products t, the entries above it in column k
    polys = [[1]]
    for k in range(n):
        d = h[k][k]
        new = [a - d * b for a, b in zip([0] + polys[k], polys[k] + [0])]
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            c = h[i][k] * t % p
            new[:i + 1] = [a - c * b for a, b in zip(new, polys[i])]
        polys.append([c % p for c in new])
    return polys[n]


def int_char_poly(rows) -> list[int]:
    """Ascending integer coefficients of det(X I - A) for a square integer A.

    With R the largest absolute row sum every eigenvalue has modulus at
    most R, so every coefficient is at most (1 + R)^n in absolute value.
    The residues modulo the primes below 2^61 are combined by the Chinese
    remainder theorem until their product exceeds twice that bound, and
    the symmetric lift then recovers the coefficients exactly.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise InputError("characteristic polynomial needs a square matrix")
    r = max((sum(abs(c) for c in row) for row in rows), default=0)
    bound = 2 * (1 + r) ** n
    coeffs = [0] * (n + 1)
    modulus = 1
    i = 0
    while modulus <= bound:
        p = _modulus(i)
        i += 1
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((x - c) * inv % p)
                  for c, x in zip(coeffs, _char_poly_mod(rows, p))]
        modulus *= p
    half = modulus // 2
    return [c - modulus if c > half else c for c in coeffs]


def interpolate(xs, ys) -> UniPoly:
    """Unique polynomial of degree < len(xs) through the given points.

    Newton's divided differences with exact rationals; the nodes must be
    pairwise distinct.
    """
    pts = [Fraction(_exact(x)) for x in xs]
    vals = [Fraction(_exact(y)) for y in ys]
    if len(pts) != len(vals):
        raise InputError("interpolation needs as many values as nodes")
    if len(set(pts)) != len(pts):
        raise InputError("interpolation nodes must be distinct")
    k = len(pts)
    if k == 0:
        return UniPoly()
    table = list(vals)
    # table[i] becomes the divided difference f[x_0..x_i]
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (pts[i] - pts[i - level])
    result = UniPoly()
    newton = UniPoly.one()
    for i in range(k):
        if table[i]:
            result = result + newton * table[i]
        if i + 1 < k:
            newton = newton * UniPoly((-pts[i], 1))
    return result
