"""Exact arithmetic in cyclotomic fields Q(zeta_n), plus exact linear algebra.

A value is a coset representative in Q[x]/(Phi_n(x)): a dense vector of
phi(n) rationals over the power basis 1, zeta, ..., zeta^(phi(n)-1), always
fully reduced mod Phi_n.  This makes equality at a fixed conductor a plain
coefficient comparison.  Mixed-conductor arithmetic coerces both operands to
the lcm conductor; results are never descended to a smaller field (a value
that happens to be rational still reports is_rational() exactly, because the
canonical representative of a rational is the constant vector).

Numeric embedding (zeta_n -> exp(2*pi*i/n)) exists for display and sanity
checks only; nothing downstream branches on floats.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import cache
from math import gcd

from .errors import SingularMatrixError

__all__ = [
    "Rational",
    "Cyclotomic",
    "CycloMatrix",
    "cyclotomic_polynomial",
    "euler_phi",
    "zeta",
    "rational",
    "lcm",
]

# Exact rational scalar used throughout; fractions.Fraction already keeps
# lowest terms and a positive denominator, which is all the contract asks.
Rational = Fraction


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"conductor must be >= 1, got {n}")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coeffs, den monic)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic, length phi(n)+1.

    Computed as (x^n - 1) / prod(Phi_d for proper divisors d of n).  The
    cache is filled recursively; concurrent insertion is idempotent since
    the value for a given n is unique.
    """
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _int_poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    assert len(poly) == euler_phi(n) + 1 and poly[-1] == 1
    return tuple(poly)


@cache
def _monomial_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k is zeta_n^k reduced mod Phi_n (k = 0..n-1, integer vectors)."""
    phi_n = euler_phi(n)
    phi_poly = cyclotomic_polynomial(n)
    rows = []
    cur = [0] * phi_n
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(phi_n):
                cur[i] -= top * phi_poly[i]
    return tuple(rows)


def _reduce_buckets(buckets, n: int) -> tuple[Fraction, ...]:
    """Collapse exponent buckets (length n, exponents already mod n) to the
    canonical phi(n)-vector."""
    phi_n = euler_phi(n)
    table = _monomial_table(n)
    out = [Fraction(buckets[m]) for m in range(phi_n)]
    for k in range(phi_n, n):
        c = buckets[k]
        if c:
            row = table[k]
            for m in range(phi_n):
                if row[m]:
                    out[m] += c * row[m]
    return tuple(out)


class Cyclotomic:
    """An element of Q(zeta_n) in reduced power-basis form."""

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # equality coerces across conductors, so no stable hash

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise ValueError(
                f"need {euler_phi(conductor)} coefficients at conductor "
                f"{conductor}, got {len(coeffs)}"
            )
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q, conductor: int = 1) -> "Cyclotomic":
        coeffs = [Fraction(q)] + [Fraction(0)] * (euler_phi(conductor) - 1)
        return Cyclotomic(conductor, coeffs)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclotomic":
        table = _monomial_table(n)
        return Cyclotomic(n, table[k % n])

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def lift(self, conductor: int) -> "Cyclotomic":
        """Rewrite at a multiple of the current conductor (zeta_m = zeta_n^(n/m))."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError(
                f"cannot lift conductor {self.conductor} to non-multiple {conductor}"
            )
        step = conductor // self.conductor
        buckets = [0] * conductor
        for i, c in enumerate(self.coeffs):
            if c:
                buckets[(i * step) % conductor] += c
        return Cyclotomic(conductor, _reduce_buckets(buckets, conductor))

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        if a.conductor == b.conductor:
            return a, b
        n = lcm(a.conductor, b.conductor)
        return a.lift(n), b.lift(n)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other, self.conductor)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return Cyclotomic(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational() and other.conductor <= self.conductor:
            q = other.coeffs[0]
            return Cyclotomic(self.conductor, [q * c for c in self.coeffs])
        if self.is_rational() and self.conductor <= other.conductor:
            q = self.coeffs[0]
            return Cyclotomic(other.conductor, [q * c for c in other.coeffs])
        a, b = Cyclotomic._common(self, other)
        n = a.conductor
        buckets = [0] * n
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        buckets[(i + j) % n] += x * y
        return Cyclotomic(n, _reduce_buckets(buckets, n))

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse by the extended Euclidean algorithm against
        Phi_n, which is irreducible, so any nonzero value is a unit."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.coeffs[0], self.conductor)
        n = self.conductor
        # r0 = Phi_n, r1 = self; keep u with u*self = r (mod Phi_n).
        r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r1 = list(self.coeffs)
        u0 = [Fraction(0)]
        u1 = [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, r = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, _frac_poly_sub(u0, _frac_poly_mul(q, u1))
        # r1 is the constant gcd; u1*self = r1 (mod Phi_n).
        c = r1[0]
        buckets = [Fraction(0)] * n
        for i, v in enumerate(u1):
            if v:
                buckets[i % n] += v / c
        return Cyclotomic(n, _reduce_buckets(buckets, n))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base, k = self.inv(), -k
        result = Cyclotomic.from_rational(1, base.conductor)
        while k:
            if k & 1:
                result = result * base
            base_sq = base * base if k > 1 else base
            base, k = base_sq, k >> 1
        return result

    # -- field automorphisms ----------------------------------------------

    def galois(self, t: int) -> "Cyclotomic":
        """Apply the automorphism zeta_n -> zeta_n^t, gcd(t, n) = 1."""
        n = self.conductor
        if gcd(t % n, n) != 1:
            raise ValueError(f"exponent {t} is not invertible mod {n}")
        buckets = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                buckets[(i * t) % n] += c
        return Cyclotomic(n, _reduce_buckets(buckets, n))

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta_n -> zeta_n^(-1)."""
        return self.galois(self.conductor - 1)

    # -- numeric embedding (display / sanity only) -------------------------

    def embed(self) -> complex:
        n = self.conductor
        return sum(
            float(c) * cmath.exp(2j * cmath.pi * k / n)
            for k, c in enumerate(self.coeffs)
            if c
        ) or complex(0)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        n = self.conductor
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            power = f"ζ{n}" if k == 1 else f"ζ{n}^{k}"
            if c == 1:
                term = power
            elif c == -1:
                term = f"-{power}"
            else:
                term = f"{c}*{power}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def approx_str(self, digits: int = 6) -> str:
        z = self.embed()
        re = f"{0.0 if abs(z.real) < 1e-12 else z.real:.{digits}g}"
        if abs(z.imag) < 1e-12:
            return re
        sign = "+" if z.imag >= 0 else "-"
        return f"{re}{sign}{abs(z.imag):.{digits}g}i"


def zeta(n: int, k: int = 1) -> Cyclotomic:
    return Cyclotomic.root_of_unity(n, k)


def rational(q, conductor: int = 1) -> Cyclotomic:
    return Cyclotomic.from_rational(q, conductor)


# -- dense Fraction polynomial helpers (ascending coefficients) ------------


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] / lead
        q[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    rem = num[:dd]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem if rem else [Fraction(0)]


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


class CycloMatrix:
    """Immutable matrix over a cyclotomic field, all entries at one conductor."""

    __slots__ = ("nrows", "ncols", "rows", "conductor")
    __hash__ = None

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        n = 1
        for r in rows:
            for v in r:
                if not isinstance(v, Cyclotomic):
                    raise TypeError("matrix entries must be Cyclotomic")
                n = lcm(n, v.conductor)
        rows = tuple(tuple(v.lift(n) for v in r) for r in rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "conductor", n)

    def __setattr__(self, name, value):
        raise AttributeError("CycloMatrix is immutable")

    @staticmethod
    def identity(k: int, conductor: int = 1) -> "CycloMatrix":
        one = Cyclotomic.from_rational(1, conductor)
        zero = Cyclotomic.from_rational(0, conductor)
        return CycloMatrix(
            [[one if i == j else zero for j in range(k)] for i in range(k)]
        )

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.nrows)
            for j in range(self.ncols)
        )

    def __matmul__(self, other: "CycloMatrix") -> "CycloMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return CycloMatrix(
            [
                [
                    sum(
                        (self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)),
                        Cyclotomic.from_rational(0),
                    )
                    for j in range(other.ncols)
                ]
                for i in range(self.nrows)
            ]
        )

    def transpose(self) -> "CycloMatrix":
        return CycloMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def scale(self, c) -> "CycloMatrix":
        if not isinstance(c, Cyclotomic):
            c = Cyclotomic.from_rational(c)
        return CycloMatrix([[c * v for v in row] for row in self.rows])

    def inverse(self) -> "CycloMatrix":
        """Exact Gauss-Jordan; pivot is the first nonzero entry in the column
        (no magnitude heuristics needed over an exact field).  Raises
        SingularMatrixError carrying the rank of the matrix."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        k = self.nrows
        zero = Cyclotomic.from_rational(0, self.conductor)
        one = Cyclotomic.from_rational(1, self.conductor)
        work = [
            list(self.rows[i]) + [one if i == j else zero for j in range(k)]
            for i in range(k)
        ]
        for col in range(k):
            pivot_row = None
            for r in range(col, k):
                if not work[r][col].is_zero():
                    pivot_row = r
                    break
            if pivot_row is None:
                raise SingularMatrixError(rank=self._echelon_rank(work, col, col))
            work[col], work[pivot_row] = work[pivot_row], work[col]
            pinv = work[col][col].inv()
            work[col] = [v * pinv for v in work[col]]
            for r in range(k):
                if r != col and not work[r][col].is_zero():
                    factor = work[r][col]
                    work[r] = [
                        a - factor * b for a, b in zip(work[r], work[col])
                    ]
        return CycloMatrix([row[k:] for row in work])

    def _echelon_rank(self, work, row: int, col: int) -> int:
        """Finish forward elimination over the remaining columns to report the
        true rank once inversion has already failed."""
        k = self.nrows
        rank = row
        for c in range(col + 1, k):
            pivot_row = None
            for r in range(rank, k):
                if not work[r][c].is_zero():
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            pinv = work[rank][c].inv()
            work[rank] = [v * pinv for v in work[rank]]
            for r in range(rank + 1, k):
                if not work[r][c].is_zero():
                    factor = work[r][c]
                    work[r] = [
                        a - factor * b for a, b in zip(work[r], work[rank])
                    ]
            rank += 1
        return rank

    def __repr__(self):
        return f"CycloMatrix({self.nrows}x{self.ncols}, conductor {self.conductor})"
