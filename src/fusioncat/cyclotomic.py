"""Exact arithmetic in cyclotomic fields Q(zeta_n), plus exact linear algebra.

A value is a coset representative in Q[x]/(Phi_n(x)) over the power basis
1, zeta, ..., zeta^(phi(n)-1), always fully reduced mod Phi_n, stored as a
tuple of phi(n) integer numerators `nums` over one positive denominator
`den`.  The form is canonical: gcd(den, *nums) == 1, so zero is stored with
den == 1, and equality at a fixed conductor is a plain (nums, den)
comparison.  Every operation works on the integers and builds its result
through the trusted constructor `_make`, which restores the canonical form;
the public constructor accepts any rationals and is meant for boundaries.
Mixed-conductor arithmetic aligns both operands at the lcm conductor
through `_family`, as the row routines below do, and no operation descends
its result to a smaller field (a value that happens to be rational still
reports is_rational() exactly, because the canonical representative of a
rational is the constant vector).  Descent is explicit: CycloMatrix.descended
rewrites a matrix at the least conductor m that holds its entries
(least_field) when phi(m) < phi(n), so that everything computed from it runs
there, and `shown` lifts a value back for display.

Products and sums of products go through one packed kernel (Kronecker
substitution).  A numerator vector (c_0, ..., c_{phi-1}) at conductor n is
packed as the integer sum c_i 2^(b i), its polynomial at x = 2^b, with
signed slots of b = 8w bits.  Integer products and sums of packed values are
the packed products and sums of the polynomials, so a sum of T terms (one of
integer multiplicity t counts |t| times), each a product of f vectors, is one
big-int multiply-add per term, and its f(phi-1)+1 slots are unpacked, reduced
mod Phi_n and built by `_make` once.  Slot bound: the exponents of f-1
factors fix the first, so a coefficient of a product of f vectors is at most
max|x_1| prod_(m>1) |x_m|_1 in size, |x|_1 the sum of the sizes of the
numerators, and every unreduced slot has |c| <= B = T max|x_1| prod_(m>1)
|x_m|_1 <= T phi^(f-1) prod_m max|x_m|.  `_width` takes b >= bitlen(B) + 1,
so |c| < 2^(b-1): adding 2^(b-1) to every slot keeps each in [0, 2^b), no
carry crosses a slot, and each slot reads back exactly.

A flat numerator vector holds several values at one conductor n over one
denominator, phi(n) numerators per coordinate; `pointwise_nums`,
`matmul_nums` and `triple_sums` (the Verlinde sum's) are the kernel on that
layout.  The last two scan their operands once for the width and pack
each once (`_packed`, `_matmul`); at phi(n) = 1 (n = 1 or 2) columns are
packed together, one int per coordinate, so a row costs one multiply-add
per coordinate.  A Cyclotomic is stored in it with one coordinate, a
`_Vector` (the class algebra's two carriers subclass it) with several, and
the entries of a CycloMatrix, row-major, as one _Vector; `_Flat`, the
common base, holds the sum, equality and rational scaling.  `_family` puts
vectors or values at one conductor over one denominator as flat rows, one
per vector, and the row routines `_sums`, `_mul`, `_permuted`, `_stacked`,
`_unstacked`, `_transposed` and `_products` (one matmul_nums, also behind
CycloMatrix.@) build every other flat row; CycloMatrix.inverse eliminates
on whole rows.  Other modules slice rows by phi(n) where they build or read
one: `_law_witness`, `verlinde_fusion`, `s_asymmetry` and `s_square` in
category.py, `_basis`, `cf_mul`, `_first_pair` and `_codim_characters` in
charalg.py, `_invariants` in lattice.py and the transform route in
centralizer.py.

Numeric embedding (zeta_n -> exp(2*pi*i/n)) exists for display and sanity
checks only; nothing downstream branches on floats.
"""

from __future__ import annotations

import sys
from functools import cache, cached_property, partialmethod
from itertools import takewhile
from math import cos, gcd, lcm, pi, prod, sin
from operator import mul
from struct import Struct

from .errors import SchemaError, SingularMatrixError

__all__ = [
    "Cyclotomic",
    "CycloMatrix",
    "cyclotomic_polynomial",
    "euler_phi",
    "zeta",
    "rational",
    "lift_nums",
    "least_field",
    "shown",
    "pointwise_nums",
    "matmul_nums",
    "triple_sums",
]


@cache
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
def _monomial_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k is zeta_n^k reduced mod Phi_n (k = 0..n-1), as its nonzero
    (position, integer coefficient) pairs."""
    phi_n = euler_phi(n)
    phi_poly = cyclotomic_polynomial(n)
    rows = []
    cur = [0] * phi_n
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple((m, c) for m, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(phi_n):
                cur[i] -= top * phi_poly[i]
    return tuple(rows)


def _reduce_buckets(buckets: list[int], n: int) -> list[int]:
    """Collapse integer exponent buckets (at least phi(n) of them; zeta_n^k =
    zeta_n^(k mod n)) to the canonical phi(n)-vector of numerators."""
    phi_n = euler_phi(n)
    table = _monomial_table(n)
    out = buckets[:phi_n]
    for k in range(phi_n, len(buckets)):
        c = buckets[k]
        if c:
            for m, r in table[k % n]:
                out[m] += c * r
    return out


def _width(terms: int, top: int, *sizes: int) -> int:
    """Slot width w in bytes for a sum of `terms` products of a vector with
    numerators at most `top` in size and vectors with |x_m|_1 <= sizes[m]:
    8w >= bitlen(B) + 1 for the bound B of the module docstring, rounded up
    to 1, 2, 4 or 8 below 8 bytes for `struct.unpack`."""
    w = (terms * top * prod(sizes)).bit_length() // 8 + 1
    return w if w > 8 else 1 << (w - 1).bit_length()


def _pack(nums, w: int) -> int:
    """The polynomial of `nums` evaluated at x = 2^(8w): signed w-byte slots."""
    v = 0
    for c in reversed(nums):
        v = (v << 8 * w) + c
    return v


_INT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


@cache
def _slot_reader(w: int, slots: int):
    """(2^(8w-1) in each of `slots` w-byte slots, their mask, a struct's
    unpack or None), built once per (w, slots)."""
    code = _INT_CODES.get(w)
    off = int.from_bytes((bytes(w - 1) + b"\x80") * slots, "little")
    return off, (1 << 8 * w * slots) - 1, code and Struct(f"<{slots}{code}").unpack


def _unpack(v: int, w: int, slots: int, n: int = 0) -> list[int]:
    """The first `slots` signed w-byte slots of the packed polynomial v, mod
    Phi_n if n is given: adding 2^(8w-1) to each makes it nonnegative, with no
    borrow from above, and xor with it leaves the slot in two's complement."""
    off, mask, read = _slot_reader(w, slots)
    raw = (((v + off) ^ off) & mask).to_bytes(w * slots, "little")
    coeffs = list(read(raw)) if read else [
        int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, len(raw), w)]
    return _reduce_buckets(coeffs, n) if n else coeffs


def _mul_nums(n: int, xs, ys) -> list[int]:
    """Numerators of the product of two numerator vectors at conductor n:
    one packed product, unpacked and reduced once."""
    w = _width(1, max(map(abs, xs)), sum(map(abs, ys)))
    return _unpack(_pack(xs, w) * _pack(ys, w), w, 2 * len(xs) - 1, n)


def _permute_nums(n: int, nums, t: int) -> list[int]:
    """Numerators of sum c_i zeta_n^(i*t), for coefficients c_i of `nums`."""
    buckets = [0] * n
    for i, c in enumerate(nums):
        if c:
            buckets[(i * t) % n] += c
    return _reduce_buckets(buckets, n)


def _chunks(nums, phi: int) -> list:
    """A flat numerator vector cut into its coordinates, phi numerators each."""
    return [nums[k:k + phi] for k in range(0, len(nums), phi)]


def lift_nums(nums, m: int, n: int):
    """Flat numerators at conductor m (phi(m) per coordinate), rewritten at
    n, a multiple of m, coordinate by coordinate as Cyclotomic.lift does."""
    if m == n:
        return nums
    return [c for x in _chunks(nums, euler_phi(m)) for c in _permute_nums(n, x, n // m)]


def _descend_nums(n: int, p: int, nums):
    """Numerators at m = n/p of the value with numerators nums at n, or None
    when the value is not in Q(zeta_m).  If p divides m, Phi_n(x) =
    Phi_m(x^p), so Q(zeta_m) holds exactly the values on every p-th power.
    Else zeta_n = zeta_m^u zeta_p^v for u p + v m = 1 writes the value as
    sum_r A_r zeta_p^r, r < p, with each A_r in Q(zeta_m); over Q(zeta_m)
    the zeta_p^r, r < p - 1, are a basis and all p powers sum to 0, so the
    value is A_0 - A_(p-1), and lies in Q(zeta_m) iff A_r = A_(p-1) for
    0 < r < p - 1."""
    m = n // p
    if m % p == 0:
        return None if any(nums[i] for i in range(len(nums)) if i % p) else list(nums[::p])
    u = pow(p, -1, m)
    v = (1 - u * p) // m
    parts = [[0] * m for _ in range(p)]
    for i, c in enumerate(nums):
        parts[v * i % p][u * i % m] += c
    first, *rest, last = (_reduce_buckets(b, m) for b in parts)
    if any(a != last for a in rest):
        return None
    return [a - b for a, b in zip(first, last)]


def least_field(values, n: int):
    """(m, nums): the least m dividing n such that every value (each at a
    conductor dividing n; a vector's coordinates count as values) lies in
    Q(zeta_m), and the numerators of each value at m.  Q(zeta_a) and
    Q(zeta_b) meet in Q(zeta_gcd(a, b)), so the least such field exists,
    and dividing n by one prime at a time while every value stays inside
    reaches it."""
    nums = [x for v in values for x in _chunks(lift_nums(v.nums, v.conductor, n), euler_phi(n))]
    m = n
    for p in (d for d in _divisors(n)[1:] if euler_phi(d) == d - 1):
        while m % p == 0:
            down = list(takewhile(lambda x: x is not None, (_descend_nums(m, p, x) for x in nums)))
            if len(down) < len(nums):
                break
            m, nums = m // p, down
    return m, nums


def pointwise_nums(n: int, xs, ys) -> list[int]:
    """Flat numerators of the coordinatewise product of two flat numerator
    vectors at conductor n: plain int products when phi(n) = 1, else per
    coordinate a scaling when one factor is rational, as in
    Cyclotomic.__mul__, or one _mul_nums."""
    phi = euler_phi(n)
    if phi == 1:
        return list(map(mul, xs, ys))
    out = []
    for x, y in zip(_chunks(xs, phi), _chunks(ys, phi)):
        if any(x[1:]) and any(y[1:]):
            out += _mul_nums(n, x, y)
        else:
            p, v = (x[0], y) if not any(x[1:]) else (y[0], x)
            out += [p * c for c in v]
    return out


def _top(vectors, phi: int = 1) -> int:
    """The largest |numerator| of the flat vectors, or |x|_1 of a coordinate x with phi."""
    if phi == 1:
        return max((max(max(v), -min(v)) for v in vectors if v), default=0)
    return max((sum(map(abs, v[k:k + phi])) for v in vectors for k in range(0, len(v), phi)),
               default=0)


def _packed(n: int, vectors, w: int, columns: bool = False) -> list:
    """Flat vectors packed once for _matmul, each coordinate at x = 2^(8w); at
    phi(n) = 1 a row is its own packing, and columns go in the packed-columns
    form: one int per coordinate k, with coordinate k of column c in slot c."""
    phi = euler_phi(n)
    if phi > 1:
        return [[_pack(x, w) for x in _chunks(v, phi)] for v in vectors]
    return [_pack(c, w) for c in zip(*vectors)] if columns else vectors


def _matmul(n: int, rows, cols, w: int, count: int) -> list[list[int]]:
    """Flat rows of the dot products of packed rows with the first `count`
    packed columns (_packed at width w): a multiply-add per row and
    coordinate at phi(n) = 1, else per entry and coordinate, each entry
    unpacked and reduced once."""
    phi = euler_phi(n)
    if phi == 1:
        return [_unpack(sum(map(mul, x, cols)), w, count) for x in rows]
    return [[c for y in cols[:count] for c in _unpack(sum(map(mul, x, y)), w, 2 * phi - 1, n)]
            for x in rows]


def matmul_nums(n: int, rows, cols) -> list[list[int]]:
    """Flat numerator rows of the dot products sum_k x_k y_k of every flat
    row x with every flat column y, all at conductor n: the numerators are
    scanned once for the width, and each operand is packed once."""
    phi = euler_phi(n)
    w = _width(len(rows[0]) // phi, _top(rows), phi * _top(cols))
    return _matmul(n, _packed(n, rows, w), _packed(n, cols, w, True), w, len(cols))


def triple_sums(n: int, rows, weights):
    """For each j, the flat rows i >= j of the sums sum_r x_ir x_jr x_kr w_r
    over k <= j, for flat rows x and flat weights w at conductor n: the rows
    against the first j + 1 weighted columns (x_kr w_r)_r, formed as one
    pointwise product, with x_j multiplied into the side with fewer vectors
    (at phi(n) = 1 into the rows, their own packing).  Per j only that
    product is packed; the other side once, and again if wider slots come."""
    phi, rank = euler_phi(n), len(rows)
    columns = _chunks(pointwise_nums(n, [c for x in rows for c in x], weights * rank), rank * phi)
    tops, sizes = [_top([x]) for x in rows], [_top([y], phi) for y in columns]
    w, packed_as = 1, None
    for j in range(rank):
        by_rows = phi == 1 or rank - j <= j + 1  # false, then true from the middle on
        if by_rows:
            product = [pointwise_nums(n, x, rows[j]) for x in rows[j:]]
            w = max(w, _width(rank, _top(product), max(sizes[:j + 1])))
        else:
            product = [pointwise_nums(n, rows[j], y) for y in columns[:j + 1]]
            w = max(w, _width(rank, max(tops[j:]), _top(product, phi)))
        if packed_as != (by_rows, w):
            fixed = _packed(n, columns, w, True) if by_rows else _packed(n, rows, w)
            packed_as = by_rows, w
        yield (_matmul(n, _packed(n, product, w), fixed, w, j + 1) if by_rows
               else _matmul(n, fixed[j:], _packed(n, product, w, True), w, j + 1))


def _fraction():
    """The Fraction class, imported only once a Fraction is handed in or asked for."""
    from fractions import Fraction
    return Fraction


class _Frozen:
    """Read-only record.  Its fields are its __slots__ in order, less a
    "__dict__" slot, which only holds cached properties; the field tuple is
    read once per class, and no code is generated.  The one constructor takes
    the fields by position or by name, an optional one from the class's
    _defaults.  A bad call raises TypeError, a write or a del AttributeError.
    The repr names every field."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields += tuple(f for f in cls.__dict__.get("__slots__", ()) if f != "__dict__")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bound(args, kwargs)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    @classmethod
    def _bound(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value for the call cls(*args, **kwargs), in order."""
        fields, given = cls._fields, dict(zip(cls._fields, args))
        wrong = [f for f in kwargs if f not in fields or f in given]
        given = {**cls._defaults, **given, **kwargs}
        missing = [f for f in fields if f not in given]
        if len(args) > len(fields) or wrong or missing:
            raise TypeError(f"{cls.__name__}() takes the fields {fields}: {len(args)} given by "
                            f"position, {wrong} unknown or repeated, {missing} missing")
        return [given[f] for f in fields]

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class _Flat(_Frozen):
    """Flat storage of a value or a vector of values at one conductor n:
    phi(n) integer numerators per coordinate in the tuple `nums`, over one
    positive denominator `den`, with gcd(den, *nums) == 1.  Built by `_make`
    only; a subclass's public constructor is its __new__."""

    __slots__ = ("conductor", "nums", "den")
    __init__ = object.__init__  # built in __new__, not by _Frozen's constructor

    def _plus(self, other, sign=1):
        """self + sign * other, of self's class, at the lcm conductor."""
        n, den, (x, y) = _family((self, other))
        return _make(n, [a + sign * b for a, b in zip(x, y)], den, type(self))

    def _same(self, other) -> bool:
        """Equality of the values.  Lifting keeps a canonical denominator,
        as Z[zeta_n] meets Q(zeta_m) in Z[zeta_m] for m dividing n."""
        if self.conductor == other.conductor:  # both canonical
            return self.den == other.den and self.nums == other.nums
        x, y = _family((self, other))[2]
        return self.den == other.den and x == y

    def _scaled_by(self, q):
        """self times the rational value q, of self's class, at self's conductor."""
        return _make(self.conductor, [q.nums[0] * c for c in self.nums], self.den * q.den,
                     type(self))


class Cyclotomic(_Flat):
    """An element of Q(zeta_n) in reduced power-basis form: integer
    numerators `nums` over the positive denominator `den`."""

    __slots__ = ()
    __hash__ = None  # equality coerces across conductors, so no stable hash

    def __new__(cls, conductor: int, coeffs):
        coeffs = [c if isinstance(c, int) else _fraction()(c) for c in coeffs]
        if len(coeffs) != euler_phi(conductor):
            raise ValueError(
                f"need {euler_phi(conductor)} coefficients at conductor "
                f"{conductor}, got {len(coeffs)}"
            )
        den = lcm(*(c.denominator for c in coeffs))
        return _make(conductor, [c.numerator * (den // c.denominator) for c in coeffs], den)

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions, built on request."""
        return tuple(_fraction()(c, self.den) for c in self.nums)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    @property
    def rational_value(self):
        """The value as a Fraction, built on request."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return _fraction()(self.nums[0], self.den)

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    def lift(self, conductor: int) -> "Cyclotomic":
        """Rewrite at a multiple of the current conductor (zeta_m = zeta_n^(n/m))."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError(
                f"cannot lift conductor {self.conductor} to non-multiple {conductor}"
            )
        return _make(conductor, lift_nums(self.nums, self.conductor, conductor), self.den)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, int) or isinstance(other, _fraction()):
            return rational(other, self.conductor)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other, sign=1):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, sign)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational() and other.conductor <= self.conductor:
            return self._scaled_by(other)
        if self.is_rational() and self.conductor <= other.conductor:
            return other._scaled_by(self)
        return _mul(Cyclotomic, self, other)

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse as the product of the nontrivial Galois
        conjugates over the norm: for a = A/d with A integral,
        B = prod_{t != 1} sigma_t(A) makes A*B = N(A) a nonzero integer (Phi_n
        is irreducible, so every conjugate of a nonzero value is nonzero),
        and a^-1 = d*B / N(A)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        n, nums, den = self.conductor, self.nums, self.den
        if self.is_rational():
            return _make(n, [den if nums[0] > 0 else -den] + [0] * (len(nums) - 1), abs(nums[0]))
        conj = None
        for t in range(2, n):
            if gcd(t, n) == 1:
                image = _permute_nums(n, nums, t)
                conj = image if conj is None else _mul_nums(n, conj, image)
        norm = _mul_nums(n, nums, conj)[0]
        if norm < 0:
            den, norm = -den, -norm
        return _make(n, [den * c for c in conj], norm)

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
        result = rational(1, base.conductor)
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
        return _make(n, _permute_nums(n, self.nums, t), self.den)

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta_n -> zeta_n^(-1)."""
        return self.galois(self.conductor - 1)

    # -- numeric embedding (display / sanity only) -------------------------

    def embed(self) -> complex:
        n = self.conductor
        angles = ((c, 2 * pi * k / n) for k, c in enumerate(self.nums) if c)
        return sum(c / self.den * complex(cos(t), sin(t)) for c, t in angles) or complex(0)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._same(other)

    def coeff_strs(self) -> list[str]:
        """The power-basis coefficients as str(Fraction) writes them: "-1/2";
        SchemaError for a number past the interpreter's limit on str(int)."""
        d = self.den
        try:
            return [str(c // g) if (g := gcd(c, d)) == d else f"{c // g}/{d // g}"
                    for c in self.nums]
        except ValueError:
            from decimal import Decimal  # which counts digits without str(int)
            x = max(max(abs(c), d) // gcd(c, d) for c in self.nums)  # the longest number
            raise SchemaError(f"cannot print a number of {Decimal(x).adjusted() + 1} digits, "
                              f"past the limit of {sys.get_int_max_str_digits()}") from None

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self.coeff_strs()})"

    def __str__(self):
        texts = self.coeff_strs()
        if self.is_rational():
            return texts[0]
        out = texts[0] if self.nums[0] else ""
        for k, (c, text) in enumerate(zip(self.nums[1:], texts[1:]), 1):
            if c:
                power = f"ζ{self.conductor}" + (f"^{k}" if k > 1 else "")
                term = f"{text}*{power}" if abs(c) != self.den else power if c > 0 else f"-{power}"
                out += term if not out or term[0] == "-" else "+" + term
        return out

    def approx_str(self) -> str:
        z = self.embed()
        re = f"{0.0 if abs(z.real) < 1e-12 else z.real:.6g}"
        if abs(z.imag) < 1e-12:
            return re
        sign = "+" if z.imag >= 0 else "-"
        return f"{re}{sign}{abs(z.imag):.6g}i"


# Slot setters past the read-only guard, for `_make` only.
_new = object.__new__
_set_conductor, _set_nums, _set_den = (getattr(_Flat, f).__set__ for f in _Flat.__slots__)


def _make(n: int, nums, den: int = 1, cls=Cyclotomic):
    """Trusted constructor of a cls (a Cyclotomic or a vector): `nums` are
    integers, phi(n) per coordinate, and `den` > 0.  No validation; divides
    out gcd(den, *nums) to keep the form canonical."""
    g = gcd(den, *nums)
    if g != 1:
        den //= g
        nums = [c // g for c in nums]
    v = _new(cls)
    _set_conductor(v, n)
    _set_nums(v, tuple(nums))
    _set_den(v, den)
    return v


def zeta(n: int, k: int = 1) -> Cyclotomic:
    nums = [0] * euler_phi(n)
    for m, c in _monomial_table(n)[k % n]:
        nums[m] = c
    return _make(n, nums)


def rational(q, conductor: int = 1) -> Cyclotomic:
    if not isinstance(q, int):
        q = _fraction()(q)
    nums = [0] * euler_phi(conductor)
    nums[0] = q.numerator
    return _make(conductor, nums, q.denominator)


def shown(v: Cyclotomic, n: int) -> Cyclotomic:
    """v as displayed where values are shown at conductor n: lifted to
    lcm(conductor, n) unless it is rational."""
    return v if v.is_rational() else v.lift(lcm(v.conductor, n))


class _Vector(_Flat):
    """Coefficient vector over a basis; the subclass names the basis, and
    vectors over different bases never compare equal.  Unhashable.  Stored
    flat as a Cyclotomic is, with phi(n) numerators per coordinate; coeffs
    builds the Cyclotomic coordinates once, when first read."""

    __slots__ = ("_coeffs",)

    def __new__(cls, coeffs: tuple[Cyclotomic, ...]):
        return _stacked(cls, coeffs)

    @property
    def coeffs(self) -> tuple[Cyclotomic, ...]:
        if not hasattr(self, "_coeffs"):
            object.__setattr__(self, "_coeffs", _unstacked(Cyclotomic, self, 1))
        return self._coeffs

    def __repr__(self):
        return f"{type(self).__name__}(coeffs={self.coeffs!r})"

    __add__ = _Flat._plus
    __sub__ = partialmethod(_Flat._plus, sign=-1)

    def scaled(self, c):
        c = c if isinstance(c, Cyclotomic) else rational(c)
        return self._scaled_by(c) if c.is_rational() else _mul(type(self), self, c)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._same(other)


def _family(vectors, n: int = 1):
    """(n, den, rows): the vectors (a Cyclotomic is one coordinate) at the lcm
    of their conductors and n, as flat numerator rows over one denominator."""
    n = lcm(n, *(v.conductor for v in vectors))
    den = lcm(*(v.den for v in vectors))
    rows = ((lift_nums(v.nums, v.conductor, n), den // v.den) for v in vectors)
    return n, den, [list(x) if f == 1 else [c * f for c in x] for x, f in rows]


def _sums(family, selections):
    """(n, den, rows): row s is the sum of the rows k of the _family over k in
    selections[s]; the 0/1 selection matrix times the vectors."""
    n, den, rows = family
    zero = [0] * len(rows[0])
    return n, den, [list(map(sum, zip(zero, *(rows[k] for k in sel)))) for sel in selections]


def _mul(cls, a, b):
    """The coordinatewise product of two vectors, as a cls; a factor with
    fewer coordinates repeats, so that it multiplies each block of a stack."""
    n, den, (x, y) = _family((a, b))
    if len(x) != len(y):
        x, y = (x * (len(y) // len(x)), y) if len(x) < len(y) else (x, y * (len(x) // len(y)))
    return _make(n, pointwise_nums(n, x, y), den * den, cls)


def _permuted(cls, v, perm):
    """The cls with coordinate i = coordinate perm[i] of v, in each block of
    len(perm) coordinates when v stacks several vectors."""
    phi = euler_phi(v.conductor)
    at = [i * phi + m for i in perm for m in range(phi)]
    nums = [v.nums[b + k] for b in range(0, len(v.nums), len(at)) for k in at]
    return _make(v.conductor, nums, v.den, cls)


def _stacked(cls, vectors):
    """One cls holding the coordinates of the vectors in turn: a stack, which
    _mul and _permuted map block by block."""
    n, den, rows = _family(vectors)
    return _make(n, [c for row in rows for c in row], den, cls)


def _unstacked(cls, v, size: int) -> tuple:
    """The stack v cut into vectors of size coordinates, each a cls (or a Cyclotomic)."""
    step = size * euler_phi(v.conductor)
    return tuple(_make(v.conductor, v.nums[k:k + step], v.den, cls)
                 for k in range(0, len(v.nums), step))


def _transposed(vectors) -> list[_Vector]:
    """The columns of the matrix with the vectors as rows."""
    n, den, rows = _family(vectors)
    cols = zip(*(_chunks(row, euler_phi(n)) for row in rows))
    return [_make(n, [c for x in col for c in x], den, _Vector) for col in cols]


def _products(cls, xs, ys) -> list:
    """Row a is the cls with coordinate b = sum_k xs[a]_k ys[b]_k: one matmul_nums."""
    n, dx, rows = _family(xs, lcm(*(v.conductor for v in ys)))
    n, dy, cols = _family(ys, n)
    return [_make(n, row, dx * dy, cls) for row in matmul_nums(n, rows, cols)]


class CycloMatrix(_Frozen):
    """Read-only matrix over a cyclotomic field, its entries stored once,
    row-major, as one flat _Vector `entries`.  The constructor stacks its
    checked rows through _family, `_matrix` builds every other matrix, and
    `rows` is a read-only view of the entries as values, built when read."""

    __slots__ = ("nrows", "ncols", "entries", "__dict__")  # __dict__ holds rows
    __hash__ = None

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        if not all(isinstance(v, Cyclotomic) for r in rows for v in r):
            raise TypeError("matrix entries must be Cyclotomic")
        super().__init__(len(rows), len(rows[0]), _stacked(_Vector, [v for r in rows for v in r]))

    conductor = property(lambda self: self.entries.conductor)

    @cached_property
    def rows(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        return tuple(_chunks(self.entries.coeffs, self.ncols))

    @staticmethod
    def identity(k: int, conductor: int = 1) -> "CycloMatrix":
        nums = [0] * (k * k * euler_phi(conductor))
        nums[::(k + 1) * euler_phi(conductor)] = [1] * k
        return _matrix(k, k, _make(conductor, nums, 1, _Vector))

    def flat(self):
        """(n, den, rows): the stored numerators sliced into flat rows."""
        n, v = self.conductor, self.entries
        return n, v.den, _chunks(list(v.nums), self.ncols * euler_phi(n))

    def __eq__(self, other):
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        return (self.nrows, self.entries) == (other.nrows, other.entries)  # and so ncols

    def __matmul__(self, other: "CycloMatrix") -> "CycloMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        rows, cols = (_unstacked(_Vector, m.entries, m.ncols) for m in (self, other.transpose()))
        return _matrix(self.nrows, other.ncols, _stacked(_Vector, _products(_Vector, rows, cols)))

    def transpose(self) -> "CycloMatrix":
        order = [i * self.ncols + j for j in range(self.ncols) for i in range(self.nrows)]
        return _matrix(self.ncols, self.nrows, _permuted(_Vector, self.entries, order))

    def descended(self) -> "CycloMatrix":
        """The matrix at the least conductor m holding its entries
        (least_field) when phi(m) < phi(conductor), else the matrix itself."""
        phi = euler_phi(self.conductor)
        if phi == 1:
            return self
        m, nums = least_field([self.entries], self.conductor)
        if euler_phi(m) == phi:
            return self
        return _matrix(self.nrows, self.ncols,
                       _make(m, [c for x in nums for c in x], self.entries.den, _Vector))

    def inverse(self) -> "CycloMatrix":
        """Exact Gauss-Jordan on the rows of [m | I], each a _Vector: the pivot
        is the first nonzero entry in the column (no magnitude heuristics
        over an exact field), scaled to 1 by one inv, and each other row with
        a nonzero entry there loses a multiple of the pivot row.  A column
        with no pivot is skipped, so the number of pivots found is the rank
        that SingularMatrixError carries.  The matrix keeps no inverse."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        k, (n, den, rows) = self.nrows, self.flat()
        phi, rank = euler_phi(n), 0
        work = [_make(n, row + [0] * (i * phi) + [den] + [0] * ((k - i) * phi - 1), den, _Vector)
                for i, row in enumerate(rows)]
        for col in range(k):
            at = slice(col * phi, (col + 1) * phi)
            pivot = next((r for r in range(rank, k) if any(work[r].nums[at])), None)
            if pivot is None:
                continue
            top, work[pivot] = work[pivot], work[rank]
            top = work[rank] = top.scaled(_make(n, top.nums[at], top.den).inv())
            for r, row in enumerate(work):
                if r != rank and any(row.nums[at]):
                    work[r] = row - top.scaled(_make(n, row.nums[at], row.den))
            rank += 1
        if rank < k:
            raise SingularMatrixError(rank=rank)
        return _matrix(k, k, _stacked(_Vector, [_unstacked(_Vector, v, k)[1] for v in work]))

    def __repr__(self):
        return f"CycloMatrix({self.nrows}x{self.ncols}, conductor {self.conductor})"


def _matrix(nrows: int, ncols: int, entries: _Vector) -> CycloMatrix:
    """Trusted constructor of a CycloMatrix from its entries, row-major."""
    _Frozen.__init__(m := _new(CycloMatrix), nrows, ncols, entries)
    return m
