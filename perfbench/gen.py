"""Input generators for the benchmark, written without importing fusioncat.

Every value a generated category carries is an integer combination of
roots of unity, kept here as integer coefficients on exponents mod n over a
conductor n (a group-ring element of Z[Z/n]).  Only when a file is written
is it reduced modulo the cyclotomic polynomial Phi_n to the power-basis
coefficient array of length phi(n) that the input schema asks for.

Families:

- SU(2)_k, rank k+1: s_ij = [(i+1)(j+1)]_q with q = zeta_{2(k+2)} and the
  quantum integer [n]_q = q^(n-1) + q^(n-3) + ... + q^(1-n); twists
  theta_j = zeta_{4(k+2)}^(j(j+2)).  Its fusion-ring form carries the
  truncated Clebsch-Gordan rule, dims [j+1]_q and the character table
  alpha_ij = s_ij / d_j = sum_{m=-i,-i+2,..,i} q^(m(j+1)).
- Z/N with the quadratic form of the package catalog: s_jk = zeta_m^(2jk),
  theta_j = zeta_m^(j^2), m = N for odd N and 2N for even N.
- Pointed Deligne powers of toric_code (Z/2 x Z/2) and semion (Z/2):
  S (x) S and twists multiplied.

A seeded relabelling permutes the non-unit simple objects, so the bytes
the program reads change while the work stays the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cache
from math import gcd


# ---------------------------------------------------------------------------
# exact values: {exponent: integer} over a conductor


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


@cache
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_n, ascending integer coefficients: (x^n - 1) / prod_{d|n, d<n} Phi_d."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = cyclotomic_poly(d)
        quo = [0] * (len(num) - len(den) + 1)
        for k in range(len(quo) - 1, -1, -1):
            c = num[k + len(den) - 1]
            quo[k] = c
            for i, a in enumerate(den):
                num[k + i] -= c * a
        if any(num):
            raise ArithmeticError(f"Phi_{d} does not divide x^{n} - 1 exactly")
        num = quo
    return tuple(num)


@cache
def _power_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row m is zeta_n^m reduced to the power basis 1, zeta, .., zeta^(phi-1)."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rows, cur = [], [1] + [0] * (deg - 1)
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        for i in range(deg):
            cur[i] -= top * phi[i]
    return tuple(rows)


@dataclass(frozen=True)
class Val:
    """sum_m terms[m] * zeta_conductor^m with integer coefficients."""

    conductor: int
    terms: tuple  # sorted ((exponent, coefficient), ...), coefficients nonzero

    @staticmethod
    def make(conductor: int, pairs) -> "Val":
        acc: dict[int, int] = {}
        for m, c in pairs:
            m %= conductor
            acc[m] = acc.get(m, 0) + c
        return Val(conductor, tuple(sorted((m, c) for m, c in acc.items() if c)))

    @staticmethod
    def root(conductor: int, m: int = 1) -> "Val":
        return Val.make(conductor, [(m, 1)])

    @staticmethod
    def integer(c: int) -> "Val":
        return Val.make(1, [(0, c)])

    def at(self, conductor: int) -> "Val":
        if conductor % self.conductor:
            raise ValueError(f"{conductor} is not a multiple of {self.conductor}")
        step = conductor // self.conductor
        return Val.make(conductor, [(m * step, c) for m, c in self.terms])

    def __mul__(self, other: "Val") -> "Val":
        n = _lcm(self.conductor, other.conductor)
        a, b = self.at(n), other.at(n)
        return Val.make(
            n, [(i + j, x * y) for i, x in a.terms for j, y in b.terms]
        )

    def coeffs(self, conductor: int) -> list[int]:
        """Power-basis coefficient array at the given conductor."""
        rows = _power_rows(conductor)
        out = [0] * (len(cyclotomic_poly(conductor)) - 1)
        for m, c in self.at(conductor).terms:
            for i, r in enumerate(rows[m]):
                out[i] += c * r
        return out

    def to_json(self, conductor: int):
        cs = self.coeffs(conductor)
        if not any(cs[1:]):
            return str(cs[0])
        return [str(c) for c in cs]


# ---------------------------------------------------------------------------
# category descriptions


@dataclass
class Category:
    """Everything a generator knows about one category.

    For pointed categories `group[i]` is the element of the abelian group
    (residues mod `moduli`) that simple object i stands for, and the
    bicharacter is b(x_i, x_j) = exp(2 pi i bichar[i][j] / bichar_den),
    kept in integers for the independent centralizer oracle.
    """

    name: str
    labels: list[str]
    s: list[list[Val]]
    twists: list[Val]
    fusion: list[list[list[int]]]
    dims: list[Val]
    char_table: list[list[Val]]
    moduli: tuple[int, ...] = ()
    group: list[tuple[int, ...]] = field(default_factory=list)
    bichar: list[list[int]] = field(default_factory=list)
    bichar_den: int = 1

    @property
    def rank(self) -> int:
        return len(self.labels)


def _quantum_int(n: int, q_cond: int) -> Val:
    """[n]_q for q = zeta_{q_cond}."""
    return Val.make(q_cond, [(m, 1) for m in range(-(n - 1), n, 2)])


def su2(k: int) -> Category:
    """SU(2)_k with labels 0..k (twice the spin)."""
    r = k + 1
    qc = 2 * (k + 2)
    s = [[_quantum_int((i + 1) * (j + 1), qc) for j in range(r)] for i in range(r)]
    twists = [Val.root(4 * (k + 2), j * (j + 2)) for j in range(r)]
    fusion = [
        [
            [
                1
                if abs(i - j) <= m <= min(i + j, 2 * k - i - j) and (i + j + m) % 2 == 0
                else 0
                for m in range(r)
            ]
            for j in range(r)
        ]
        for i in range(r)
    ]
    dims = [_quantum_int(j + 1, qc) for j in range(r)]
    table = [
        [Val.make(qc, [(m * (j + 1), 1) for m in range(-i, i + 1, 2)]) for j in range(r)]
        for i in range(r)
    ]
    return Category(f"su2_{k}", [str(j) for j in range(r)], s, twists, fusion, dims, table)


def _pointed(name, labels, moduli, group, s_exp, s_den, q_exp, q_den) -> Category:
    """Pointed category of an abelian group from integer exponent forms:
    s_xy = exp(2 pi i s_exp(x, y) / s_den), theta_x = exp(2 pi i q_exp(x) / q_den)."""
    r = len(group)
    index = {g: i for i, g in enumerate(group)}
    s = [[Val.root(s_den, s_exp(x, y)) for y in group] for x in group]
    twists = [Val.root(q_den, q_exp(x)) for x in group]
    fusion = [
        [
            [
                1
                if index[tuple((a + b) % n for a, b, n in zip(x, y, moduli))] == m
                else 0
                for m in range(r)
            ]
            for y in group
        ]
        for x in group
    ]
    one = Val.integer(1)
    return Category(
        name, labels, s, twists, fusion, [one] * r, [row[:] for row in s],
        moduli=moduli, group=list(group),
        bichar=[[s_exp(x, y) % s_den for y in group] for x in group], bichar_den=s_den,
    )


def vec_zn(n: int) -> Category:
    """Z/N with the package catalog's quadratic form (see the module docstring)."""
    m = n if n % 2 else 2 * n
    return _pointed(
        f"vec_z{n}", [str(j) for j in range(n)], (n,), [(j,) for j in range(n)],
        lambda x, y: 2 * x[0] * y[0], m, lambda x: x[0] * x[0], m,
    )


def toric_code() -> Category:
    # e = (1, 0), m = (0, 1), f = (1, 1); s = (-1)^(x1 y2 + x2 y1), theta_f = -1
    return _pointed(
        "toric_code", ["1", "e", "m", "f"], (2, 2), [(0, 0), (1, 0), (0, 1), (1, 1)],
        lambda x, y: x[0] * y[1] + x[1] * y[0], 2, lambda x: x[0] * x[1], 2,
    )


def semion() -> Category:
    # s = (-1)^(xy), theta_s = i
    return _pointed(
        "semion", ["1", "s"], (2,), [(0,), (1,)],
        lambda x, y: x[0] * y[0], 2, lambda x: x[0] * x[0], 4,
    )


def anti_semion() -> Category:
    # the complex conjugate of semion: theta_s = -i
    return _pointed(
        "anti_semion", ["1", "sbar"], (2,), [(0,), (1,)],
        lambda x, y: x[0] * y[0], 2, lambda x: -x[0] * x[0], 4,
    )


def double_semion() -> Category:
    """anti_semion (x) semion, so that index 1 is s and index 2 is sbar as
    in the package catalog."""
    cat = deligne(anti_semion(), semion())
    cat.name, cat.labels = "double_semion", ["1", "s", "sbar", "f"]
    return cat


def deligne(a: Category, b: Category) -> Category:
    """C (x) D: s-matrix S (x) S, twists multiplied, pairs (i, j) ordered
    i-major so that the unit (0, 0) stays first."""
    ra, rb = a.rank, b.rank
    pairs = [(i, j) for i in range(ra) for j in range(rb)]
    labels = [f"{a.labels[i]}.{b.labels[j]}" for i, j in pairs]
    s = [[a.s[i][k] * b.s[j][l] for k, l in pairs] for i, j in pairs]
    twists = [a.twists[i] * b.twists[j] for i, j in pairs]
    fusion = [
        [
            [a.fusion[i][k][m] * b.fusion[j][l][n] for m, n in pairs]
            for k, l in pairs
        ]
        for i, j in pairs
    ]
    dims = [a.dims[i] * b.dims[j] for i, j in pairs]
    table = [[a.char_table[i][k] * b.char_table[j][l] for k, l in pairs] for i, j in pairs]
    pointed = {}
    if a.group and b.group:
        den = _lcm(a.bichar_den, b.bichar_den)
        fa, fb = den // a.bichar_den, den // b.bichar_den
        pointed = dict(
            moduli=a.moduli + b.moduli,
            group=[a.group[i] + b.group[j] for i, j in pairs],
            bichar=[
                [(a.bichar[i][k] * fa + b.bichar[j][l] * fb) % den for k, l in pairs]
                for i, j in pairs
            ],
            bichar_den=den,
        )
    return Category(
        f"{a.name}x{b.name}", labels, s, twists, fusion, dims, table, **pointed
    )


def deligne_power(base: Category, n: int, name: str) -> Category:
    out = base
    for _ in range(n - 1):
        out = deligne(out, base)
    out.name = name
    return out


# ---------------------------------------------------------------------------
# relabelling and serialisation


def relabel_perm(rank: int, seed: int, name: str) -> list[int]:
    """perm[old] = new; a permutation of range(rank) that fixes the unit."""
    rest = list(range(1, rank))
    random.Random(f"{seed}:{name}").shuffle(rest)
    return [0] + rest


def relabel(cat: Category, perm: list[int]) -> Category:
    """Move simple object i to position perm[i]; every table follows it."""
    r = cat.rank
    inv = [0] * r
    for old, new in enumerate(perm):
        inv[new] = old

    def vec(v):
        return [v[inv[i]] for i in range(r)]

    def mat(m):
        return [[m[inv[i]][inv[j]] for j in range(r)] for i in range(r)]

    fusion = [
        [[cat.fusion[inv[i]][inv[j]][inv[k]] for k in range(r)] for j in range(r)]
        for i in range(r)
    ]
    return Category(
        cat.name, vec(cat.labels), mat(cat.s), vec(cat.twists), fusion,
        vec(cat.dims), mat(cat.char_table), moduli=cat.moduli,
        group=vec(cat.group) if cat.group else [],
        bichar=mat(cat.bichar) if cat.bichar else [], bichar_den=cat.bichar_den,
    )


def _conductor(values) -> int:
    n = 1
    for v in values:
        if any(m for m, _ in v.terms):
            n = _lcm(n, v.conductor)
    return n


def modular_json(cat: Category) -> dict:
    n = _conductor([v for row in cat.s for v in row] + cat.twists)
    return {
        "schema_version": 1,
        "name": cat.name,
        "kind": "modular",
        "conductor": n,
        "rank": cat.rank,
        "labels": list(cat.labels),
        "s_matrix": [[v.to_json(n) for v in row] for row in cat.s],
        "twists": [v.to_json(n) for v in cat.twists],
    }


def ring_json(cat: Category) -> dict:
    n = _conductor(cat.dims + [v for row in cat.char_table for v in row])
    return {
        "schema_version": 1,
        "name": f"{cat.name}_ring",
        "kind": "fusion_ring",
        "conductor": n,
        "rank": cat.rank,
        "labels": list(cat.labels),
        "fusion": cat.fusion,
        "dims": [v.to_json(n) for v in cat.dims],
        "char_table": [[v.to_json(n) for v in row] for row in cat.char_table],
    }


def write_json(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
