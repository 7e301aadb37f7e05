"""Fixed reference work that measures how fast the machine is right now.

The end-to-end runs start this script as a cold process between the
commands they time, and divide each command's time by the reference's
time next to it (see run.py).  On a shared host the speed of a core drifts
by 10-30 % over seconds to minutes; the program and this script slow
together, so the ratio moves far less than either time does.

The work is meant to slow down the way fusioncat does: a cold interpreter
that imports the same standard modules, then exact Fraction arithmetic in
Python loops (products in Q(zeta_28) reduced modulo Phi_28, and
Gauss-Jordan elimination of a rational matrix) and tuple-keyed dicts.  It
does not import fusioncat and must never change: a change here rescales
every end-to-end time.  It prints nothing and exits 0.
"""

from __future__ import annotations

import argparse  # noqa: F401  imported for its start-up cost, as fusioncat does
import cmath  # noqa: F401
import json  # noqa: F401
import re  # noqa: F401
from dataclasses import dataclass  # noqa: F401
from fractions import Fraction
from functools import cache
from math import gcd  # noqa: F401
from typing import Optional  # noqa: F401

CONDUCTOR = 28
PRODUCTS = 60
MATRIX_SIZE = 8


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
        num = quo
    return tuple(num)


def mul_mod(a: list, b: list, phi: tuple) -> list:
    """(a * b) mod Phi, on Fraction coefficient lists of length deg Phi."""
    deg = len(phi) - 1
    prod = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if c:
            for i in range(deg + 1):
                prod[k - deg + i] -= c * phi[i]
    return prod[:deg]


def gauss_jordan(rows: list) -> list:
    """Inverse of a square Fraction matrix."""
    n = len(rows)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def main() -> None:
    phi = cyclotomic_poly(CONDUCTOR)
    deg = len(phi) - 1
    seen: dict[tuple, list] = {}
    x = [Fraction((3 * i) % 7 - 3, 1 + i % 4) for i in range(deg)]
    for r in range(PRODUCTS):
        y = [Fraction((i * r) % 5 - 2, 1 + (i + r) % 3) for i in range(deg)]
        z = mul_mod(x, y, phi)
        seen[(r % 11, tuple(c.numerator % 7 for c in z))] = z
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(MATRIX_SIZE)]
         for i in range(MATRIX_SIZE)]
    inv = gauss_jordan(m)
    for i in range(MATRIX_SIZE):  # m * inv must be the identity
        for j in range(MATRIX_SIZE):
            if sum(m[i][k] * inv[k][j] for k in range(MATRIX_SIZE)) != (i == j):
                raise ArithmeticError("reference inverse is wrong")
    if not seen:
        raise ArithmeticError("reference products are missing")


if __name__ == "__main__":
    main()
