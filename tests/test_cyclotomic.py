"""Exact cyclotomic arithmetic: construction, field operations, matrices."""

import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusioncat.cyclotomic import (
    CycloMatrix,
    Cyclotomic,
    _family,
    _make,
    _matmul,
    _mul_nums,
    _packed,
    _products,
    _top,
    _Vector,
    _width,
    cyclotomic_polynomial,
    euler_phi,
    least_field,
    matmul_nums,
    pointwise_nums,
    rational,
    triple_sums,
    zeta,
)
from fusioncat.errors import SchemaError, SingularMatrixError

CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12, 15, 24)


def fractions(max_num=9, max_den=9):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


@st.composite
def cyclotomics(draw, conductors=CONDUCTORS, nonzero=False, max_num=9, max_den=9):
    n = draw(st.sampled_from(conductors))
    k = euler_phi(n)
    coeffs = draw(st.lists(fractions(max_num, max_den), min_size=k, max_size=k))
    value = Cyclotomic(n, coeffs)
    if nonzero and value.is_zero():
        value = value + 1
    return value


# -- polynomial oracle -------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclotomic_polynomial_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
    ours = list(reversed(cyclotomic_polynomial(n)))
    assert [int(c) for c in ours] == [int(c) for c in expected]


def test_phi_twelve_coefficients():
    # x^4 - x^2 + 1, ascending
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_degree_is_euler_phi():
    for n in CONDUCTORS:
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


# -- constants and frozen identities -----------------------------------------


def test_golden_ratio_arithmetic():
    g = -zeta(5, 2) - zeta(5, 3)
    assert g * g == g + 1
    assert g.inv() == g - 1
    assert not g.is_rational()
    assert g.approx_str() == "1.61803"


def test_sqrt_two_from_eighth_roots():
    r = zeta(8) - zeta(8, 3)
    assert r * r == rational(2)
    assert str(r) == "ζ8-ζ8^3"
    assert r.approx_str() == "1.41421"


def test_approx_str_drops_float_noise():
    assert zeta(4).approx_str() == "0+1i"
    assert zeta(4, 3).approx_str() == "0-1i"
    assert zeta(6).approx_str() == "0.5+0.866025i"


@pytest.mark.skipif(not 0 < sys.get_int_max_str_digits() < 5000,
                    reason="needs a digit limit below 5000")
@pytest.mark.parametrize("value, digits", [
    (rational(10**5000 - 1), 5000),
    (rational(Fraction(1, 10**5000)), 5001),
    (zeta(5) * -(10**5000) + Fraction(1, 3), 5001),
])
def test_a_number_too_long_to_print_raises_schema_error(value, digits):
    # the length is counted without str(int), exactly, also next to a power of 10
    want = (f"cannot print a number of {digits} digits, past the limit of "
            f"{sys.get_int_max_str_digits()}")
    for text in (value.coeff_strs, value.__str__, value.__repr__):
        with pytest.raises(SchemaError, match=f"^{want}$"):
            text()


def test_sixth_root_equals_one_plus_third_root():
    assert zeta(6) == rational(1) + zeta(3)


def test_root_of_unity_order():
    for n in (3, 4, 5, 8, 12):
        z = zeta(n)
        assert z ** n == rational(1)
        for k in range(1, n):
            assert z ** k != rational(1)


def test_rational_detection():
    z = zeta(5)
    total = z + z**2 + z**3 + z**4
    assert total.is_rational()
    assert total.rational_value == Fraction(-1)
    assert rational(Fraction(3, 2)).rational_value == Fraction(3, 2)


def test_lift_preserves_value():
    z3 = zeta(3)
    lifted = z3.lift(12)
    assert lifted.conductor == 12
    assert lifted == z3


def test_mixed_conductor_sum():
    v = zeta(3) + zeta(4)
    assert v.conductor == 12
    assert v - zeta(4) == zeta(3)


# -- algebraic laws, randomized ----------------------------------------------


@given(cyclotomics(), cyclotomics())
@settings(max_examples=150, deadline=None)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(cyclotomics(), cyclotomics(), cyclotomics())
@settings(max_examples=100, deadline=None)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(cyclotomics(nonzero=True))
@settings(max_examples=200, deadline=None)
def test_field_inverse(a):
    assert a * a.inv() == rational(1)


@given(cyclotomics())
@settings(max_examples=100, deadline=None)
def test_conjugation_involution(a):
    assert a.conj().conj() == a


@given(cyclotomics(), cyclotomics())
@settings(max_examples=100, deadline=None)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


@given(st.sampled_from((5, 8, 12)), st.data())
@settings(max_examples=60, deadline=None)
def test_galois_composition(n, data):
    units = [t for t in range(1, n) if euler_phi(n) and _gcd(t, n) == 1]
    t1 = data.draw(st.sampled_from(units))
    t2 = data.draw(st.sampled_from(units))
    a = data.draw(cyclotomics(conductors=(n,)))
    assert a.galois(t1).galois(t2) == a.galois((t1 * t2) % n)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@given(cyclotomics(), fractions())
@settings(max_examples=100, deadline=None)
def test_rational_coercion(a, q):
    assert a + q == a + rational(q)
    assert a * q == a * rational(q)
    assert q + a == a + q


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        rational(0).inv()
    with pytest.raises(ZeroDivisionError):
        (zeta(4) - zeta(4)).inv()


def test_embedding_matches_value():
    v = zeta(8) - zeta(8, 3)
    assert abs(v.embed() - 2**0.5) < 1e-12
    g = -zeta(5, 2) - zeta(5, 3)
    assert abs(g.embed() - (1 + 5**0.5) / 2) < 1e-12


# -- exact matrices ----------------------------------------------------------


def _rand_matrix(rng, n=4, conductor=8):
    k = euler_phi(conductor)
    return CycloMatrix(
        [
            [
                Cyclotomic(
                    conductor,
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(k)],
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def test_matrix_inverse_roundtrip():
    import random

    rng = random.Random(7)
    eye = CycloMatrix.identity(4, 8)
    done = 0
    while done < 5:
        m = _rand_matrix(rng)
        try:
            minv = m.inverse()
        except SingularMatrixError:
            continue
        assert m @ minv == eye
        assert minv @ m == eye
        done += 1


def test_singular_matrix_reports_rank():
    one = rational(1)
    rows = [
        [one, one, one],
        [one, one, one],
        [one, one, one + one],
    ]
    with pytest.raises(SingularMatrixError) as exc:
        CycloMatrix(rows).inverse()
    assert exc.value.rank == 2


def test_singular_matrix_rank_with_an_inner_missing_pivot():
    # Column 1 is zeta8 times column 0, so the pivot goes missing in the
    # second column, not the last; rows 2 and 3 are combinations of rows 0, 1.
    z, one, zero = zeta(8), rational(1), rational(0)
    r0 = [one, z, zero, one]
    r1 = [z, z * z, one, zero]
    r2 = [a + b for a, b in zip(r0, r1)]
    r3 = [z * a - b for a, b in zip(r0, r1)]
    with pytest.raises(SingularMatrixError) as exc:
        CycloMatrix([r0, r1, r2, r3]).inverse()
    assert exc.value.rank == 2


def test_matrix_multiply_known():
    z = zeta(4)
    m = CycloMatrix([[rational(1), z], [z, rational(1)]])
    sq = m @ m
    assert sq.rows[0][0] == rational(1) + z * z  # 1 + i^2 = 0
    assert sq.rows[0][0] == rational(0)
    assert sq.rows[0][1] == z + z


def test_matrix_transpose_symmetric():
    z = zeta(3)
    m = CycloMatrix([[rational(2), z], [z, rational(5)]])
    assert m.transpose() == m
    a = CycloMatrix([[rational(2), z], [rational(0), rational(5)]])
    assert a.transpose() != a and a.transpose().transpose() == a


def test_matrix_equality_is_by_value_and_shape():
    one = rational(1)
    assert CycloMatrix([[zeta(4)]]) == CycloMatrix([[zeta(8, 2)]])
    assert CycloMatrix([[one, one]]) != CycloMatrix([[one], [one]])
    assert CycloMatrix([[one]]) != CycloMatrix([[one, one]])
    assert CycloMatrix([[one, zeta(3)]]) != CycloMatrix([[one, zeta(3, 2)]])
    with pytest.raises(TypeError):
        hash(CycloMatrix([[one]]))


def _rank_over_q(values, n):
    """The rank over Q, by sympy, of the k phi(n) x k phi(n) rational matrix
    that replaces each value by its multiplication matrix on the power basis
    1, x, ..., x^(phi(n)-1) of Q[x]/(Phi_n(x))."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi_n, phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x), euler_phi(n)

    def block(v):  # column m: the coefficients of v x^m mod Phi_n
        poly = sympy.Poly(sum(c * x**i for i, c in enumerate(v.coeffs)), x, domain="QQ")
        cols = [(poly * sympy.Poly(x**m, x)).rem(phi_n).all_coeffs()[::-1] for m in range(phi)]
        return [[col[r] if r < len(col) else 0 for col in cols] for r in range(phi)]

    blocks = [[block(v) for v in row] for row in values]
    big = [[c for b in row for c in b[r]] for row in blocks for r in range(phi)]
    return sympy.Matrix(big).rank()


@st.composite
def square_cases(draw):
    """(n, rows): a k x k matrix at conductor n, k <= 4; when drawn so, its
    last row is a combination of the others, so that it is singular."""
    n = draw(st.sampled_from((1, 3, 4, 5, 8, 12)))
    k = draw(st.integers(1, 4))
    values = cyclotomics((n,), max_num=3, max_den=3)
    rows = [[draw(values) for _ in range(k)] for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        weights = [draw(values) for _ in range(k - 1)]
        rows[-1] = [sum((w * row[j] for w, row in zip(weights, rows)), rational(0, n))
                    for j in range(k)]
    return n, rows


@given(square_cases())
@settings(max_examples=60, deadline=None)
@example((1, [[rational(0)]]))
@example((8, [[zeta(8), zeta(8, 2)], [rational(1), zeta(8)]]))
def test_inverse_round_trips_or_reports_the_rank_over_q(case):
    """inverse() either round-trips or raises with the rank; the rank over
    Q(zeta_n) is the rank over Q of the rational matrix, divided by phi(n)."""
    n, rows = case
    k, m = len(rows), CycloMatrix(rows)
    rank, rest = divmod(_rank_over_q(rows, n), euler_phi(n))
    assert rest == 0
    try:
        inv = m.inverse()
    except SingularMatrixError as e:
        assert e.rank == rank < k
    else:
        assert rank == k
        assert m @ inv == CycloMatrix.identity(k, n)


# -- the integer kernel against a Fraction reference -------------------------
#
# The reference works on Fraction coefficient lists only: dense products and
# substitutions x -> x^t, then long division by Phi_n.


def _ref_reduce(poly, n):
    phi_poly = cyclotomic_polynomial(n)
    k = len(phi_poly) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, k - len(poly))
    for top in range(len(poly) - 1, k - 1, -1):
        c = poly[top]
        if c:
            for i, p in enumerate(phi_poly):
                poly[top - k + i] -= c * p
    return poly[:k]


def _ref_mul(n, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _ref_reduce(conv, n)


def _ref_substitute(n, coeffs, t):
    """sum c_i x^(i*t) reduced mod Phi_n."""
    poly = [Fraction(0)] * ((len(coeffs) - 1) * t + 1)
    for i, c in enumerate(coeffs):
        poly[i * t] += c
    return _ref_reduce(poly, n)


def _ref_at(v, n):
    """Coefficients of v written at conductor n, a multiple of v's."""
    return _ref_substitute(n, list(v.coeffs), n // v.conductor)


def _assert_canonical(v):
    assert len(v.nums) == euler_phi(v.conductor)
    assert all(type(c) is int for c in v.nums)
    assert type(v.den) is int and v.den >= 1
    assert gcd(v.den, *v.nums) == 1
    if not any(v.nums):
        assert v.den == 1
    assert all(isinstance(c, Fraction) for c in v.coeffs)
    back = Cyclotomic(v.conductor, v.coeffs)
    assert back == v
    assert (back.nums, back.den) == (v.nums, v.den)


def wide_cyclotomics(conductors=CONDUCTORS, nonzero=False):
    return cyclotomics(conductors, nonzero, max_num=99, max_den=36)


@given(wide_cyclotomics(), wide_cyclotomics())
@settings(max_examples=200, deadline=None)
def test_ring_operations_match_reference(a, b):
    n = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
    ra, rb = _ref_at(a, n), _ref_at(b, n)
    total, diff, prod = a + b, a - b, a * b
    for v in (total, diff, prod, -a):
        _assert_canonical(v)
    assert total.conductor == diff.conductor == n
    assert list(total.coeffs) == [x + y for x, y in zip(ra, rb)]
    assert list(diff.coeffs) == [x - y for x, y in zip(ra, rb)]
    assert _ref_at(prod, n) == _ref_mul(n, ra, rb)


@given(wide_cyclotomics(nonzero=True))
@settings(max_examples=200, deadline=None)
def test_inverse_matches_reference(a):
    b = a.inv()
    _assert_canonical(b)
    assert b.conductor == a.conductor
    one = [Fraction(1)] + [Fraction(0)] * (euler_phi(a.conductor) - 1)
    assert _ref_mul(a.conductor, list(a.coeffs), list(b.coeffs)) == one


@given(st.sampled_from((5, 8, 12, 15, 24)), st.data())
@settings(max_examples=150, deadline=None)
def test_galois_matches_reference(n, data):
    t = data.draw(st.sampled_from([t for t in range(1, n) if gcd(t, n) == 1]))
    a = data.draw(wide_cyclotomics(conductors=(n,)))
    image = a.galois(t)
    _assert_canonical(image)
    assert list(image.coeffs) == _ref_substitute(n, list(a.coeffs), t)
    _assert_canonical(a.conj())


@given(wide_cyclotomics(conductors=(1, 2, 3, 4, 5, 6)), st.sampled_from((1, 2, 3, 4, 5)))
@settings(max_examples=150, deadline=None)
def test_lift_matches_reference(a, k):
    m = a.conductor * k
    lifted = a.lift(m)
    _assert_canonical(lifted)
    assert lifted.conductor == m
    assert list(lifted.coeffs) == _ref_at(a, m)


@given(wide_cyclotomics(conductors=(1, 2, 3, 4, 6, 8, 12)), st.sampled_from((2, 3, 4, 6)),
       st.booleans(), wide_cyclotomics(conductors=(1, 2, 3, 5)), st.data())
@settings(max_examples=150, deadline=None)
def test_mixed_conductor_equality_matches_reference(a, k, perturb, c, data):
    # b is a written at a larger conductor by the reference, perhaps nudged.
    m = a.conductor * k
    coeffs = _ref_at(a, m)
    if perturb:
        i = data.draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] += data.draw(fractions().filter(bool))
    b = Cyclotomic(m, coeffs)
    assert (a == b) == (b == a) == (not perturb)
    for x, y in ((a, c), (c, b), (b, c + 0)):
        n = x.conductor * y.conductor // gcd(x.conductor, y.conductor)
        assert (x == y) == (_ref_at(x, n) == _ref_at(y, n))


def test_constructor_stores_canonical_form():
    v = Cyclotomic(4, ["2/4", Fraction(6, 4)])
    assert (v.nums, v.den) == ((1, 3), 2)
    assert v.coeffs == (Fraction(1, 2), Fraction(3, 2))
    for zero in (Cyclotomic(8, [0, 0, 0, 0]), v - v, rational(Fraction(0, 5), 12)):
        assert zero.nums == (0,) * euler_phi(zero.conductor) and zero.den == 1
    assert (rational(Fraction(-3, 6)).nums, rational(Fraction(-3, 6)).den) == ((-1,), 2)
    assert rational(Fraction(-2, 3), 5).inv() == rational(Fraction(-3, 2))


# Values at conductors 1, 4, 5, 8 and 20 over mixed denominators, rationals
# among them, one value written at two conductors, and the int and Fraction
# operands that are coerced.
PINNED_OPERANDS = (
    rational(Fraction(3, 4)), rational(Fraction(-2, 3), 4), Cyclotomic(4, ["1/2", "-1/6"]),
    Cyclotomic(5, [1, "2/3", 0, "-5/4"]), rational(0, 5), rational(Fraction(1, 6), 20),
    Cyclotomic(8, ["1/10", 0, "3/5", -1]), Cyclotomic(20, [1, 0, "1/4", 0, 0, "-2/9", 0, 3]),
    Cyclotomic(4, ["1/2", "-1/6"]).lift(20), 2, Fraction(-5, 6),
)


def _expected(n, coeffs):
    """(conductor, den, nums) of the canonical value with these coefficients at n."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    return n, den, tuple(int(c * den) for c in coeffs)


@pytest.mark.parametrize("a", PINNED_OPERANDS[:9])
@pytest.mark.parametrize("b", PINNED_OPERANDS)
def test_scalar_results_pin_conductor_den_and_nums(a, b):
    # + and - land at the lcm conductor; a rational factor whose conductor is
    # at most the other factor's keeps the other's conductor, even where it
    # does not divide it (a rational at 4 times a value at 5 stays at 5)
    c = b if isinstance(b, Cyclotomic) else rational(b, a.conductor)
    n = lcm(a.conductor, c.conductor)
    ra, rb = _ref_at(a, n), _ref_at(c, n)
    if c.is_rational() and c.conductor <= a.conductor:
        at, product = a.conductor, [c.rational_value * x for x in a.coeffs]
    elif a.is_rational() and a.conductor <= c.conductor:
        at, product = c.conductor, [a.rational_value * x for x in c.coeffs]
    else:
        at, product = n, _ref_mul(n, ra, rb)
    total = [x + y for x, y in zip(ra, rb)]
    for got, (m, want) in ((a + b, (n, total)), (b + a, (n, total)),
                           (a - b, (n, [x - y for x, y in zip(ra, rb)])),
                           (b - a, (n, [y - x for x, y in zip(ra, rb)])),
                           (a * b, (at, product)), (b * a, (at, product))):
        assert type(got) is Cyclotomic
        assert (got.conductor, got.den, got.nums) == _expected(m, want)
    assert (a == b) == (b == a) == (ra == rb)


def test_a_rational_factor_at_4_keeps_a_value_at_5_at_5():
    v = Cyclotomic(5, [1, "2/3", 0, "-5/4"])
    for q in (rational(Fraction(-2, 3), 4), rational(Fraction(-2, 3), 5)):
        for got in (q * v, v * q):
            assert (got.conductor, got.den, got.nums) == (5, 18, (-12, -8, 0, 15))


# -- the packed kernel against plain accumulation ----------------------------
#
# Every expected value is accumulated in the test from the Fraction reference
# above, term by term, at the lcm conductor of the operands.

BIG = 2**64 + 3  # numerators above one machine word


@st.composite
def kernel_values(draw, conductors):
    """Zero, random or extremal values: numerators up to 3 * 2^65 in size, or
    every numerator equal to +-top, which makes the middle slot of a product
    of such vectors reach the bound exactly."""
    n = draw(st.sampled_from(conductors))
    k = euler_phi(n)
    top = draw(st.sampled_from((1, 8, 127, 2**31, BIG, 3 * 2**65)))
    shape = draw(st.sampled_from(("zero", "random", "extremal")))
    if shape == "zero":
        nums = [0] * k
    elif shape == "random":
        nums = draw(st.lists(st.integers(-top, top), min_size=k, max_size=k))
    else:
        nums = [draw(st.sampled_from((top, -top)))] * k
    return Cyclotomic(n, [Fraction(c, draw(st.sampled_from((1, 1, 3, 10)))) for c in nums])


def _ref_sum(n, products):
    """sum over `products` (tuples of values) of their product, by the reference."""
    total = [Fraction(0)] * euler_phi(n)
    for factors in products:
        acc = [Fraction(1)] + [Fraction(0)] * (euler_phi(n) - 1)
        for v in factors:
            acc = _ref_mul(n, acc, _ref_at(v, n))
        total = [x + y for x, y in zip(total, acc)]
    return Cyclotomic(n, total)


def _kernel_conductors(draw):
    return (1, 3, 4, draw(st.sampled_from((5, 8, 12))))


@st.composite
def numerator_pairs(draw):
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 8, 12)))
    k = euler_phi(n)
    top = draw(st.sampled_from((1, 8, 2**31, BIG, 3 * 2**65)))
    vector = st.one_of(
        st.lists(st.integers(-top, top), min_size=k, max_size=k),
        st.sampled_from(([top] * k, [-top] * k, [0] * k)),
    )
    return n, draw(vector), draw(vector)


@given(numerator_pairs())
@settings(max_examples=150, deadline=None)
@example((3, [8, 8], [8, 8]))  # middle slot 128 = the bound: a 9-bit slot
@example((8, [3 * 2**65] * 4, [-3 * 2**65] * 4))  # the bound has 136 bits
def test_packed_product_matches_reference(case):
    n, xs, ys = case
    assert _mul_nums(n, xs, ys) == _ref_mul(n, xs, ys)


@st.composite
def matmul_cases(draw):
    values = kernel_values(_kernel_conductors(draw))
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))
    a = [[draw(values) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(values) for _ in range(cols)] for _ in range(inner)]
    return a, b


def _constant(n, top):
    return Cyclotomic(n, [top] * euler_phi(n))


# Tight cases: constant +-top vectors whose sum of T = 2 products puts the
# bound B = T phi top^2 of the module docstring in the middle slot, with
# bitlen(B) = 72.  The least width is then 10 bytes, and a bound without the
# factor T or phi, or a slot one bit short, gives 9 bytes, where B overflows.
TIGHT3 = 2**35 - 1  # at conductor 3: B = 2 * 2 * TIGHT3^2
TIGHT8 = 2**34  # at conductor 8: B = 2 * 4 * TIGHT8^2 = 2^71


@given(matmul_cases())
@settings(max_examples=80, deadline=None)
@example(([[_constant(3, TIGHT3)] * 2], [[_constant(3, TIGHT3)]] * 2))
@example(([[_constant(8, TIGHT8)] * 2], [[_constant(8, -TIGHT8)]] * 2))
# phi = 1, negative entries, slots at a byte boundary: B = 2 * 127^2 has 15
# bits, so 2-byte slots hold -B exactly, below a zero slot; B = 2 * 128^2 =
# 2^15 needs 3 bytes (so 4), and a slot one bit short overflows at +B
@example(([[rational(127)] * 2], [[rational(-127), rational(127)]] + [[rational(-127)] * 2]))
@example(([[rational(128)] * 2], [[rational(128), rational(-128)]] * 2))
def test_matmul_matches_plain_accumulation(case):
    """CycloMatrix.@, the row routine behind it (_products on vectors at
    their own conductors) and matmul_nums against a sum of reference
    products; then the kernel on operands packed once: the columns, packed
    at the width for the widest rows, serve every row, every leading run of
    columns, and rows formed as pointwise products and packed apart."""
    a, b = case
    n = lcm(*(v.conductor for row in a + b for v in row))
    product = (CycloMatrix(a) @ CycloMatrix(b)).rows
    rows = _products(_Vector, [_Vector(r) for r in a], [_Vector(c) for c in zip(*b)])
    assert [v.coeffs for v in rows] == list(product)
    assert [len(r) for r in product] == [len(b[0])] * len(a)
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            assert product[i][j] == _ref_sum(n, [(x, b[r][j]) for r, x in enumerate(row)])

    phi = euler_phi(n)
    xs = _family(list(map(_Vector, a)), n)[2]
    ys = _family([_Vector(c) for c in zip(*b)], n)[2]
    full = matmul_nums(n, xs, ys)
    squares = [pointwise_nums(n, x, x) for x in xs]
    w = _width(len(b), max(_top(xs), _top(squares)), _top(ys, phi))
    columns = _packed(n, ys, w, True)
    for count in range(1, len(ys) + 1):
        assert _matmul(n, _packed(n, xs, w), columns, w, count) == [r[:count * phi] for r in full]
    assert _matmul(n, _packed(n, squares, w), columns, w, len(ys)) == matmul_nums(n, squares, ys)



@st.composite
def triple_cases(draw):
    values = kernel_values(_kernel_conductors(draw))
    rank = draw(st.integers(1, 4))
    rows = [[draw(values) for _ in range(rank)] for _ in range(rank)]
    return rows, [draw(values) for _ in range(rank)]


@given(triple_cases())
@settings(max_examples=60, deadline=None)
# phi = 1, x_j into the rows: at j = 1 the slot bound needs the larger
# column, |y_1|_1 = 127, not |y_0|_1 = 1; 2 * 127^3 overflows 2-byte slots
@example(([[rational(1)] * 2, [rational(127)] * 2], [rational(1)] * 2))
# phi = 2, x_0 into the column at j = 0: the bound needs the largest row
# i >= 0, 2^20, not row 0; 3 * 2^20 overflows 1-byte slots
@example(([[rational(1, 3)] * 3] + [[rational(2**20)] * 3] * 2, [rational(1)] * 3))
def test_triple_sums_match_plain_accumulation(case):
    """triple_sums against the reference sums over r of x_ir x_jr x_kr w_r,
    for each j on the rows i >= j and the columns k <= j."""
    x, weights = case
    rank = len(x)
    n = lcm(*(v.conductor for v in weights + [v for row in x for v in row]))
    n, dx, rows = _family(list(map(_Vector, x)), n)
    n, dw, (w,) = _family([_Vector(weights)], n)
    phi = euler_phi(n)
    got = list(triple_sums(n, rows, w))
    assert [len(sums) for sums in got] == [rank - j for j in range(rank)]
    for j, sums in enumerate(got):
        for i, row in enumerate(sums, j):
            assert len(row) == (j + 1) * phi
            for k in range(j + 1):
                want = _ref_sum(n, [(x[i][r], x[j][r], x[k][r], weights[r]) for r in range(rank)])
                assert _make(n, row[k * phi:(k + 1) * phi], dx ** 3 * dw) == want


# -- descent to the least field ------------------------------------------------


def _least_field_by_galois(values, n):
    """The least m dividing n such that every sigma_t with t = 1 mod m fixes
    every value: the Galois group of Q(zeta_n) over Q(zeta_m)."""
    return min(
        m for m in range(1, n + 1) if n % m == 0 and all(
            v.galois(t) == v for v in values for t in range(1, n, m) if gcd(t, n) == 1
        )
    )


@pytest.mark.parametrize("n", (8, 12, 15, 16, 20, 28, 30, 36, 44))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_least_field_matches_the_galois_oracle_and_round_trips(n, data):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    drawn = data.draw(st.lists(cyclotomics(divisors), min_size=1, max_size=3))
    values = [v.lift(n) for v in drawn]
    m, nums = least_field(values, n)
    assert m == _least_field_by_galois(values, n)
    for v, x in zip(values, nums):
        back = _make(m, x, v.den).lift(n)
        assert (back.nums, back.den) == (v.nums, v.den)


def test_an_odd_power_of_zeta_16_keeps_conductor_16():
    one, z = rational(1, 16), zeta(16, 3)
    s = CycloMatrix([[one, z], [z, -one]])
    assert least_field([v for row in s.rows for v in row], 16)[0] == 16
    assert s.descended() is s
    even = CycloMatrix([[one, zeta(16, 6)], [zeta(16, 6), -one]]).descended()
    assert even.conductor == 8 and even.rows[0][1].nums == zeta(8, 3).nums
