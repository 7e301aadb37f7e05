"""Class functions, central elements, cointegrals, Fourier and Drinfeld maps,
conjugacy data.  The frozen numbers below were derived once by hand from the
defining formulas and pinned."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import replaced

from fusioncat import (
    CategoryInput,
    CentralElement,
    CharacterAlgebra,
    ClassFunction,
    catalog_get,
    catalog_input,
    catalog_names,
)
from fusioncat import charalg
from fusioncat.category import (
    _law_witness, _sparse_rows, assemble_category, build_category, category_to_input,
    input_to_json, parse_category,
)
from fusioncat.cyclotomic import (
    CycloMatrix, Cyclotomic, _family, _Vector, euler_phi, rational, zeta,
)
from fusioncat.errors import CapabilityError, InternalConsistencyError
from fusioncat.lattice import kernel_of_object

GOLDEN = -zeta(5, 2) - zeta(5, 3)


def frac_vectors(rank):
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.lists(entry, min_size=rank, max_size=rank)


# -- products in the two algebras ---------------------------------------------


def test_character_product_toric(algs):
    alg = algs["toric_code"]
    # e x m = f in the fusion ring
    assert alg.cf_mul(alg.character(1), alg.character(2)) == alg.character(3)
    assert alg.cf_mul(alg.character(1), alg.character(1)) == alg.character(0)


def test_character_product_fibonacci(algs):
    alg = algs["fibonacci"]
    # tau^2 = 1 + tau
    assert alg.cf_mul(alg.character(1), alg.character(1)) == alg.character(
        0
    ) + alg.character(1)


def test_central_elements_multiply_pointwise(algs):
    alg = algs["toric_code"]
    a = CentralElement((rational(1), rational(2), rational(0), rational(3)))
    b = CentralElement((rational(5), rational(1), rational(7), rational(2)))
    assert alg.ce_mul(a, b) == CentralElement(
        (rational(5), rational(2), rational(0), rational(6))
    )


def test_primitive_idempotents(algs):
    for name in ("toric_code", "fibonacci", "ising"):
        alg = algs[name]
        for i in range(alg.rank):
            ei = alg.idempotent(i)
            assert alg.ce_mul(ei, ei) == ei
            for j in range(i + 1, alg.rank):
                assert alg.ce_mul(ei, alg.idempotent(j)) == alg.ce_zero()


def test_pairing_dual_bases(algs):
    for name in ("toric_code", "fibonacci", "vec_z6"):
        alg = algs[name]
        for i in range(alg.rank):
            for j in range(alg.rank):
                expected = alg.dims[i] if i == j else rational(0)
                assert alg.pairing(alg.character(i), alg.idempotent(j)) == expected


def test_trace_reads_unit_coefficient(algs):
    alg = algs["toric_code"]
    f = ClassFunction((rational(7), rational(1), rational(2), rational(3)))
    assert alg.trace(f) == rational(7)


def test_antipode_duality(algs):
    for name in ("toric_code", "ising", "vec_z5"):
        alg = algs[name]
        for i in range(alg.rank):
            assert alg.antipode(alg.character(i)) == alg.character(alg.dual[i])
        a = alg.antipode(alg.antipode(alg.integral()))
        assert a == alg.integral()


# -- cointegral -----------------------------------------------------------------


def test_cointegral_toric(algs):
    lam = algs["toric_code"].cointegral()
    q = Fraction(1, 4)
    assert lam == ClassFunction(tuple(rational(q) for _ in range(4)))


def test_cointegral_absorbs_characters(algs):
    # chi_j * lambda = d_j lambda, the regular-representation property
    for name in catalog_names():
        alg = algs[name]
        lam = alg.cointegral()
        for j in range(alg.rank):
            assert alg.cf_mul(alg.character(j), lam) == lam.scaled(alg.dims[j])


def test_subcategory_cointegral_ising(algs):
    alg = algs["ising"]
    lam = alg.cointegral((0, 2))  # the {1, psi} subcategory
    half = rational(Fraction(1, 2))
    assert lam == ClassFunction((half, rational(0), half))
    assert alg.cf_mul(lam, lam) == lam


# -- Fourier transform, both directions ------------------------------------------


def test_fourier_of_idempotents(algs):
    # F(E_i) = (d_i / dim C) chi_{i*}
    for name in ("toric_code", "fibonacci", "ising"):
        alg = algs[name]
        for i in range(alg.rank):
            got = alg.fourier(alg.idempotent(i))
            expected = alg.character(alg.dual[i]).scaled(alg.dims[i] * alg.dim.inv())
            assert got == expected


@pytest.mark.parametrize("name", ["toric_code", "ising", "fibonacci", "vec_z8"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_fourier_roundtrip_random(name, data, algs):
    alg = algs[name]
    coeffs = tuple(rational(q) for q in data.draw(frac_vectors(alg.rank)))
    f = ClassFunction(coeffs)
    assert alg.fourier(alg.fourier_inv(f)) == f
    a = CentralElement(coeffs)
    assert alg.fourier_inv(alg.fourier(a)) == a


# -- cf_mul against plain Cyclotomic arithmetic -----------------------------------


def _bilinear_reference(f, g, table):
    """sum over i, j of f_i g_j t chi_k, (k, t) in table[i][j], by Cyclotomic
    + and * one term at a time."""
    acc = [rational(0) for _ in f]
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            for k, t in table[i][j]:
                acc[k] = acc[k] + fi * gj * t
    return acc


@st.composite
def mixed_vectors(draw, rank, n):
    """Class-function coefficients: all zero, all rational, or each entry
    zero, rational, at the category's conductor n, or at conductor 3 or 4."""
    kind = draw(st.sampled_from(("zero", "rational", "mixed")))
    coeffs = []
    for _ in range(rank):
        if kind == "mixed":
            m = draw(st.sampled_from((0, 1, n, 3, 4)))
        else:
            m = 0 if kind == "zero" else 1
        coeffs.append(
            rational(0, n)
            if m == 0
            else Cyclotomic(m, draw(frac_vectors(euler_phi(m))))
        )
    return ClassFunction(tuple(coeffs))


@pytest.mark.parametrize("name", ["toric_code", "fibonacci", "ising", "vec_z6", "vec_z8"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_cf_mul_matches_plain_arithmetic(name, data, algs):
    alg = algs[name]
    n = alg.data.dims[0].conductor
    f = data.draw(mixed_vectors(alg.rank, n))
    g = data.draw(mixed_vectors(alg.rank, n))
    got = alg.cf_mul(f, g)
    assert type(got) is ClassFunction
    assert list(got.coeffs) == _bilinear_reference(
        f.coeffs, g.coeffs, alg.data.nonzero
    )


def test_integral_is_unit_block_idempotent(algs):
    for name in ("toric_code", "fibonacci"):
        alg = algs[name]
        ell = alg.integral()
        assert ell == alg.idempotent(0)
        # two-sided absorption: x ell = (coefficient of x at the unit block) ell
        a = CentralElement(tuple(rational(k + 1) for k in range(alg.rank)))
        assert alg.ce_mul(a, ell) == ell.scaled(a.coeffs[0])


# -- Drinfeld map ------------------------------------------------------------------


def test_drinfeld_on_characters_toric(algs):
    alg = algs["toric_code"]
    # rows of s divided by dims, read as central-element coefficients
    assert alg.drinfeld(alg.character(1)) == CentralElement(
        (rational(1), rational(1), rational(-1), rational(-1))
    )


def test_drinfeld_multiplicative(algs):
    for name in ("toric_code", "ising", "fibonacci"):
        alg = algs[name]
        for i in range(alg.rank):
            for j in range(alg.rank):
                lhs = alg.drinfeld(alg.cf_mul(alg.character(i), alg.character(j)))
                rhs = alg.ce_mul(
                    alg.drinfeld(alg.character(i)), alg.drinfeld(alg.character(j))
                )
                assert lhs == rhs


def test_transparent_members(algs):
    assert algs["toric_code"].transparent_members() == (0,)
    assert algs["fibonacci"].transparent_members() == (0,)
    assert algs["ising"].transparent_members() == (0,)
    assert algs["trivial"].transparent_members() == (0,)


def test_drinfeld_needs_s_matrix():
    from fusioncat.errors import CapabilityError

    inp = category_to_input(catalog_get("toric_code"), kind="fusion_ring")
    alg = CharacterAlgebra(build_category(inp))
    with pytest.raises(CapabilityError):
        alg.drinfeld(alg.character(1))


# -- conjugacy data -----------------------------------------------------------------


def test_class_sizes_and_sums_toric(algs):
    conj = algs["toric_code"].conjugacy()
    assert all(s == rational(1) for s in conj.sizes)
    assert all(n == rational(4) for n in conj.multiplicities)
    assert conj.class_sums[1] == CentralElement(
        (rational(1), rational(1), rational(-1), rational(-1))
    )


def test_class_sizes_fibonacci(algs):
    conj = algs["fibonacci"].conjugacy()
    assert conj.sizes[0] == rational(1)
    assert conj.sizes[1] == GOLDEN + 1
    assert conj.multiplicities[0] == algs["fibonacci"].dim


def test_conjugacy_idempotents_orthogonal(algs):
    for name in ("toric_code", "ising", "fibonacci", "vec_z6"):
        alg = algs[name]
        conj = alg.conjugacy()
        for i in range(alg.rank):
            for j in range(alg.rank):
                prod = alg.cf_mul(conj.idempotents[i], conj.idempotents[j])
                assert prod == (conj.idempotents[i] if i == j else alg.cf_zero())


def test_conjugacy_idempotents_complete(algs):
    for name in ("toric_code", "ising", "fibonacci"):
        alg = algs[name]
        conj = alg.conjugacy()
        total = alg.cf_zero()
        for f in conj.idempotents:
            total = total + f
        unit = [rational(0)] * alg.rank
        unit[0] = rational(1)
        assert total == ClassFunction(tuple(unit))


def test_conjugacy_from_char_table_matches_modular(algs):
    # the character-table route (dimension column first, then the same
    # codegree formula) must agree with the s-matrix route
    for name in ("toric_code", "ising", "fibonacci"):
        modular = algs[name]
        inp = category_to_input(catalog_get(name), kind="fusion_ring")
        ringside = CharacterAlgebra(build_category(inp))
        a, b = modular.conjugacy(), ringside.conjugacy()
        assert a.sizes == b.sizes
        assert a.class_sums == b.class_sums
        assert a.idempotents == b.idempotents


@pytest.mark.parametrize("name", ["toric_code", "ising", "fibonacci", "vec_z4"])
def test_conjugacy_from_permuted_char_table(name, algs):
    # with the dimension column moved last, class c still comes from the
    # table column behind it, so the classes are the modular ones
    inp = category_to_input(catalog_get(name), kind="fusion_ring")
    rows = [row[1:] + row[:1] for row in inp.char_table.rows]
    inp = replaced(inp, char_table=CycloMatrix(rows))
    got = CharacterAlgebra(build_category(inp)).conjugacy()
    want = algs[name].conjugacy()
    rank = len(rows)
    assert got.column_order == (rank - 1, *range(rank - 1))
    assert got.alpha == want.alpha
    assert got.idempotents == want.idempotents
    assert got.class_sums == want.class_sums
    assert got.sizes == want.sizes


@pytest.mark.parametrize("kind", ["modular", "fusion_ring"])
def test_conjugacy_takes_no_inverse_and_no_class_function_product(kind, algs, monkeypatch):
    data = catalog_get("ising")
    if kind == "fusion_ring":
        data = build_category(category_to_input(data, kind="fusion_ring"))
    alg = CharacterAlgebra(data)

    def forbidden(*args):
        raise AssertionError("conjugacy() is certified by one matmul")

    monkeypatch.setattr(CycloMatrix, "inverse", forbidden)
    alg.cf_mul = forbidden
    assert alg.conjugacy().sizes == algs["ising"].conjugacy().sizes


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # class 2 reads (1, 1, 1, -1) on (1, e, m, f): squares map to 1, but
        # e m = f while 1 * 1 != -1, so the first failing pair is (1, 2)
        ("non-character", r"class 2 is not a character at \(1, 2\)"),
        ("repeated-column", r"do not invert alpha at \(2, 3\)"),
    ],
    ids=["non-character", "repeated-column"],
)
def test_conjugacy_rejects_a_table_of_non_characters(corrupt, message):
    inp = category_to_input(catalog_get("toric_code"), kind="fusion_ring")
    if corrupt == "non-character":
        rows = [
            row[:2] + (rational(v),) + row[3:]
            for row, v in zip(inp.char_table.rows, (1, 1, 1, -1))
        ]
    else:
        rows = [row[:3] + row[2:3] for row in inp.char_table.rows]
    inp = replaced(inp, char_table=CycloMatrix(rows))
    alg = CharacterAlgebra(assemble_category(inp))  # no validation
    with pytest.raises(InternalConsistencyError, match=message):
        alg.conjugacy()


def _count_laws(monkeypatch, allowed=True) -> list:
    calls = []

    def counted(*args):
        if not allowed:
            raise AssertionError("validation's certificate proves every law here")
        calls.append(args[0])
        return _law_witness(*args)

    monkeypatch.setattr(charalg, "_law_witness", counted)
    return calls


@pytest.mark.parametrize("name", catalog_names())
def test_valid_modular_input_runs_no_fusion_law_after_validation(name, monkeypatch):
    _count_laws(monkeypatch, allowed=False)
    alg = CharacterAlgebra(catalog_get(name))
    alg.conjugacy()
    assert [c.status for c in alg.identity_suite()] == ["pass"] * len(SUITE_IDS)


def test_conjugacy_runs_the_law_on_rules_the_certificate_does_not_name(monkeypatch):
    calls = _count_laws(monkeypatch)
    data = catalog_get("toric_code")
    copied = replaced(data, fusion=tuple(plane for plane in data.fusion))
    uncertified = replaced(data, certified=None)
    for same in (copied, uncertified):
        CharacterAlgebra(same).conjugacy()
    assert len(calls) == 2
    # Z/4 fusion rules under the toric code s-matrix: chi_1^2 = chi_2, but the
    # row of chi_1 squares to 1 while the row of chi_2 is (1, -1, 1, -1)
    z4 = tuple(tuple(tuple(int(k == (i + j) % 4) for k in range(4)) for j in range(4))
               for i in range(4))
    swapped = replaced(data, fusion=z4)
    assert swapped.nonzero == _sparse_rows(z4) != data.nonzero  # its own rules, never data's
    alg = CharacterAlgebra(swapped)
    with pytest.raises(InternalConsistencyError, match=r"class 1 is not a character at \(1, 1\)"):
        alg.conjugacy()
    assert len(calls) == 3


def test_conjugacy_checks_the_law_on_data_assembled_without_a_certificate(monkeypatch):
    # the Ising s-matrix with columns 1 and 2 swapped: the Verlinde sum runs
    # over the columns in any order, so the fusion rules are Ising's and the
    # columns are still characters, but s is no longer symmetric
    calls = _count_laws(monkeypatch)
    inp = catalog_input("ising")
    rows = [(a, c, b) for a, b, c in inp.s_matrix.rows]
    data = assemble_category(replaced(inp, s_matrix=CycloMatrix(rows)))  # no validation
    assert data.certified is None and data.fusion == catalog_get("ising").fusion
    CharacterAlgebra(data).conjugacy()
    assert len(calls) == 1


@pytest.mark.parametrize("move", [0, 1])
def test_ring_input_proves_the_character_law_once(move, monkeypatch):
    # validation checks the table's columns against the fusion rules, and
    # conjugacy() reads that result through CategoryData.certified, also when
    # it moves the dimension column from the end of the table to the front
    inp = category_to_input(catalog_get("ising"), kind="fusion_ring")
    if move:
        rows = [row[1:] + row[:1] for row in inp.char_table.rows]
        inp = replaced(inp, char_table=CycloMatrix(rows))
    calls = _count_laws(monkeypatch)
    data = build_category(inp)
    assert data.certified is data.fusion
    assert CharacterAlgebra(data).conjugacy().column_order[0] == (2 if move else 0)
    assert calls == []
    # without the certificate the law runs, once
    CharacterAlgebra(replaced(data, certified=None)).conjugacy()
    assert len(calls) == 1


def _fourier_verdicts(alg):
    """fourier-roundtrip and fourier-action-consistency, one basis vector at a time."""
    lam, basis = alg.cointegral(), range(alg.rank)
    return (
        all(alg.fourier_inv(alg.fourier(alg.idempotent(i))) == alg.idempotent(i)
            and alg.fourier(alg.fourier_inv(alg.character(i))) == alg.character(i) for i in basis),
        all(alg.fourier(alg.idempotent(i)) == alg.act_arrow(lam, alg.antipode(alg.idempotent(i)))
            for i in basis),
    )


@pytest.mark.parametrize("corrupt", ["none", "fourier weight", "inverse weight", "duality"])
@pytest.mark.parametrize("name", ["fibonacci", "ising", "toric_code", "vec_z4"])
def test_fourier_checks_on_the_stacked_basis_match_each_basis_vector(name, corrupt):
    alg = CharacterAlgebra(catalog_get(name))
    one = alg._basis(_Vector, (1,))
    if corrupt == "fourier weight":
        alg._fourier_weights = alg._fourier_weights + one
    elif corrupt == "inverse weight":
        alg._fourier_inv_weights = alg._fourier_inv_weights + one
    elif corrupt == "duality":  # a permutation of the objects that is not the duality
        alg.dual = alg.dual[1:] + alg.dual[:1]

    def no_classes():
        raise CapabilityError("the first block only")

    alg.conjugacy = no_classes
    checks = {c.check_id: c.status == "pass" for c in alg.identity_suite()}
    want = _fourier_verdicts(alg)
    assert (checks["fourier-roundtrip"], checks["fourier-action-consistency"]) == want
    if corrupt == "none":
        assert want == (True, True)
    elif corrupt != "duality":  # a changed weight breaks the roundtrip at its coordinate
        assert not want[0]


def test_conjugacy_rejects_non_commutative_fusion_rules():
    # Vec(S_3): L_g L_h = L_gh, and the transpositions 1 and 2 do not commute
    group = list(permutations(range(3)))
    fusion = tuple(
        tuple(
            tuple(int(group[k] == tuple(g[x] for x in h)) for k in range(6))
            for h in group
        )
        for g in group
    )
    one, zero = rational(1), rational(0)
    inp = CategoryInput(
        name="vec_s3", conductor=1, labels=tuple("abcdef"),
        fusion=fusion, dims=(one,) * 6,
        char_table=CycloMatrix([[one] + [zero] * 5] * 6),
    )
    alg = CharacterAlgebra(assemble_category(inp))
    with pytest.raises(InternalConsistencyError, match=r"do not commute at \(1, 2\)"):
        alg.conjugacy()


def test_class_sum_product_toric(algs):
    p = algs["toric_code"].class_sum_product(1, 2)
    assert p.constants == (rational(0), rational(0), rational(0), rational(1))
    assert p.all_rational


def test_class_sum_product_fibonacci_irrational(algs):
    p = algs["fibonacci"].class_sum_product(1, 1)
    assert p.constants[0] == GOLDEN + 1
    assert p.constants[1] == GOLDEN
    assert p.rational_flags == (False, False)
    assert not p.all_rational


@pytest.mark.parametrize("call", [
    lambda alg, i: alg.character(i),
    lambda alg, i: alg.idempotent(i),
    lambda alg, i: alg.class_sum_product(i, 0),
    lambda alg, i: alg.class_sum_product(0, i),
    lambda alg, i: kernel_of_object(alg, i),
], ids=["character", "idempotent", "class_sum_product_i", "class_sum_product_j",
        "kernel_of_object"])
@pytest.mark.parametrize("index", [-1, 2])
def test_object_index_out_of_range_is_a_key_error(call, index, algs):
    # fibonacci has rank 2: -1 used to wrap round to tau, 2 to raise IndexError
    with pytest.raises(KeyError, match=f"no simple object with index {index}"):
        call(algs["fibonacci"], index)


@pytest.mark.parametrize("name", ["toric_code", "ising", "fibonacci", "vec_z4"])
def test_class_sum_product_matches_closed_form(name, algs):
    # c_ij^l = d_i d_j N_ij^l / d_l at every l, zero or not
    alg = algs[name]
    d, fusion = alg.dims, alg.data.fusion
    for i in range(alg.rank):
        for j in range(alg.rank):
            want = tuple(
                d[i] * d[j] * d[l].inv() * fusion[i][j][l] for l in range(alg.rank)
            )
            p = alg.class_sum_product(i, j)
            assert p.constants == want
            assert p.rational_flags == tuple(c.is_rational() for c in want)


# -- the full identity suite ---------------------------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_identity_suite_passes(name, algs):
    checks = algs[name].identity_suite()
    failed = [c.check_id for c in checks if c.status == "fail"]
    skipped = [c.check_id for c in checks if c.status == "skip"]
    assert failed == []
    assert skipped == []  # every catalog entry is modular, nothing is gated


def test_identity_suite_fusion_ring_skips():
    inp = category_to_input(catalog_get("toric_code"), kind="fusion_ring")
    alg = CharacterAlgebra(build_category(inp))
    checks = alg.identity_suite()
    by_id = {c.check_id: c.status for c in checks}
    assert by_id["idempotent-orthogonality"] == "pass"  # char table is enough
    assert by_id["drinfeld-class-sum"] == "skip"
    assert by_id["class-size-dim-square"] == "skip"
    assert not any(s == "fail" for s in by_id.values())


def test_identity_suite_reports_first_witness():
    # doubling the Drinfeld characters once conjugacy data is built breaks
    # drinfeld multiplicativity at every pair; the report names the first one
    alg = CharacterAlgebra(catalog_get("toric_code"))
    alg.conjugacy()
    alg._drinfeld_characters = tuple(e.scaled(2) for e in alg._drinfeld_characters)
    checks = {c.check_id: c for c in alg.identity_suite()}
    law = checks["drinfeld-multiplicative"]
    assert (law.status, law.detail) == (
        "fail",
        "drinfeld map not multiplicative at (0, 0)",
    )


def test_class_sum_algebra_reports_first_witness():
    # doubled scaled class sums break every class-sum product; the report
    # names the first pair
    alg = CharacterAlgebra(catalog_get("toric_code"))
    alg._scaled_class_sums = tuple(y.scaled(2) for y in alg._scaled_class_sums)
    checks = {c.check_id: c for c in alg.identity_suite()}
    law = checks["class-sum-algebra"]
    assert (law.status, law.detail) == (
        "fail",
        "class sum product (0, 0) does not match its expansion",
    )


SUITE_IDS = (
    "cointegral-normalized",
    "fourier-roundtrip",
    "fourier-action-consistency",
    "idempotent-orthogonality",
    "idempotent-complete",
    "class-size-pairing",
    "dual-bases-exchange",
    "char-table-class-pairing",
    "class-sum-expansion",
    "second-orthogonality",
    "integral-image",
    "char-table-symmetry",
    "drinfeld-class-sum",
    "counit-dimension",
    "transparent-cointegral-unit",
    "class-size-dim-square",
    "class-sum-algebra",
    "drinfeld-multiplicative",
    "drinfeld-idempotent-match",
)


def _corrupt(conj, what):
    """ConjugacyData with one entry of class 1 broken; the rest, the
    multiplicities included, left as they are."""
    sums, sizes = list(conj.class_sums), list(conj.sizes)
    if what == "class sum x2":
        sums[1] = sums[1].scaled(2)
    elif what == "size +1":
        sizes[1] = sizes[1] + 1
    elif what == "alpha entry +1":
        rows = [list(row.coeffs) for row in conj.alpha]
        rows[1][-1] = rows[1][-1] + 1
        return replaced(conj, alpha=tuple(type(r)(tuple(x)) for r, x in zip(conj.alpha, rows)))
    else:  # "class-sum entry +1"
        coeffs = list(sums[1].coeffs)
        coeffs[-1] = coeffs[-1] + 1
        sums[1] = CentralElement(tuple(coeffs))
    return replaced(conj, class_sums=tuple(sums), sizes=tuple(sizes))


RATIONAL = ("pass", "all structure constants rational")
IRRATIONAL = ("pass", "verified; some constants irrational")
PRODUCT_11 = ("fail", "class sum product (1, 1) does not match its expansion")

# Every check that does not read ("pass", "") after the corruption, pinned
# from the suite as it stood before the fusion-law checks shared one pass:
# what a corruption does on every entry, then what it does on each.
COMMON = {
    "class sum x2": {
        "class-size-pairing": ("fail", "<F_i, cbar_j> wrong at (1, 1)"),
        "char-table-class-pairing": ("fail", "alpha_ij != <chi_i, cbar_j>/|C^j| at (0, 1)"),
        "class-sum-expansion": ("fail", "cbar_i expansion wrong at (1, 0)"),
        "drinfeld-class-sum": ("fail", "drinfeld(chi_i) != (d_i/|C^i|) cbar_i at i=1"),
        "class-sum-algebra": PRODUCT_11,
    },
    "size +1": {
        "class-size-pairing": ("fail", "<F_i, cbar_j> wrong at (1, 1)"),
        "char-table-class-pairing": ("fail", "alpha_ij != <chi_i, cbar_j>/|C^j| at (0, 1)"),
        "class-sum-expansion": ("fail", "cbar_i expansion wrong at (1, 0)"),
        "second-orthogonality": ("fail", "column orthogonality wrong at (1, 1)"),
        "drinfeld-class-sum": ("fail", "drinfeld(chi_i) != (d_i/|C^i|) cbar_i at i=1"),
        "class-size-dim-square": ("fail", "|C^j| != d_j^2 at [1]"),
    },
    "alpha entry +1": {},
    "class-sum entry +1": {
        "class-size-pairing": ("fail", "<F_i, cbar_j> wrong at (0, 1)"),
        "drinfeld-class-sum": ("fail", "drinfeld(chi_i) != (d_i/|C^i|) cbar_i at i=1"),
        "class-sum-algebra": PRODUCT_11,
    },
}
RANK3 = {  # ising and vec_z3 read alike
    "class sum x2": {},
    "size +1": {"class-sum-algebra": RATIONAL},
    "alpha entry +1": {
        "char-table-class-pairing": ("fail", "alpha_ij != <chi_i, cbar_j>/|C^j| at (1, 2)"),
        "class-sum-expansion": ("fail", "cbar_i expansion wrong at (2, 1)"),
        "second-orthogonality": ("fail", "column orthogonality wrong at (0, 2)"),
        "char-table-symmetry": ("fail", "d_j alpha_ij != d_i alpha_ji at (1, 2)"),
        "class-sum-algebra": RATIONAL,
    },
    "class-sum entry +1": {
        "char-table-class-pairing": ("fail", "alpha_ij != <chi_i, cbar_j>/|C^j| at (2, 1)"),
        "class-sum-expansion": ("fail", "cbar_i expansion wrong at (1, 2)"),
    },
}
PER_ENTRY = {
    "fibonacci": {
        "class sum x2": {},
        "size +1": {"class-sum-algebra": IRRATIONAL},
        "alpha entry +1": {
            "char-table-class-pairing": ("fail", "alpha_ij != <chi_i, cbar_j>/|C^j| at (1, 1)"),
            "class-sum-expansion": ("fail", "cbar_i expansion wrong at (1, 1)"),
            "second-orthogonality": ("fail", "column orthogonality wrong at (0, 1)"),
            "class-sum-algebra": IRRATIONAL,
        },
        "class-sum entry +1": {
            "char-table-class-pairing": ("fail", "alpha_ij != <chi_i, cbar_j>/|C^j| at (1, 1)"),
            "class-sum-expansion": ("fail", "cbar_i expansion wrong at (1, 1)"),
        },
    },
    "ising": RANK3,
    "vec_z3": RANK3,
}


@pytest.mark.parametrize("name", list(PER_ENTRY))
@pytest.mark.parametrize("what", list(COMMON))
def test_identity_suite_on_corrupted_conjugacy_data(name, what):
    alg = CharacterAlgebra(catalog_get(name))
    alg._conjugacy = _corrupt(alg.conjugacy(), what)
    deviations = {
        "transparent-cointegral-unit": ("pass", "transparent objects: [0]"),
        **COMMON[what],
        **PER_ENTRY[name][what],
    }
    want = [(cid, *deviations.get(cid, ("pass", ""))) for cid in SUITE_IDS]
    got = [(c.check_id, c.status, c.detail) for c in alg.identity_suite()]
    assert got == want


# -- flat integer vectors and the fusion-law routine against plain Cyclotomic ----

BIG = 2**70


@st.composite
def wide_coeffs(draw, rank, n):
    """Coordinates all zero, or each zero or at conductor 1, 2, 3, 4 or n, with
    numerators and denominators up to 2^70."""
    mixed = draw(st.booleans())
    coeffs = []
    for _ in range(rank):
        m = draw(st.sampled_from((0, 1, 2, 3, 4, n))) if mixed else 0
        if m == 0:
            coeffs.append(rational(0, draw(st.sampled_from((1, n)))))
            continue
        nums = draw(st.lists(st.integers(-BIG, BIG), min_size=euler_phi(m), max_size=euler_phi(m)))
        coeffs.append(Cyclotomic(m, [Fraction(c, draw(st.integers(1, BIG))) for c in nums]))
    return tuple(coeffs)


@pytest.mark.parametrize("name", ["toric_code", "fibonacci", "ising", "vec_z8"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_flat_vectors_match_plain_arithmetic(name, data, algs):
    alg = algs[name]
    x = data.draw(wide_coeffs(alg.rank, alg.n))
    y = data.draw(wide_coeffs(alg.rank, alg.n))
    c = data.draw(wide_coeffs(1, alg.n))[0]
    f, g, a, b = ClassFunction(x), ClassFunction(y), CentralElement(x), CentralElement(y)
    for v, coeffs in ((f, x), (g, y), (a, x), (b, y)):
        assert type(v)(v.coeffs) == v
        assert v.coeffs == coeffs
    assert list((f + g).coeffs) == [p + q for p, q in zip(x, y)]
    assert list((f - g).coeffs) == [p - q for p, q in zip(x, y)]
    assert list(f.scaled(c).coeffs) == [c * p for p in x]
    assert list(f.scaled(-3).coeffs) == [-3 * p for p in x]
    assert list(alg.ce_mul(a, b).coeffs) == [p * q for p, q in zip(x, y)]
    assert list(alg.act_arrow(f, b).coeffs) == [p * q for p, q in zip(x, y)]
    assert (f == g) == all(p == q for p, q in zip(x, y))
    assert f == ClassFunction(tuple(p.lift(2 * p.conductor) for p in x)) and f != a
    dual, d = alg.dual, alg.dims
    assert list(alg.antipode(a).coeffs) == [x[dual[i]] for i in range(alg.rank)]
    assert list(alg.fourier(a).coeffs) == [
        x[dual[j]] * d[dual[j]] * alg.dim.inv() for j in range(alg.rank)
    ]
    assert list(alg.fourier_inv(f).coeffs) == [
        x[dual[k]] * alg.dim * d[dual[k]].inv() for k in range(alg.rank)
    ]
    want = sum((p * q * dk for p, q, dk in zip(x, y, d)), rational(0))
    assert alg.pairing(f, b) == want


def test_a_conductor_two_input_runs_the_plain_path_at_n_2(algs):
    # toric_code read at conductor 2, as toric_code^(x)3 is: phi(2) = 1, so
    # one numerator per coordinate and plain int products; zeta_2 = -1
    obj = input_to_json(category_to_input(catalog_get("toric_code")))
    alg = CharacterAlgebra(build_category(parse_category({**obj, "conductor": 2})))
    want = algs["toric_code"]
    assert alg.n == 2 and alg.idempotent(1).nums == (0, 1, 0, 0)
    got = [(c.check_id, c.status, c.detail) for c in alg.identity_suite()]
    assert got == [(c.check_id, c.status, c.detail) for c in want.identity_suite()]
    assert alg.conjugacy().class_sums == want.conjugacy().class_sums
    x = CentralElement((Cyclotomic(2, ["3/2"]), zeta(2), rational(0, 2), Cyclotomic(2, [BIG])))
    assert (x.conductor, x.den, x.nums) == (2, 2, (3, -2, 0, 2 * BIG))
    assert alg.ce_mul(x, x).coeffs == tuple(c * c for c in x.coeffs)
    assert type(x)(x.coeffs) == x


def _law_reference(table, rows, den, n, pairs):
    """The first (i, j) of pairs and coordinate l with
    sum_k N_ij^k x_k != x_i x_j at l, by Cyclotomic + and * one term at a time."""
    phi = euler_phi(n)
    x = [[Cyclotomic(n, [Fraction(c, den) for c in row[l * phi:(l + 1) * phi]])
          for l in range(len(row) // phi)] for row in rows]
    for i, j in pairs:
        for l in range(len(x[i])):
            lhs = sum((x[k][l] * t for k, t in table[i][j]), rational(0))
            if lhs != x[i][l] * x[j][l]:
                return i, j, l
    return None


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fusion_law_routine_matches_plain_arithmetic(data):
    # small numerators make both sides agree often, so the witness rests on
    # every multiplicity; the big flag scales numerators and den past 2^64
    n = data.draw(st.sampled_from((1, 2, 3, 4, 5, 8)))
    rank, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    entry = st.tuples(st.integers(0, rank - 1), st.integers(1, 3))
    table = data.draw(st.lists(
        st.lists(st.lists(entry, max_size=2, unique_by=lambda e: e[0]),
                 min_size=rank, max_size=rank),
        min_size=rank, max_size=rank,
    ))
    size = width * euler_phi(n)
    rows = data.draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=size, max_size=size), min_size=rank, max_size=rank,
    ))
    den = data.draw(st.sampled_from((1, 2)))
    if data.draw(st.booleans()):
        rows, den = [[c * (BIG + 1) for c in row] for row in rows], den * (BIG + 1)
    pairs = data.draw(st.sampled_from((None, "all")))
    pairs = pairs and [(i, j) for i in range(rank) for j in range(rank)]
    want_pairs = pairs or [(i, j) for i in range(rank) for j in range(i, rank)]
    assert _law_witness(table, n, den, rows, pairs) == _law_reference(
        table, rows, den, n, want_pairs
    )


@pytest.mark.parametrize("name", ["toric_code", "fibonacci", "ising", "vec_z8"])
def test_fusion_law_routine_accepts_the_character_tables(name, algs):
    alg = algs[name]
    n, den, rows = _family(alg.conjugacy().alpha)
    assert _law_witness(alg.data.nonzero, n, den, rows) is None
    assert _law_witness(alg.data.nonzero, n, den, [[0] * len(r) for r in rows]) is None
