"""Schema parsing, validation checks, Verlinde-derived fusion, round trips."""

import importlib
import json
import random
import re
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import replaced

from fusioncat import (
    CategoryInput,
    InvalidCategoryError,
    SchemaError,
    build_category,
    catalog_get,
    catalog_input,
    catalog_names,
    load_category,
    parse_category,
    save_category,
    validate_input,
    verlinde_fusion,
)
from fusioncat.category import category_to_input, input_to_json
from fusioncat import cyclotomic
from fusioncat.cli import run
from fusioncat.cyclotomic import (
    CycloMatrix, Cyclotomic, euler_phi, least_field, rational, shown, zeta,
)
from fusioncat.errors import MalformedFusionError, NotModularError

XOR4 = tuple(
    tuple(tuple(1 if k == i ^ j else 0 for k in range(4)) for j in range(4))
    for i in range(4)
)


ROOT = Path(__file__).resolve().parents[1]


def no_failures(checks):
    return [c.check_id for c in checks if c.status == "fail"] == []


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_inputs_validate(name):
    assert no_failures(validate_input(catalog_input(name)))


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_kind_and_dims(name):
    data = catalog_get(name)
    assert data.kind == "modular"
    assert data.dims[0] == rational(1)
    # global dim is the square-length of the dimension vector
    total = rational(0)
    for i, d in enumerate(data.dims):
        total = total + d * data.dims[data.dual[i]]
    assert total == data.dim


def test_verlinde_toric_code_is_xor_table():
    s = catalog_get("toric_code").s
    fusion, dual = verlinde_fusion(s)
    assert fusion == XOR4
    assert dual == (0, 1, 2, 3)


def test_verlinde_fibonacci():
    s = catalog_get("fibonacci").s
    fusion, dual = verlinde_fusion(s)
    assert fusion == (((1, 0), (0, 1)), ((0, 1), (1, 1)))
    assert dual == (0, 1)


def test_verlinde_rejects_corrupted_entry():
    inp = catalog_input("toric_code")
    rows = [list(r) for r in inp.s_matrix.rows]
    rows[1][1] = rows[1][1] + rational(1)  # keeps symmetry, breaks integrality
    with pytest.raises(NotModularError):
        verlinde_fusion(CycloMatrix(rows))


def test_verlinde_packs_each_weighted_column_once(monkeypatch):
    """One Verlinde sum at rank 16 packs the weighted columns once, the rows
    at most once, and per j only the products with s_j, as the (vectors,
    columns) of each _packed call show.  At phi = 1 (toric_code^2) the
    products go into the rows, their own packing.  At phi = 8 (Z/16, whose s
    lies in Q(zeta_16)) they go into the columns for j < 8 and into the rows
    from j = 8 on."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")
    packed, calls = cyclotomic._packed, []
    monkeypatch.setattr(cyclotomic, "_packed", lambda n, vs, w, columns=False: (
        calls.append((len(vs), columns)) or packed(n, vs, w, columns)))
    toric = [(16, True)] + [(16 - j, False) for j in range(16)]
    z16 = ([(16, False)] + [(j + 1, True) for j in range(8)]
           + [(16, True)] + [(16 - j, False) for j in range(8, 16)])
    for cat, want in ((gen.deligne_power(gen.toric_code(), 2, "toric_code2"), toric),
                      (gen.vec_zn(16), z16)):
        s = parse_category(gen.modular_json(cat)).s_field
        calls.clear()
        verlinde_fusion(s)
        assert (s.nrows, calls) == (16, want)


def _su2_s_rows(k):
    """The normalized s-matrix of SU(2)_k, s_ij = [(i+1)(j+1)]_q with
    q = exp(pi i / (k+2)), written at conductor 4(k+2)."""
    n = 4 * (k + 2)

    def qint(m):
        return sum((zeta(n, 2 * e) for e in range(1 - m, m, 2)), rational(0))

    return [[qint((i + 1) * (j + 1)) for j in range(k + 1)] for i in range(k + 1)]


def test_zero_global_dimension_is_not_modular():
    # s = [[1, i], [i, -1]]: both dimensions are nonzero and dim C = 1 + i^2 = 0
    i = zeta(4)
    s = CycloMatrix([[rational(1), i], [i, rational(-1)]])
    with pytest.raises(NotModularError, match="^global dimension is zero$"):
        verlinde_fusion(s)
    inp = CategoryInput(name="degenerate", conductor=4, labels=("1", "x"), s_matrix=s)
    checks = {c.check_id: (c.status, c.detail) for c in validate_input(inp)}
    assert checks["verlinde-integral"] == ("fail", "global dimension is zero")


def _twist_passes(theta) -> bool:
    """twists-roots-of-unity on semion's s-matrix with the twists (1, theta)."""
    inp = replaced(catalog_input("semion"), twists=(rational(1), theta))
    checks = {c.check_id: c.status for c in validate_input(inp)}
    return checks["twists-roots-of-unity"] == "pass"


def _power_test(theta) -> bool:
    """The oracle: theta^lcm(2, n) = 1 at the conductor n of theta, as every
    root of unity of Q(zeta_n) has an order dividing lcm(2, n)."""
    return theta ** lcm(2, theta.conductor) == 1


def test_twist_check_agrees_with_the_power_test_on_known_twists(monkeypatch):
    # every twist of the catalog and of the generated families passes both
    # tests; each moved off the unit circle fails both
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")
    cats = [gen.su2(k) for k in range(1, 9)] + [gen.vec_zn(n) for n in (5, 9, 12, 16)] + [
        gen.deligne(gen.semion(), gen.su2(3)), gen.double_semion(), gen.anti_semion()]
    twists = [th for name in catalog_names() for th in catalog_input(name).twists or ()]
    twists += [th for cat in cats for th in parse_category(gen.modular_json(cat)).twists]
    for theta in twists:
        assert _twist_passes(theta) and _power_test(theta), theta
        for moved in (theta * 2, theta * Fraction(1, 2), theta + 3):
            assert not _twist_passes(moved) and not _power_test(moved), moved


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 30), k=st.integers(0, 59), sign=st.sampled_from((1, -1)),
       noise=st.lists(st.integers(-2, 2), min_size=30, max_size=30),
       den=st.sampled_from((1, 1, 2, 3)), exact=st.booleans())
def test_twist_check_agrees_with_the_power_test(n, k, sign, noise, den, exact):
    # +-zeta_n^k itself, or moved by a small vector and scaled by 1/den
    theta = zeta(n, k) * sign
    if not exact:
        theta = (theta + Cyclotomic(n, noise[:euler_phi(n)])) * Fraction(1, den)
    assert _twist_passes(theta) == _power_test(theta)


def _plus_one_at_1_2(rows):
    rows[1][2] = rows[2][1] = rows[1][2] + 1


def _negate_row_and_column(e):
    # s'_ij = e_i e_j s_ij with e_e = -1 stays symmetric and negates every
    # T_ij^k with an odd number of indices equal to e
    def corrupt(rows):
        for t in range(len(rows)):
            rows[e][t] = -rows[e][t]
            rows[t][e] = -rows[t][e]
    corrupt.__name__ = f"_negate_row_and_column_{e}"
    return corrupt


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (
            _plus_one_at_1_2,
            "Verlinde coefficient at (i=0, j=0, k=1) is "
            "1/14*ζ28^4+1/14*ζ28^6-1/14*ζ28^8-1/14*ζ28^10, not a nonnegative integer",
        ),
        (
            _negate_row_and_column(2),
            "Verlinde coefficient at (i=1, j=1, k=2) is -1, not a nonnegative integer",
        ),
        # (2, 2, 4) fails too, and its j comes first in the sum's order, which
        # takes the pairs i <= j for one j at a time; (1, 3, 4) is first in
        # row-major order
        (
            _negate_row_and_column(4),
            "Verlinde coefficient at (i=1, j=3, k=4) is -1, not a nonnegative integer",
        ),
    ],
)
def test_verlinde_reports_its_first_witness_on_su2_5(corrupt, detail):
    rows = _su2_s_rows(5)
    corrupt(rows)
    inp = CategoryInput(
        name="su2_5", conductor=28,
        labels=tuple(map(str, range(6))), s_matrix=CycloMatrix(rows),
    )
    checks = {c.check_id: c for c in validate_input(inp)}
    assert checks["s-symmetric"].status == "pass"
    assert (checks["verlinde-integral"].status, checks["verlinde-integral"].detail) == (
        "fail",
        detail,
    )


# the least field of each catalog s-matrix, from the conductor the entry declares
LEAST_FIELD = {
    "trivial": 1, "vec_z2": 1, "vec_z3": 3, "vec_z4": 4, "vec_z5": 5, "vec_z6": 3,
    "vec_z7": 7, "vec_z8": 8, "semion": 1, "double_semion": 1, "toric_code": 1,
    "ising": 8, "fibonacci": 5,
}


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_s_matrices_in_their_least_field(name):
    inp = catalog_input(name)
    m, _ = least_field([v for row in inp.s_matrix.rows for v in row], inp.conductor)
    assert m == LEAST_FIELD[name]
    data = catalog_get(name)
    assert data.s.conductor == m
    assert data.shown_conductor == inp.conductor
    assert data.s == inp.s_matrix


@pytest.mark.parametrize("k, m", [(2, 8), (5, 7), (7, 9), (20, 44)])
def test_su2_s_is_computed_at_twice_k_plus_2_or_its_odd_half(k, m):
    n = 4 * (k + 2)
    s = CycloMatrix(_su2_s_rows(k))
    assert least_field([v for row in s.rows for v in row], n)[0] == m
    field = s.descended()
    assert field.conductor == m
    for row, given in zip(field.rows, s.rows):
        for v, w in zip(row, given):
            back = v.lift(n)
            assert (back.nums, back.den) == (w.nums, w.den)
    if k == 5:  # validation runs at m and shows every value at n
        inp = CategoryInput(name="su2_5", conductor=n,
                            labels=tuple(map(str, range(6))), s_matrix=s)
        data = build_category(inp)
        assert (data.s.conductor, data.shown_conductor) == (m, n)
        assert data.certified is data.fusion
        dim = {c.check_id: c for c in validate_input(inp)}["global-dim-nonzero"].detail
        assert dim == f"dim C = {shown(data.dim, n)}" and "ζ28" in dim
        # written back, s is lifted to the conductor it was given at
        assert input_to_json(category_to_input(data)) == input_to_json(inp)
        again = build_category(category_to_input(data))
        assert (again.s.conductor, again.shown_conductor) == (m, n)


def test_corrupted_s_fails_validation():
    inp = catalog_input("toric_code")
    rows = [list(r) for r in inp.s_matrix.rows]
    rows[1][2] = rational(2)
    bad = CategoryInput(
        name="bad",
        conductor=inp.conductor,
        labels=inp.labels,
        s_matrix=CycloMatrix(rows),
        twists=None,
    )
    failed = {c.check_id for c in validate_input(bad) if c.status == "fail"}
    assert failed  # symmetry or integrality must flag it
    with pytest.raises(InvalidCategoryError):
        build_category(bad)


def test_dual_involution_rejects_broken_table():
    # unit row says object 1 is its own dual, but N_{1,1}^0 = 0
    fusion = (
        ((1, 0), (0, 1)),
        ((0, 1), (0, 1)),
    )
    with pytest.raises(MalformedFusionError):
        from fusioncat.category import dual_involution

        dual_involution(fusion)


# -- strict schema ------------------------------------------------------------


def _toric_json():
    return input_to_json(catalog_input("toric_code"))


@pytest.mark.parametrize("kind", ["modular", "fusion_ring"])
@pytest.mark.parametrize("name", catalog_names())
def test_schema_roundtrip(name, kind):
    want = category_to_input(catalog_get(name), kind)
    obj = input_to_json(want)
    inp = parse_category(obj)
    assert (inp.name, inp.kind, inp.labels) == (name, kind, want.labels)
    assert (inp.s_matrix, inp.twists) == (want.s_matrix, want.twists)
    assert (inp.fusion, inp.dims, inp.char_table) == (want.fusion, want.dims, want.char_table)
    assert input_to_json(inp) == obj


def _cut(key, *path):
    """An edit that drops the last item of obj[key][path...]."""
    def edit(obj):
        items = obj[key]
        for i in path:
            items = items[i]
        items.pop()
    return edit


def _put(key, path, value):
    """An edit that sets obj[key][path...] to value."""
    def edit(obj):
        items = obj[key]
        for i in path[:-1]:
            items = items[i]
        items[path[-1]] = value
    return edit


def _top(**fields):
    """An edit that sets the top-level fields given and deletes those given as None."""
    def edit(obj):
        for key, value in fields.items():
            if value is None:
                del obj[key]
            else:
                obj[key] = value
    return edit


@pytest.mark.parametrize("kind, edit, message", [
    ("modular", _cut("s_matrix"), "s_matrix: expected 4 rows"),
    ("modular", _cut("s_matrix", 1), "s_matrix[1]: expected 4 entries"),
    ("modular", _put("s_matrix", [1], "1"), "s_matrix[1]: expected 4 entries"),
    ("modular", _cut("twists"), "twists: expected 4 entries"),
    ("modular", _top(twists={}), "twists: expected 4 entries"),
    ("fusion_ring", _cut("fusion"), "fusion: expected 4 outer rows"),
    ("fusion_ring", _cut("fusion", 0), "fusion[0]: expected 4 rows"),
    ("fusion_ring", _cut("fusion", 0, 1), "fusion[0][1]: expected 4 entries"),
    ("fusion_ring", _put("fusion", [0, 1], 0), "fusion[0][1]: expected 4 entries"),
    ("fusion_ring", _cut("dims"), "dims: expected 4 entries"),
    ("fusion_ring", _cut("char_table"), "char_table: expected 4 rows"),
    ("fusion_ring", _cut("char_table", 2), "char_table[2]: expected 4 entries"),
    ("fusion_ring", _put("fusion", [0, 1, 2], -1),
     "fusion[0][1][2]: expected a nonnegative integer, got -1"),
    ("fusion_ring", _put("fusion", [0, 1, 2], True),
     "fusion[0][1][2]: expected a nonnegative integer, got True"),
    ("fusion_ring", _put("fusion", [0, 1, 2], "1"),
     "fusion[0][1][2]: expected a nonnegative integer, got '1'"),
    ("fusion_ring", _put("fusion", [0, 1, 2], 1.0),
     "fusion[0][1][2]: expected a nonnegative integer, got 1.0"),
    ("modular", _put("s_matrix", [2, 3], "x"),
     "s_matrix[2][3]: expected a rational string 'p' or 'p/q', got 'x'"),
    ("modular", _put("twists", [3], 1),
     "twists[3]: expected rational string or coefficient array"),
    ("fusion_ring", _put("dims", [1], ["1", "0"]),
     "dims[1]: coefficient array has length 2, conductor 1 needs 1"),
    ("fusion_ring", _put("char_table", [1, 2], None),
     "char_table[1][2]: expected rational string or coefficient array"),
    ("modular", _top(extra=1, dims=["1"] * 4),
     "unknown fields for kind 'modular': dims, extra"),
    ("fusion_ring", _top(s_matrix=[]), "unknown fields for kind 'fusion_ring': s_matrix"),
    ("modular", _top(s_matrix=None, labels=None), "missing fields: s_matrix, labels"),
    ("modular", _top(twists=None, rank=None), "missing fields: rank"),
    ("fusion_ring", _top(fusion=None, dims=None, char_table=None, name=None),
     "missing fields: dims, fusion, name"),
    ("modular", _top(kind="braided"), "kind: expected 'modular' or 'fusion_ring', got 'braided'"),
    ("modular", _top(kind=["modular"]),
     "kind: expected 'modular' or 'fusion_ring', got ['modular']"),
    ("fusion_ring", _top(kind=None), "kind: expected 'modular' or 'fusion_ring', got None"),
    ("modular", _top(schema_version=2), "schema_version: expected 1, got 2"),
    ("modular", _top(schema_version=True), "schema_version: expected 1, got True"),
    ("fusion_ring", _top(schema_version="1"), "schema_version: expected 1, got '1'"),
])
def test_schema_error_texts(kind, edit, message):
    obj = input_to_json(category_to_input(catalog_get("toric_code"), kind))
    edit(obj)
    with pytest.raises(SchemaError) as e:
        parse_category(obj)
    assert str(e.value) == message


def test_schema_rejects_unknown_field():
    obj = _toric_json()
    obj["extra"] = 1
    with pytest.raises(SchemaError, match="unknown fields"):
        parse_category(obj)


def test_schema_rejects_wrong_version():
    obj = _toric_json()
    obj["schema_version"] = 2
    with pytest.raises(SchemaError, match="schema_version"):
        parse_category(obj)


def test_schema_rejects_missing_field():
    obj = _toric_json()
    del obj["s_matrix"]
    with pytest.raises(SchemaError, match="missing"):
        parse_category(obj)


def test_schema_rejects_kind_mismatched_fields():
    obj = _toric_json()
    obj["dims"] = ["1", "1", "1", "1"]
    with pytest.raises(SchemaError, match="unknown fields"):
        parse_category(obj)


def test_schema_rejects_bad_rational():
    obj = _toric_json()
    obj["s_matrix"][0][0] = "1.5"
    with pytest.raises(SchemaError, match="rational"):
        parse_category(obj)


def test_schema_rejects_wrong_coefficient_length():
    obj = input_to_json(catalog_input("fibonacci"))  # conductor 5, phi = 4
    obj["s_matrix"][0][1] = ["0", "1"]
    with pytest.raises(SchemaError, match="length"):
        parse_category(obj)


def test_schema_rejects_label_count_mismatch():
    obj = _toric_json()
    obj["labels"] = ["1", "e", "m"]
    with pytest.raises(SchemaError):
        parse_category(obj)


# -- file I/O ------------------------------------------------------------------


def test_save_and_load_modular(tmp_path):
    path = tmp_path / "toric.json"
    save_category(catalog_get("toric_code"), path)
    data = load_category(path)
    assert data.name == "toric_code"
    assert data.s == catalog_get("toric_code").s
    assert data.fusion == XOR4


def test_save_and_load_fusion_ring(tmp_path):
    path = tmp_path / "toric_fr.json"
    save_category(catalog_get("toric_code"), path, kind="fusion_ring")
    data = load_category(path)
    assert data.kind == "fusion_ring"
    assert data.s is None
    assert data.char_table is not None
    assert data.fusion == XOR4
    assert data.dims == catalog_get("toric_code").dims


def test_load_missing_file():
    with pytest.raises(SchemaError, match="cannot read"):
        load_category("/nonexistent/nope.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_category(path)


def test_downgrade_preserves_class_data(tmp_path):
    # modular -> fusion_ring keeps the character table alpha_ij = s_ij / d_j
    inp = category_to_input(catalog_get("ising"), kind="fusion_ring")
    obj = input_to_json(inp)
    path = tmp_path / "ising_fr.json"
    path.write_text(json.dumps(obj))
    data = load_category(path)
    ising = catalog_get("ising")
    for i in range(3):
        for j in range(3):
            assert (
                data.char_table.rows[i][j]
                == ising.s.rows[i][j] * ising.dims[j].inv()
            )


def _count_calls(monkeypatch, *names):
    """Count calls to fusioncat.category functions in every module that
    imported them."""
    import fusioncat.category as category

    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(category, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("fusioncat") and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "build, kind",
    [("catalog_get", "modular")]
    + [
        (build, kind)
        for build in ("load_category", "info", "verify")
        for kind in ("modular", "fusion_ring")
    ],
)
def test_build_validates_once_and_runs_verlinde_at_most_once(
    build, kind, tmp_path, monkeypatch
):
    path = tmp_path / "toric.json"
    save_category(catalog_get("toric_code"), path, kind=kind)
    catalog_get.cache_clear()
    calls = _count_calls(monkeypatch, "validate_input", "verlinde_fusion")
    if build == "catalog_get":
        catalog_get("vec_z4")
    elif build == "load_category":
        load_category(path)
    else:
        assert run([build, "--file", str(path)]) == 0
    assert calls["validate_input"] == 1
    # a catalog entry may reuse the ring its input derived earlier
    assert calls["verlinde_fusion"] <= (1 if kind == "modular" else 0)


def _count_eliminations(monkeypatch) -> list:
    """Record the matrix of every CycloMatrix.inverse call."""
    inverse, calls = CycloMatrix.inverse, []

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycloMatrix, "inverse", counted)
    return calls


@pytest.mark.parametrize("kind", ["modular", "fusion_ring"])
def test_verify_eliminates_only_after_a_failed_certificate(kind, tmp_path, monkeypatch):
    # validation certifies the s-matrix by s s = c P and the character table
    # by alpha^T P alpha = diag(f); conjugacy data is certified by a product
    path = tmp_path / "ising.json"
    save_category(catalog_get("ising"), path, kind=kind)
    calls = _count_eliminations(monkeypatch)
    assert run(["verify", "--file", str(path)]) == 0
    assert calls == []


def _uncertified(kind):
    """An invertible s-matrix that is no multiple of a permutation when
    squared, or toric_code's character table with column 2 added to column 1."""
    if kind == "modular":
        one = rational(1)
        return CategoryInput(
            name="uncertified", conductor=1, labels=("1", "x"),
            s_matrix=CycloMatrix([[one, one], [one, rational(2)]]),
        )
    inp = category_to_input(catalog_get("toric_code"), kind="fusion_ring")
    rows = [(row[0], row[1] + row[2], *row[2:]) for row in inp.char_table.rows]
    return replaced(inp, char_table=CycloMatrix(rows))


@pytest.mark.parametrize(
    "kind, law, other",
    [("modular", "s-invertible", "verlinde-integral"),
     ("fusion_ring", "char-table-invertible", "char-table-characters")],
)
def test_an_uncertified_invertible_matrix_is_eliminated_once(kind, law, other, monkeypatch):
    inp = _uncertified(kind)
    calls = _count_eliminations(monkeypatch)
    checks = {c.check_id: c for c in validate_input(inp)}
    assert calls == [inp.s_matrix if kind == "modular" else inp.char_table]
    assert (checks[law].status, checks[law].detail) == ("pass", "")
    assert checks[other].status == "fail"


def _ring_law_cases():
    """Modular inputs whose ring derives: Ising, certified; its s with
    columns 1 and 2 swapped, which gives Ising's rules but is not symmetric,
    so uncertified; and 2 s, certified but with d_0 = 2."""
    inp = catalog_input("ising")
    swapped = CycloMatrix([(a, c, b) for a, b, c in inp.s_matrix.rows])
    doubled = CycloMatrix([[v * rational(2) for v in row] for row in inp.s_matrix.rows])
    return {"certified": inp, "columns-swapped": replaced(inp, s_matrix=swapped),
            "doubled": replaced(inp, s_matrix=doubled)}


@pytest.mark.parametrize("case, runs, dim_law", [
    ("certified", [0, 0], ("pass", "")),
    ("columns-swapped", [1, 1], ("fail", "d_i*d_j != sum N_ij^k d_k at (1, 1)")),
    ("doubled", [0, 1], ("fail", "d_i*d_j != sum N_ij^k d_k at (0, 0)")),
])
def test_modular_ring_laws_run_only_without_the_certificate(case, runs, dim_law, monkeypatch):
    # associativity and dim-homomorphism pass on the s^2 certificate, the
    # latter only when d_0 = 1; otherwise each law runs once
    inp = _ring_law_cases()[case]
    calls = _count_calls(monkeypatch, "_associativity_witness", "_law_witness")
    checks = {c.check_id: (c.status, c.detail) for c in validate_input(inp)}
    assert [calls["_associativity_witness"], calls["_law_witness"]] == runs
    assert checks["verlinde-integral"] == checks["associativity"] == ("pass", "")
    assert checks["dim-homomorphism"] == dim_law
    assert (checks["s-symmetric"][0], checks["unit-dim"][0]) == (
        "fail" if case == "columns-swapped" else "pass", "fail" if case == "doubled" else "pass")


def test_singular_s_matrix_reports_its_rank():
    one = rational(1)
    inp = CategoryInput(
        name="singular", conductor=1, labels=("1", "x"),
        s_matrix=CycloMatrix([[one, one], [one, one]]),
    )
    checks = {c.check_id: c for c in validate_input(inp)}
    assert (checks["s-invertible"].status, checks["s-invertible"].detail) == (
        "fail",
        "singular matrix, rank 1",
    )


def test_char_table_with_a_repeated_column_reports_its_rank():
    inp = category_to_input(catalog_get("toric_code"), kind="fusion_ring")
    rows = [row[:3] + row[1:2] for row in inp.char_table.rows]
    checks = {
        c.check_id: c
        for c in validate_input(replaced(inp, char_table=CycloMatrix(rows)))
    }
    law = checks["char-table-invertible"]
    assert (law.status, law.detail) == ("fail", "singular matrix, rank 3")
    assert checks["char-table-characters"].status == "pass"


def test_char_table_characters_reports_the_first_witness_by_row():
    # the witness is the first (i, k >= i) in row-major order, and there the
    # first column: column 1, (1, 1, -1, 1), first fails at e m = f, (1, 2);
    # column 2, (1, 2, 1, 2), already at e e = 1, (1, 1)
    inp = category_to_input(catalog_get("toric_code"), kind="fusion_ring")
    rows = [list(row) for row in inp.char_table.rows]
    for row, a, b in zip(rows, (1, 1, -1, 1), (1, 2, 1, 2)):
        row[1:3] = rational(a), rational(b)
    checks = {
        c.check_id: c for c in validate_input(replaced(inp, char_table=CycloMatrix(rows)))
    }
    law = checks["char-table-characters"]
    assert (law.status, law.detail) == (
        "fail", "column 2 is not an algebra character at (i,k)=(1, 1)"
    )


def _table_edited(edit):
    """toric_code as a fusion ring, with edit applied to its character table's rows."""
    inp = category_to_input(catalog_get("toric_code"), kind="fusion_ring")
    rows = [list(row) for row in inp.char_table.rows]
    edit(rows)
    return replaced(inp, char_table=CycloMatrix(rows))


def _copy_column(src, dst):
    def edit(rows):
        for row in rows:
            row[dst] = row[src]
    return edit


def _set_entry(i, j, value):
    def edit(rows):
        rows[i][j] = value
    return edit


def _s_00_at_4_shown_at_8():
    """A modular input declared at conductor 8 whose s is built at conductor 4."""
    return CategoryInput(name="z4", conductor=8, labels=("1",), s_matrix=CycloMatrix([[zeta(4)]]))


@pytest.mark.parametrize("make, check_id, outcome", [
    (lambda: _ring_law_cases()["doubled"], "s-unit-entry", ("fail", "s_00 = 2")),
    (_s_00_at_4_shown_at_8, "s-unit-entry", ("fail", "s_00 = ζ8^2")),
    (lambda: _ring_law_cases()["columns-swapped"], "s-symmetric",
     ("fail", "s_ij != s_ji at (0, 1)")),
    (lambda: _ring_law_cases()["certified"], "s-symmetric", ("pass", "")),
    (lambda: _table_edited(_set_entry(0, 2, rational(2))),
     "char-table-unit-row", ("fail", "column 2 does not send the unit to 1")),
    (lambda: _table_edited(_copy_column(1, 0)), "char-table-dimension-column",
     ("fail", "columns equal to the dimension vector: []")),
    (lambda: _table_edited(_copy_column(0, 3)), "char-table-dimension-column",
     ("fail", "columns equal to the dimension vector: [0, 3]")),
    (lambda: _table_edited(lambda rows: None), "char-table-dimension-column",
     ("pass", "column 0")),
    (lambda: replaced(catalog_input("ising"), labels=("1", "x", "x")), "labels-distinct",
     ("fail", "")),
], ids=["s-unit-entry", "s-unit-entry-shown", "s-symmetric", "s-symmetric-pass",
        "char-table-unit-row", "no-dimension-column", "two-dimension-columns",
        "one-dimension-column", "labels-distinct"])
def test_matrix_reading_checks_report_their_detail(make, check_id, outcome):
    # details print values through show, at the declared conductor
    checks = {c.check_id: (c.status, c.detail) for c in validate_input(make())}
    assert checks[check_id] == outcome


def test_unknown_catalog_name():
    with pytest.raises(KeyError, match="available"):
        catalog_get("nope")


def _dense_associativity_witness(fusion):
    """First (i, j, k, m) with sum_l N_ij^l N_lk^m != sum_l N_jk^l N_il^m, by
    the full O(rank^5) sweep the sparse check replaced."""
    rank = len(fusion)
    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                for m in range(rank):
                    lhs = sum(fusion[i][j][l] * fusion[l][k][m] for l in range(rank))
                    rhs = sum(fusion[j][k][l] * fusion[i][l][m] for l in range(rank))
                    if lhs != rhs:
                        return (i, j, k, m)
    return None


def _with_fusion(inp, fusion):
    return replaced(
        inp, fusion=tuple(tuple(tuple(row) for row in plane) for plane in fusion)
    )


def test_associativity_witness_is_pinned():
    inp = category_to_input(catalog_get("toric_code"), "fusion_ring")
    fusion = [[list(row) for row in plane] for plane in inp.fusion]
    fusion[3][3][3] = 2
    checks = {c.check_id: c for c in validate_input(_with_fusion(inp, fusion))}
    assert checks["associativity"].status == "fail"
    assert checks["associativity"].detail == "violated at (i,j,k,m)=(1, 2, 3, 3)"


@pytest.mark.parametrize("entry,witness", [
    ((14, 9, 7, 2), "(1, 14, 9, 6)"),
    ((12, 15, 3, 0), "(1, 12, 15, 2)"),
])
def test_associativity_witness_deep_in_a_rank_16_ring(entry, witness):
    # the group ring of Z/2^4 with one entry changed far from the unit; the
    # witnesses are those of the triple-by-triple check the packed rows replaced
    xor16 = [[[int(k == i ^ j) for k in range(16)] for j in range(16)] for i in range(16)]
    i, j, k, value = entry
    xor16[i][j][k] = value
    inp = CategoryInput(
        name="z2^4", conductor=1, labels=tuple(map(str, range(16))),
        fusion=tuple(tuple(map(tuple, plane)) for plane in xor16),
        dims=tuple(rational(1) for _ in range(16)),
    )
    checks = {c.check_id: c for c in validate_input(inp)}
    assert (checks["associativity"].status, checks["associativity"].detail) == (
        "fail", f"violated at (i,j,k,m)={witness}"
    )


def test_unit_axiom_reports_the_first_witness():
    # two bad entries in the unit row: (1, 2) comes first in row-major order
    inp = category_to_input(catalog_get("toric_code"), "fusion_ring")
    fusion = [[list(row) for row in plane] for plane in inp.fusion]
    fusion[0][1][2] = fusion[0][3][2] = 1
    checks = {c.check_id: c for c in validate_input(_with_fusion(inp, fusion))}
    assert checks["unit-axiom"].status == "fail"
    assert checks["unit-axiom"].detail == "violated at (1, 2)"


@pytest.mark.parametrize("name", ["toric_code", "ising", "fibonacci", "vec_z6"])
def test_associativity_reports_the_dense_first_witness(name):
    inp = category_to_input(catalog_get(name), "fusion_ring")
    rng = random.Random(name)
    failures = 0
    for _ in range(12):
        fusion = [[list(row) for row in plane] for plane in inp.fusion]
        for _ in range(rng.randint(1, 3)):
            i, j, k = (rng.randrange(inp.rank) for _ in range(3))
            fusion[i][j][k] = rng.randrange(3)
        want = _dense_associativity_witness(fusion)
        got = {c.check_id: c for c in validate_input(_with_fusion(inp, fusion))}
        assert (got["associativity"].status, got["associativity"].detail) == (
            ("pass", "") if want is None else ("fail", f"violated at (i,j,k,m)={want}")
        )
        failures += want is not None
    assert failures


def _dim_homomorphism_witness(fusion, dims):
    """First (i, j) with sum_k N_ij^k d_k != d_i d_j, by Cyclotomic sums."""
    rank = len(fusion)
    for i in range(rank):
        for j in range(rank):
            total = sum((fusion[i][j][k] * dims[k] for k in range(rank)), rational(0))
            if total != dims[i] * dims[j]:
                return (i, j)
    return None


@pytest.mark.parametrize("name", ["toric_code", "ising", "fibonacci", "vec_z6"])
def test_dim_homomorphism_reports_the_first_witness(name):
    inp = category_to_input(catalog_get(name), "fusion_ring")
    rng = random.Random(name)
    failures = 0
    for _ in range(12):
        fusion = [[list(row) for row in plane] for plane in inp.fusion]
        for _ in range(rng.randint(1, 3)):
            i, j, k = (rng.randrange(inp.rank) for _ in range(3))
            fusion[i][j][k] = rng.randrange(3)
        want = _dim_homomorphism_witness(fusion, inp.dims)
        got = {c.check_id: c for c in validate_input(_with_fusion(inp, fusion))}
        assert (got["dim-homomorphism"].status, got["dim-homomorphism"].detail) == (
            ("pass", "") if want is None else ("fail", f"d_i*d_j != sum N_ij^k d_k at {want}")
        )
        failures += want is not None
    assert failures


@pytest.mark.parametrize("text, where", [
    ("1.5", "s_matrix[0][1]"), ("1/0", "s_matrix[0][1]"),
    (["0", "x", "0", "0"], "s_matrix[0][1][1]"), (["0", 1, "0", "0"], "s_matrix[0][1][1]"),
])
def test_schema_names_the_bad_coefficient(text, where):
    obj = input_to_json(catalog_input("fibonacci"))  # conductor 5, phi = 4
    obj["s_matrix"][0][1] = text
    with pytest.raises(SchemaError, match=rf"^{re.escape(where)}: expected a rational string"):
        parse_category(obj)


def test_schema_reads_rationals_in_canonical_form():
    obj = input_to_json(catalog_input("fibonacci"))
    obj["s_matrix"][0][1] = ["-6/4", "+0", "10/15", "007"]
    value = parse_category(obj).s_matrix.rows[0][1]
    want = Cyclotomic(5, [Fraction(-3, 2), 0, Fraction(2, 3), 7])
    assert (value.nums, value.den) == (want.nums, want.den) == ((-9, 0, 4, 42), 6)


def test_schema_parses_each_distinct_coefficient_array_once(monkeypatch):
    # fibonacci's s is written at conductor 5 with s_01 = s_10 as equal
    # coefficient arrays; the second is read from the memo, so the elements
    # of each distinct array are parsed once
    obj = input_to_json(catalog_input("fibonacci"))
    rows = obj["s_matrix"]
    assert rows[0][1] == rows[1][0] and isinstance(rows[0][1], list)
    category, calls = sys.modules["fusioncat.category"], []
    parse = category._parse_rational

    def counted(text, where, k=None):
        calls.append((where, k))
        return parse(text, where, k)

    monkeypatch.setattr(category, "_parse_rational", counted)
    s = parse_category(obj).s_matrix.rows
    assert s[0][1] == s[1][0] == catalog_input("fibonacci").s_matrix.rows[0][1]
    arrays = {tuple(v) for row in rows for v in row if isinstance(v, list)}
    parsed = [where for where, k in calls if k is not None and where.startswith("s_matrix")]
    assert parsed == ["s_matrix[0][1]"] * 4 * len(arrays)


@pytest.mark.parametrize("bad, where", [
    (["0", ["1"], "0", "0"], "s_matrix[1][0][1]"),  # an unhashable element
    (["0", {"x": 1}, "0", "0"], "s_matrix[1][0][1]"),
    (["0", None, "0", "0"], "s_matrix[1][0][1]"),
    (["1/0", "0", "0", "0"], "s_matrix[1][0][0]"),
])
def test_schema_names_a_bad_element_of_an_array_seen_before(bad, where):
    # s_01 is a well-formed array; s_10 differs from it in one element, which
    # is still named where it sits, also when it cannot be a memo key
    obj = input_to_json(catalog_input("fibonacci"))
    obj["s_matrix"][1][0] = bad
    with pytest.raises(SchemaError, match=rf"^{re.escape(where)}: expected a rational string"):
        parse_category(obj)
