"""Centralizer computation by both routes plus the exact laws tying them."""

import sys

import pytest

from conftest import replaced

from fusioncat import (
    CentralElement,
    CharacterAlgebra,
    FusionSubcategory,
    catalog_get,
    catalog_names,
    centralizer,
    centralizer_smatrix,
    centralizer_suite,
    centralizer_theorem,
    enumerate_subcats,
    verify_main_identity,
)
from fusioncat import lattice
from fusioncat.category import CategoryInput, build_category, category_to_input, validate_input
from fusioncat.cli import full_suite, run
from fusioncat.cyclotomic import CycloMatrix, rational
from fusioncat.errors import CapabilityError, NotRibbonConsistentError

centralizer_module = sys.modules["fusioncat.centralizer"]


def test_toric_self_centralizing_halves(algs):
    alg = algs["toric_code"]
    for members in ((0, 1), (0, 2), (0, 3)):
        result = centralizer(alg, FusionSubcategory(members))
        assert result.agreed
        assert result.members == members


def test_toric_extremes(algs):
    alg = algs["toric_code"]
    assert centralizer(alg, FusionSubcategory((0,))).members == (0, 1, 2, 3)
    assert centralizer(alg, FusionSubcategory((0, 1, 2, 3))).members == (0,)


def test_ising_psi_self_centralizing(algs):
    alg = algs["ising"]
    result = centralizer(alg, FusionSubcategory((0, 2)))
    assert result.members == (0, 2)
    full = centralizer(alg, FusionSubcategory((0, 1, 2)))
    assert full.members == (0,)


def test_fibonacci_extremes(algs):
    alg = algs["fibonacci"]
    assert centralizer(alg, FusionSubcategory((0,))).members == (0, 1)
    assert centralizer(alg, FusionSubcategory((0, 1))).members == (0,)


def test_transform_image_toric(algs):
    alg = algs["toric_code"]
    result = centralizer(alg, FusionSubcategory((0, 1)))
    assert result.image == CentralElement(
        (rational(1), rational(1), rational(0), rational(0))
    )


@pytest.mark.parametrize("name", catalog_names())
def test_routes_agree_everywhere(name, algs):
    alg = algs[name]
    for d in enumerate_subcats(alg):
        by_s = centralizer_smatrix(alg, d)
        by_t, _ = centralizer_theorem(alg, d)
        assert by_s.members == by_t.members


@pytest.mark.parametrize("name", catalog_names())
def test_main_identity_everywhere(name, algs):
    alg = algs[name]
    for d in enumerate_subcats(alg):
        checks = verify_main_identity(alg, d)
        assert [c.check_id for c in checks if c.status == "fail"] == []
        ids = [c.check_id for c in checks]
        assert "main-identity" in ids and "double-centralizer" in ids


def test_anti_monotone_toric(algs):
    alg = algs["toric_code"]
    subcats = enumerate_subcats(alg)
    for d in subcats:
        for e in subcats:
            if set(d.members) <= set(e.members):
                dp = centralizer_smatrix(alg, d).members
                ep = centralizer_smatrix(alg, e).members
                assert set(dp) >= set(ep)


@pytest.mark.parametrize("name", catalog_names())
def test_suite_passes(name, algs):
    checks = centralizer_suite(algs[name])
    assert [c.check_id for c in checks if c.status == "fail"] == []


def test_suite_skips_without_s_matrix():
    inp = category_to_input(catalog_get("toric_code"), kind="fusion_ring")
    alg = CharacterAlgebra(build_category(inp))
    checks = centralizer_suite(alg)
    assert all(c.status == "skip" for c in checks)
    with pytest.raises(CapabilityError):
        centralizer_smatrix(alg, FusionSubcategory((0,)))


def test_suite_skips_past_enumeration_limit(monkeypatch):
    # past the subcategory bound (toric_code has 5) every centralizer law is
    # skipped with the reason, and the other suites still report
    monkeypatch.setattr(lattice, "SUBCATEGORY_LIMIT", 3)
    checks = full_suite(CharacterAlgebra(catalog_get("toric_code")))
    assert [c.check_id for c in checks if c.status == "fail"] == []
    skipped = {c.check_id: c.detail for c in checks if c.status == "skip"}
    assert skipped["enumeration"] == skipped["main-identity"]
    assert "past SUBCATEGORY_LIMIT = 3 subcategories" in skipped["dim-product"]
    assert any(c.check_id == "fourier-roundtrip" for c in checks)


def test_suite_reports_invariants_that_fail_as_failed_laws():
    # class sizes that miss the index fail the invariant bundles; every
    # centralizer law then fails with that message, and full_suite still
    # returns its report instead of raising
    alg = CharacterAlgebra(catalog_get("toric_code"))
    conj = alg.conjugacy()
    alg._conjugacy = replaced(conj, sizes=tuple(z + 1 for z in conj.sizes))
    checks = {c.check_id: (c.status, c.detail) for c in full_suite(alg)}
    message = "index, counit of the integral and class sizes over the support disagree"
    assert checks["subcat-invariants"] == ("fail", message)
    assert [checks[cid] for cid in centralizer_module._LAWS] == [("fail", message)] * 7


@pytest.mark.parametrize("name", catalog_names())
def test_batched_images_match_the_formula(name):
    # drinfeld(lambda_D) for every D from one matmul, against
    # sum_i lambda_D[i] s_ij / d_j one subcategory at a time
    alg = CharacterAlgebra(catalog_get(name))
    s, d = alg.data.s.rows, alg.dims
    subcats = enumerate_subcats(alg)
    for sub, result in zip(subcats, centralizer_module._results(alg, subcats)):
        lam = alg.cointegral(sub.members).coeffs
        want = [sum((lam[i] * s[i][j] for i in range(alg.rank)), rational(0)) * d[j].inv()
                for j in range(alg.rank)]
        assert list(result.image.coeffs) == want
        assert result.members == centralizer_smatrix(alg, sub).members


def test_the_criterion_and_the_main_identity_take_only_the_subcategory(algs):
    # drinfeld(lambda_D) and the results are derived from D alone: a copy
    # handed in by the caller, here that of another subcategory, is refused
    alg = algs["toric_code"]
    d, other = FusionSubcategory((0, 1)), FusionSubcategory((0, 2))
    with pytest.raises(TypeError):
        centralizer_theorem(alg, d, centralizer_theorem(alg, other)[1])
    with pytest.raises(TypeError):
        verify_main_identity(alg, d, centralizer(alg, other))


@pytest.mark.parametrize("name", [*catalog_names(), "toric_code^2"])
def test_criterion_reads_the_route_and_image_of_the_batched_results(name, algs):
    # centralizer_theorem forms drinfeld(lambda_D) for one D and _results
    # takes it from the batched matmul; both read D' through the same reader
    alg = _toric2() if name == "toric_code^2" else algs[name]
    subcats = enumerate_subcats(alg)
    for d, result in zip(subcats, centralizer_module._results(alg, subcats)):
        assert centralizer_theorem(alg, d) == (result.transform_route, result.image)


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def test_rank_32_product_verifies_with_nothing_skipped():
    # toric_code (x) toric_code (x) semion: rank 32, past the old rank-16 cap
    toric = catalog_get("toric_code").s.rows
    s = _kron(_kron(toric, toric), catalog_get("semion").s.rows)
    inp = CategoryInput(name="tc2s", conductor=1,
                        labels=tuple(f"x{i}" for i in range(32)), s_matrix=CycloMatrix(s))
    assert [c.check_id for c in validate_input(inp) if c.status != "pass"] == []
    checks = full_suite(CharacterAlgebra(build_category(inp)))
    assert [(c.check_id, c.status) for c in checks if c.status != "pass"] == []
    laws = {c.check_id: c.detail for c in checks}
    assert laws["enumeration-generator-match"] == "374 subcategories"
    assert laws["main-identity"] == "all 374 subcategories"


def test_non_closed_member_set_rejected(algs):
    # {1, e, m} is not fusion-closed; its weighted character sum transforms
    # to something that is not a 0/1 vector, which must be an error
    alg = algs["toric_code"]
    with pytest.raises(NotRibbonConsistentError):
        centralizer_theorem(alg, FusionSubcategory((0, 1, 2)))


def _toric2():
    """toric_code (x) toric_code: modular, with the fusion rules of the
    group ring of Z/2^4; 67 subcategories."""
    toric = catalog_get("toric_code").s.rows
    inp = CategoryInput(name="tc2", conductor=1,
                        labels=tuple(f"x{i}" for i in range(16)),
                        s_matrix=CycloMatrix(_kron(toric, toric)))
    return CharacterAlgebra(build_category(inp))


def _z2_4_ring():
    """The group ring of Z/2^4 with its sign characters: no s-matrix."""
    elements = [tuple(g >> b & 1 for b in range(4)) for g in range(16)]
    index = {g: i for i, g in enumerate(elements)}
    fusion = tuple(tuple(tuple(int(k == index[tuple((a + b) % 2 for a, b in zip(g, h))])
                               for k in range(16)) for h in elements) for g in elements)
    table = CycloMatrix([[rational((-1) ** sum(a * b for a, b in zip(g, h))) for h in elements]
                         for g in elements])
    inp = CategoryInput(name="z2^4", conductor=1,
                        labels=tuple(map(str, range(16))), fusion=fusion,
                        dims=tuple(rational(1) for _ in range(16)), char_table=table)
    return CharacterAlgebra(build_category(inp))


_INVARIANTS_MESSAGE = "cointegral is not the sum of the idempotents in its support"
_MAIN = "fourier(drinfeld(lambda_D)) = (dim D'/dim C) lambda_D'"
# Every failing check of full_suite with one subcategory D corrupted: D's
# transform image doubled, its s-route replaced by [0], the dimension in its
# invariant bundle doubled, or alg.subset_dim doubled at D, which every
# bundle is built from.  Each failing law names the first subcategory, in
# enumeration order, where it fails.  toric_code's D = [0, 2] is its own
# centralizer; in toric_code^2 the centralizer of D = [0, 3, 13, 14] is
# D' = [0, 7, 11, 12], and a law checked at D' that reads D's s-route or
# bundle names D'.
BATCHED_LAW_CASES = {
    ("toric_code", 2, "image"): {
        "main-identity": f"D = [0, 2]: {_MAIN}",
        "integral-transfer": "D = [0, 2]: ell_D' = (dim C/dim D') drinfeld(lambda_D)",
    },
    ("toric_code", 2, "s-route"): {
        "centralizer-route-agreement": "D = [0, 2]: s-route [0] != transform route [0, 2]",
        "double-centralizer": "D = [0, 2]: (D')' = [0]",
    },
    ("toric_code", 2, "bundle dim"): {
        "main-identity": f"D = [0, 2]: {_MAIN}",
        "dim-product": "D = [0, 2]: dim D = 4, dim D' = 4",
    },
    ("toric_code", 2, "subset_dim"): dict.fromkeys(
        ("subcat-invariants", *centralizer_module._LAWS), _INVARIANTS_MESSAGE
    ),
    ("toric_code^2", 34, "image"): {
        "main-identity": f"D = [0, 3, 13, 14]: {_MAIN}",
        "integral-transfer": "D = [0, 3, 13, 14]: ell_D' = (dim C/dim D') drinfeld(lambda_D)",
    },
    ("toric_code^2", 34, "s-route"): {
        "centralizer-route-agreement":
            "D = [0, 3, 13, 14]: s-route [0] != transform route [0, 7, 11, 12]",
        "double-centralizer": "D = [0, 7, 11, 12]: (D')' = [0]",
    },
    ("toric_code^2", 34, "bundle dim"): {
        "main-identity": f"D = [0, 7, 11, 12]: {_MAIN}",
        "dim-product": "D = [0, 3, 13, 14]: dim D = 8, dim D' = 4",
    },
    ("toric_code^2", 34, "subset_dim"): dict.fromkeys(
        ("subcat-invariants", *centralizer_module._LAWS), _INVARIANTS_MESSAGE
    ),
    ("z2^4 ring", 33, "subset_dim"): {"subcat-invariants": _INVARIANTS_MESSAGE},
}


@pytest.mark.parametrize("name,at,how", list(BATCHED_LAW_CASES))
def test_batched_laws_name_the_first_failing_subcategory(monkeypatch, name, at, how):
    make = {"toric_code": lambda: CharacterAlgebra(catalog_get("toric_code")),
            "toric_code^2": _toric2, "z2^4 ring": _z2_4_ring}[name]
    alg = make()
    d = enumerate_subcats(alg)[at]
    if how == "image":
        results = centralizer_module._results
        monkeypatch.setattr(centralizer_module, "_results", lambda alg, subcats: [
            replaced(r, image=r.image.scaled(2)) if e == d else r
            for e, r in zip(subcats, results(alg, subcats))
        ])
    elif how == "s-route":
        smatrix = centralizer_module.centralizer_smatrix
        monkeypatch.setattr(centralizer_module, "centralizer_smatrix", lambda alg, e: (
            FusionSubcategory((0,)) if e == d else smatrix(alg, e)
        ))
    elif how == "bundle dim":
        invariants = lattice._invariants

        def doubled(alg, subcats):
            return [replaced(inv, dim=inv.dim * 2) if inv.subcat == d else inv
                    for inv in invariants(alg, subcats)]

        monkeypatch.setattr(lattice, "_invariants", doubled)
        monkeypatch.setattr(centralizer_module, "_invariants", doubled)
    else:  # a fresh algebra, so that enumeration and the bundles read the doubled dimension
        alg = make()
        subset_dim = alg.subset_dim
        alg.subset_dim = lambda members: (
            subset_dim(members) * (2 if tuple(members) == d.members else 1)
        )
    failed = {c.check_id: c.detail for c in full_suite(alg) if c.status == "fail"}
    assert failed == BATCHED_LAW_CASES[name, at, how]


def test_centralizer_suite_reports_a_route_failure_instead_of_raising(monkeypatch, capsys):
    # with s_0f no longer read as degenerate, the s-route of D = <1> takes
    # {1, e, m}, which is not fusion-closed; the whole category C has C' = <1>
    # by the transform route, so C'' meets the same failure
    masks = CharacterAlgebra._degenerate_masks.func
    monkeypatch.setattr(CharacterAlgebra, "_degenerate_masks",
                        property(lambda alg: (*masks(alg)[:3], masks(alg)[3] & ~1)))
    alg = CharacterAlgebra(catalog_get("toric_code"))
    message = "s-matrix centralizer is not fusion-closed"
    unit, whole = FusionSubcategory((0,)), FusionSubcategory((0, 1, 2, 3))
    with pytest.raises(NotRibbonConsistentError, match=message):
        centralizer(alg, unit)
    assert [(c.check_id, c.status, c.detail) for c in verify_main_identity(alg, unit)] == [
        ("centralizer-route-agreement", "fail", message)
    ]
    failed = {c.check_id: c.detail for c in verify_main_identity(alg, whole) if c.status == "fail"}
    assert failed == {"double-centralizer": message}
    failed = {c.check_id: c.detail for c in centralizer_suite(alg) if c.status == "fail"}
    assert failed == {
        "centralizer-route-agreement": f"D = [0]: {message}",
        "double-centralizer": "D = [0, 3]: (D')' = [0]",
    }
    assert run(["verify", "--catalog", "toric_code"]) == 2  # a report, not an error line
    out, err = capsys.readouterr()
    assert err == "" and "double-centralizer" in out and "integral-image" in out


def test_suite_reads_closedness_off_the_lattice_record(monkeypatch):
    # once enumeration has built the record, which holds every closed mask,
    # the suite's routes are looked up there and close no mask; the
    # centralizer command, which does not enumerate, closes each route's set
    closures, close = [], lattice._close

    def counted(*args):
        closures.append(args)
        return close(*args)

    monkeypatch.setattr(lattice, "_close", counted)
    alg = _toric2()
    single = centralizer(alg, FusionSubcategory((0, 1)))
    assert single.agreed and len(closures) == 2
    enumerate_subcats(alg)
    closures.clear()
    checks = centralizer_suite(alg)
    assert [c.status for c in checks] == ["pass"] * 7 and closures == []
