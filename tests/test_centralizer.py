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
from fusioncat.cli import full_suite
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
    s, d = alg.data.modular.s.rows, alg.dims
    subcats = enumerate_subcats(alg)
    for sub, result in zip(subcats, centralizer_module._results(alg, subcats)):
        lam = alg.cointegral(sub.members).coeffs
        want = [sum((lam[i] * s[i][j] for i in range(alg.rank)), rational(0)) * d[j].inv()
                for j in range(alg.rank)]
        assert list(result.image.coeffs) == want
        assert result.members == centralizer_smatrix(alg, sub).members


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def test_rank_32_product_verifies_with_nothing_skipped():
    # toric_code (x) toric_code (x) semion: rank 32, past the old rank-16 cap
    toric = catalog_get("toric_code").modular.s.rows
    s = _kron(_kron(toric, toric), catalog_get("semion").modular.s.rows)
    inp = CategoryInput(name="tc2s", kind="modular", conductor=1,
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
