"""Fusion subcategory lattice, universal grading, prime-index correspondence."""

import gc
import importlib
import math
import random
import weakref
from functools import partial
from itertools import permutations, product
from pathlib import Path

import pytest

from conftest import replaced

from fusioncat import lattice
from fusioncat import (
    CategoryInput,
    CharacterAlgebra,
    FusionSubcategory,
    build_category,
    parse_category,
    catalog_get,
    catalog_names,
    enumerate_subcats,
    generate_subcat,
    grading,
    join,
    kernel_of_object,
    lattice_suite,
    meet,
    prime_index_check,
    subcat_invariants,
)
from fusioncat.category import category_to_input
from fusioncat.cyclotomic import CycloMatrix, rational, zeta
from fusioncat.errors import CapabilityError, InternalConsistencyError

INVARIANTS = lattice._invariants  # unpatched, for the corruptions below

# counts derived once by exhaustive closure over each entry and pinned
SUBCAT_COUNTS = {
    "trivial": 1,
    "vec_z2": 2,
    "vec_z3": 2,
    "vec_z4": 3,
    "vec_z5": 2,
    "vec_z6": 4,
    "vec_z7": 2,
    "vec_z8": 4,
    "semion": 2,
    "double_semion": 5,
    "toric_code": 5,
    "ising": 3,
    "fibonacci": 2,
}


@pytest.mark.parametrize("name", catalog_names())
def test_subcategory_counts(name, algs):
    assert len(enumerate_subcats(algs[name])) == SUBCAT_COUNTS[name]


def test_toric_member_sets(algs):
    members = {d.members for d in enumerate_subcats(algs["toric_code"])}
    assert members == {(0,), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)}


def test_generate_from_single_object(algs):
    assert generate_subcat(algs["ising"], [1]).members == (0, 1, 2)  # sigma
    assert generate_subcat(algs["ising"], [2]).members == (0, 2)  # psi
    assert generate_subcat(algs["fibonacci"], [1]).members == (0, 1)
    assert generate_subcat(algs["toric_code"], []).members == (0,)


def test_invariants_toric_half(algs):
    alg = algs["toric_code"]
    inv = subcat_invariants(alg, FusionSubcategory((0, 1)))
    assert inv.dim == rational(2)
    assert inv.index == rational(2)
    assert inv.support == (0, 1)
    half = rational(1) * rational(2).inv()
    assert inv.cointegral.coeffs == (half, half, rational(0), rational(0))
    assert inv.integral.coeffs == (
        rational(2),
        rational(2),
        rational(0),
        rational(0),
    )


def test_invariants_full_and_trivial(algs):
    alg = algs["fibonacci"]
    full = subcat_invariants(alg, FusionSubcategory((0, 1)))
    assert full.dim == alg.dim
    assert full.index == rational(1)
    assert full.support == (0,)
    point = subcat_invariants(alg, FusionSubcategory((0,)))
    assert point.dim == rational(1)
    assert point.index == alg.dim
    assert point.support == (0, 1)


def test_meet_join_toric(algs):
    alg = algs["toric_code"]
    de = FusionSubcategory((0, 1))
    dm = FusionSubcategory((0, 2))
    assert meet(alg, de, dm).members == (0,)
    assert join(alg, de, dm).members == (0, 1, 2, 3)
    assert join(alg, de, de).members == (0, 1)


def test_kernel_of_object(algs):
    assert kernel_of_object(algs["toric_code"], 1) == (0, 1)
    assert kernel_of_object(algs["toric_code"], 0) == (0, 1, 2, 3)
    assert kernel_of_object(algs["fibonacci"], 1) == (0,)


# -- universal grading -----------------------------------------------------------


def test_grading_toric(algs):
    grade = grading(algs["toric_code"])
    assert grade.adjoint.members == (0,)
    assert grade.pointed.members == (0, 1, 2, 3)
    assert grade.components == ((0,), (1,), (2,), (3,))
    # Klein four group
    assert grade.table == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def test_grading_ising(algs):
    grade = grading(algs["ising"])
    assert grade.adjoint.members == (0, 2)
    assert grade.components == ((0, 2), (1,))
    assert grade.table == ((0, 1), (1, 0))
    assert grade.pointed.members == (0, 2)


def test_grading_fibonacci_is_trivial(algs):
    grade = grading(algs["fibonacci"])
    assert grade.adjoint.members == (0, 1)
    assert grade.components == ((0, 1),)
    assert grade.pointed.members == (0,)


def test_grading_vec_z6_is_cyclic(algs):
    grade = grading(algs["vec_z6"])
    assert len(grade.components) == 6
    assert all(len(c) == 1 for c in grade.components)
    # cyclic: powers of one generator cover the group
    g = 1
    seen = {0}
    x = g
    while x not in seen or len(seen) == 1 and x != 0:
        seen.add(x)
        x = grade.table[x][g]
    assert len(seen) == 6


# -- prime index correspondence ---------------------------------------------------


def test_prime_index_toric(algs):
    report = prime_index_check(algs["toric_code"])
    assert report.applicable
    assert report.prime == 2
    assert len(report.subcategories) == 3
    assert len(report.subgroups) == 3
    assert len(report.pairs) == 3
    assert all(c.status == "pass" for c in report.checks)


def test_prime_index_vec_z4(algs):
    report = prime_index_check(algs["vec_z4"])
    assert report.applicable
    assert report.prime == 2
    assert {d.members for d in report.subcategories} == {(0, 2)}


def test_prime_index_not_applicable(algs):
    for name in ("ising", "fibonacci"):
        report = prime_index_check(algs[name])
        assert not report.applicable
        assert "integral" in report.reason
    assert not prime_index_check(algs["trivial"]).applicable


# -- the law suite ------------------------------------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_lattice_suite_passes(name, algs):
    checks = lattice_suite(algs[name])
    assert [c.check_id for c in checks if c.status == "fail"] == []


def _laws_with_support(monkeypatch, members, support):
    """lattice_suite on toric_code, reading the given support for the
    subcategory with these members; every closed form stays true."""

    def corrupted(alg, subcats):
        return [replaced(inv, support=support) if inv.subcat.members == members else inv
                for inv in INVARIANTS(alg, subcats)]

    monkeypatch.setattr(lattice, "_invariants", corrupted)
    checks = lattice_suite(CharacterAlgebra(catalog_get("toric_code")))
    return {c.check_id: (c.status, c.detail) for c in checks}


def test_lattice_suite_reports_each_law_separately(monkeypatch):
    # supports (0,) -> 0123, (0,1) -> 01, (0,2) -> 02, (0,3) -> 03, full -> 0
    first = ("fail", "failed at ((0, 1), (0, 2))")
    # (0,1) does not contain (0,2), yet support 0 lies inside 02; the
    # supports still intersect along every join
    laws = _laws_with_support(monkeypatch, (0, 1), (0,))
    assert (laws["support-antitone"], laws["join-cointegral"]) == (first, ("pass", ""))
    # an empty support keeps the order, but (0,1) v (0,2) is the full
    # subcategory, whose support () is not 01 & 02 = 0
    laws = _laws_with_support(monkeypatch, (0, 1, 2, 3), ())
    assert (laws["support-antitone"], laws["join-cointegral"]) == (("pass", ""), first)
    assert "meet-integral-scaling" not in laws


def test_lattice_suite_reports_the_join_law_at_its_first_pair(monkeypatch):
    laws = _laws_with_support(monkeypatch, (0, 1, 2, 3), (0, 1))
    assert laws["join-cointegral"] == ("fail", "failed at ((0, 1), (0, 2))")
    assert laws["support-antitone"] == ("fail", "failed at ((0, 1), (0, 1, 2, 3))")


@pytest.mark.parametrize("name", catalog_names())
def test_pair_laws_hold_as_class_algebra_products(name, algs):
    # the product forms that lattice_suite decides on support masks:
    # lambda_D lambda_E = lambda_{D v E}, and (ell_D dim D)(ell_E dim E) =
    # dim C ell_{D ^ E} dim(D ^ E)
    alg = algs[name]
    subcats = enumerate_subcats(alg)
    invs = {d.members: subcat_invariants(alg, d) for d in subcats}
    for d, e in product(subcats, repeat=2):
        di, ei = invs[d.members], invs[e.members]
        ji, mi = invs[join(alg, d, e).members], invs[meet(alg, d, e).members]
        assert alg.cf_mul(di.cointegral, ei.cointegral) == ji.cointegral
        assert set(ji.support) == set(di.support) & set(ei.support)
        assert alg.ce_mul(di.integral.scaled(di.dim), ei.integral.scaled(ei.dim)) == (
            mi.integral.scaled(mi.dim * alg.dim)
        )


def test_lattice_suite_reports_class_sizes_that_miss_the_index():
    alg = CharacterAlgebra(catalog_get("toric_code"))
    conj = alg.conjugacy()
    alg._conjugacy = replaced(conj, sizes=tuple(z + 1 for z in conj.sizes))
    laws = {c.check_id: c for c in lattice_suite(alg)}
    assert (laws["subcat-invariants"].status, laws["subcat-invariants"].detail) == (
        "fail",
        "index, counit of the integral and class sizes over the support disagree",
    )


def test_pair_laws_read_only_the_atom_join_table(monkeypatch):
    # toric_code has 5 subcategories and 4 atoms.  On passing input the
    # pair laws read at most 5 * 4 entries of the join table in the lattice
    # record; they close no mask, multiply no class functions or central
    # elements, form no meet or join, and run no antitone scan.
    alg = CharacterAlgebra(catalog_get("toric_code"))
    subcats = enumerate_subcats(alg)
    grading(alg)
    masks = lattice._ring_masks(alg)
    oracle = lattice._closed_masks(masks, alg.rank)
    closures, reads, close = [], [], lattice._close
    record = lattice._lattice(alg)

    class CountedRow(tuple):
        def __getitem__(self, k):
            reads.append(k)
            return tuple.__getitem__(self, k)

        def __iter__(self):
            for k in range(len(self)):
                yield self[k]

    counted = (*record[:3], tuple(map(CountedRow, record[3])))
    monkeypatch.setattr(lattice, "_lattice", lambda alg: counted)

    def counted_close(table, closed, new):
        if table is masks:
            closures.append((closed, new))
        return close(table, closed, new)

    def forbidden(*args):
        raise AssertionError("the pair laws run on support masks")

    alg.cf_mul = alg.ce_mul = forbidden
    for name in ("meet", "join", "generate_subcat", "_antitone_witness"):
        monkeypatch.setattr(lattice, name, forbidden)
    monkeypatch.setattr(lattice, "_closed_masks", lambda table, rank: oracle)
    monkeypatch.setattr(lattice, "_close", counted_close)
    checks = lattice_suite(alg)
    assert [c.check_id for c in checks if c.status == "fail"] == []
    assert closures == []
    assert len(record[2]) == 4
    assert 0 < len(reads) <= len(subcats) * len(record[2])


def test_lattice_suite_reports_a_grading_failure_instead_of_raising(monkeypatch):
    # an ill-defined grading fails adjoint-support and the prime-index
    # check with its message; neither raises
    def broken(alg):
        raise InternalConsistencyError("grading group is not associative")

    monkeypatch.setattr(lattice, "grading", broken)
    checks = lattice_suite(CharacterAlgebra(catalog_get("toric_code")))
    failed = [(c.check_id, c.detail) for c in checks if c.status == "fail"]
    assert failed == [
        ("adjoint-support", "grading group is not associative"),
        ("prime-index", "grading group is not associative"),
    ]


def test_lattice_memo_dies_with_its_algebra():
    gc.collect()  # drop algebras left behind by earlier tests
    alg = CharacterAlgebra(catalog_get("toric_code"))
    before = len(lattice._MEMOS)
    lattice_suite(alg)
    assert len(lattice._MEMOS) == before + 1
    assert not {"_subcats", "_subcat_cache", "_grading"} & set(vars(alg))
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None
    assert len(lattice._MEMOS) == before


def test_memo_keeps_no_raised_error():
    # without an s-matrix or a character table conjugacy() raises before
    # any work; the error reaches the caller each time, and the memo keeps
    # no entry for the rows it stopped
    inp = category_to_input(catalog_get("toric_code"), kind="fusion_ring")
    alg = CharacterAlgebra(build_category(replaced(inp, char_table=None)))
    for _ in range(2):
        with pytest.raises(CapabilityError, match="needs an s-matrix or a character table"):
            subcat_invariants(alg, FusionSubcategory((0,)))
    assert ("_invariant_rows",) not in lattice._MEMOS[alg]


def test_enumeration_refuses_an_uncertified_dimension_order():
    # p - q sqrt(2) with p^2 - 2 q^2 = 1 is about 7.5e-7, well inside the
    # rounding bound of a float sum whose terms are near 1e6
    p, q = 665857, 470832
    gap = rational(p) - q * (zeta(8) - zeta(8, 3))
    alg = CharacterAlgebra(catalog_get("toric_code"))
    alg.subset_dim = lambda members: rational(1) + gap * (len(members) - 1)
    with pytest.raises(InternalConsistencyError) as refused:
        enumerate_subcats(alg)
    assert str(refused.value) == (
        "cannot order subcategories (0, 1, 2, 3) and (0, 2): their dimensions "
        "differ by 1.5e-06, within the rounding bound 1.17e-05"
    )


@pytest.mark.parametrize("name", ["z2^4", "fibonacci", "ising"])
def test_exact_differences_alone_give_the_same_order(monkeypatch, name):
    # with every per-dimension float key abstaining (an infinite rounding
    # bound), each pair of distinct dimensions is ordered by its exact
    # difference, and the order is the one the float keys give
    def make():
        if name == "z2^4":
            return _group_ring(name, *_abelian(2, 2, 2, 2))[0]
        return CharacterAlgebra(catalog_get(name))

    want = [d.members for d in enumerate_subcats(make())]
    dim, rounded, dims, gaps = lattice._dim, lattice._rounded, set(), []

    def recorded(alg, members):
        v = dim(alg, members)
        dims.add(id(v))
        return v

    def abstaining(v):
        x, bound = rounded(v)
        if id(v) in dims:
            return x, math.inf
        gaps.append(v)
        return x, bound

    monkeypatch.setattr(lattice, "_dim", recorded)
    monkeypatch.setattr(lattice, "_rounded", abstaining)
    assert [d.members for d in enumerate_subcats(make())] == want
    assert len(dims) == len(want) and gaps


def test_enumeration_orders_equal_dimensions_by_members():
    alg = CharacterAlgebra(catalog_get("toric_code"))
    # every subcategory but the trivial one gets dimension 2
    alg.subset_dim = lambda members: rational(min(len(members), 2))
    assert [d.members for d in enumerate_subcats(alg)] == [
        (0,), (0, 1), (0, 1, 2, 3), (0, 2), (0, 3)
    ]


def test_enumeration_stops_when_the_oracle_disagrees(monkeypatch):
    # a join closure that loses one subcategory must fail the match check
    # and stop there, not run the pair laws over an incomplete set
    build = lattice._lattice

    def lossy(alg):
        subcats, masks, atoms, joins = build(alg)
        return subcats[1:], masks[1:], atoms, joins

    monkeypatch.setattr(lattice, "_lattice", lossy)
    checks = lattice_suite(CharacterAlgebra(catalog_get("toric_code")))
    assert [(c.check_id, c.status) for c in checks] == [
        ("enumeration-generator-match", "fail")
    ]
    assert checks[0].detail == "join closure finds 4, subset closure 5"


# -- group rings: join closure against the subset sweep ---------------------------


def _group_ring(name, elements, mul, character=None):
    """The group ring of a finite group as a conductor-1 fusion ring; the
    identity must come first in elements.  character(g, h), the character
    of g at h for an abelian group, gives it a character table."""
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    table = [[index[mul(g, h)] for h in elements] for g in elements]
    fusion = tuple(
        tuple(tuple(1 if k == table[i][j] else 0 for k in range(n)) for j in range(n))
        for i in range(n)
    )
    inp = CategoryInput(
        name=name,
        conductor=1,
        labels=tuple(str(i) for i in range(n)),
        fusion=fusion,
        dims=tuple(rational(1) for _ in range(n)),
        char_table=None if character is None else CycloMatrix(
            [[character(g, h) for h in elements] for g in elements]
        ),
    )
    return CharacterAlgebra(build_category(inp)), table


def _abelian(*moduli):
    elements = list(product(*(range(m) for m in moduli)))
    return elements, lambda g, h: tuple((a + b) % m for a, b, m in zip(g, h, moduli))


S3 = (sorted(permutations(range(3))), lambda g, h: tuple(g[h[x]] for x in range(3)))


@pytest.mark.parametrize(
    "name,group,count",
    [
        ("z2^3", _abelian(2, 2, 2), 16),
        ("z12", _abelian(12), 6),
        ("z3^2", _abelian(3, 3), 6),
        ("s3", S3, 6),
    ],
)
def test_join_closure_matches_subset_sweep_on_group_rings(name, group, count):
    alg, _ = _group_ring(name, *group)
    assert len(enumerate_subcats(alg)) == count
    match = lattice_suite(alg)[0]
    assert (match.check_id, match.status, match.detail) == (
        "enumeration-generator-match",
        "pass",
        f"{count} subcategories",
    )


def _closures_from_scratch(alg):
    """The closure of every subset of the non-unit objects (bit b of the
    index for object b + 1), from the definition: the intersection of all
    closed sets holding the subset and 0, where a set is closed when it holds
    the dual of each member and every constituent of every product of two."""
    data = alg.data

    def is_closed(members):
        return all(data.dual[a] in members for a in members) and all(
            k in members for a in members for b in members for k, _ in data.nonzero[a][b]
        )

    subsets = [
        {0} | {b + 1 for b in range(alg.rank - 1) if m >> b & 1}
        for m in range(1 << (alg.rank - 1))
    ]
    closed = [s for s in subsets if is_closed(s)]
    return [set.intersection(*(c for c in closed if s <= c)) for s in subsets]


def _closed_mask_count(monkeypatch, alg):
    """Assert that NextClosure lists the closures from scratch, each once, in
    lectic order (the lowest differing bit decides), with at most
    L (rank - 1) closures for L closed sets; return L."""
    masks, close, calls = lattice._ring_masks(alg), lattice._close, []

    def counted_close(*args):
        calls.append(args)
        return close(*args)

    monkeypatch.setattr(lattice, "_close", counted_close)
    found = lattice._closed_masks(masks, alg.rank)
    want = {sum(1 << i for i in c) for c in _closures_from_scratch(alg)}
    assert set(found) == want
    assert len(found) == len(want)
    assert found == sorted(found, key=lambda m: f"{m:0{alg.rank}b}"[::-1])
    assert len(calls) <= len(found) * (alg.rank - 1)
    return len(found)


@pytest.mark.parametrize(
    "name,group,count",
    [
        ("z2^3", _abelian(2, 2, 2), 16),
        ("z12", _abelian(12), 6),
        ("z3^2", _abelian(3, 3), 6),
        ("s3", S3, 6),
        ("z2^4", _abelian(2, 2, 2, 2), 67),
    ],
)
def test_subset_closures_match_closure_from_scratch_on_group_rings(
    monkeypatch, name, group, count
):
    alg, _ = _group_ring(name, *group)
    assert _closed_mask_count(monkeypatch, alg) == count


@pytest.mark.parametrize("name", catalog_names())
def test_subset_closures_match_closure_from_scratch_on_the_catalog(monkeypatch, name, algs):
    assert _closed_mask_count(monkeypatch, algs[name]) == SUBCAT_COUNTS[name]


def _gaussian_binomial_sum(n, q=2):
    """The number of subspaces of F_q^n: the sum over k of [n k]_q."""
    total, term = 0, 1
    for k in range(n + 1):
        total += term
        term = term * (q ** (n - k) - 1) // (q ** (k + 1) - 1)
    return total


@pytest.mark.parametrize("n,count", [(5, 374), (6, 2825)])
def test_closed_masks_count_the_subgroups_of_f2n_past_the_rank_cap(n, count):
    # the group table of F_2^n (xor on indices), closed as in
    # _subgroups_of_index; rank 2^n is past ENUMERATION_RANK_LIMIT
    order = 1 << n
    table = [[g ^ h for h in range(order)] for g in range(order)]
    masks = lattice._product_masks([[((c, 1),) for c in row] for row in table], range(order))
    found = lattice._closed_masks(masks, order)
    assert len(found) == len(set(found)) == _gaussian_binomial_sum(n) == count


def test_subgroups_of_index_keeps_only_normal_subgroups():
    _, table = _group_ring("s3", *S3)
    # in sorted order 0 is the identity and 3, 4 are the two 3-cycles
    assert lattice._subgroups_of_index(table, 2) == [(0, 3, 4)]
    # the three subgroups of order 2 have index 3 but none is normal
    assert lattice._subgroups_of_index(table, 3) == []


def _subgroups_by_listing(table, p):
    """The oracle for _subgroups_of_index: list every subgroup as a join of
    cyclic ones, then keep those of index p that are normal."""
    order = len(table)
    if order % p:
        return []
    inv = [row.index(0) for row in table]
    masks = lattice._product_masks([[((c, 1),) for c in row] for row in table], inv)
    close = partial(lattice._close, masks)
    cyclic = {close(1, 1 << g) for g in range(order)}
    subgroups, todo = set(cyclic), list(cyclic)
    while todo:  # each join found is joined with every cyclic subgroup
        joined = todo.pop()
        for c in cyclic:
            if (j := close(joined, c)) not in subgroups:
                subgroups.add(j)
                todo.append(j)
    return [
        sub
        for sub in sorted(map(lattice._members, subgroups))
        if len(sub) == order // p
        and all(table[g][table[h][inv[g]]] in sub for g in range(order) for h in sub)
    ]


def _table(elements, mul):
    index = {g: i for i, g in enumerate(elements)}
    return [[index[mul(g, h)] for h in elements] for g in elements]


def _quaternion(a, b):
    (w, x, y, z), (p, q, r, s) = a, b
    return (w * p - x * q - y * r - z * s, w * q + x * p + y * s - z * r,
            w * r - x * s + y * p + z * q, w * s + x * r - y * q + z * p)


UNITS = [(1, 0, 0, 0)] + [u for u in product((-1, 0, 1), repeat=4)
                          if sum(map(abs, u)) == 1 and u != (1, 0, 0, 0)]
GROUPS = {  # D4 = Z/4 x| Z/2, (a, s)(b, t) = (a + (-1)^s b, s + t); Q8 the unit quaternions
    "s3": S3,
    "d4": (list(product(range(4), range(2))),
           lambda g, h: ((g[0] + (-1) ** g[1] * h[0]) % 4, (g[1] + h[1]) % 2)),
    "q8": (UNITS, _quaternion),
    "z12": _abelian(12),
    "z3^2": _abelian(3, 3),
    "z6xz2": _abelian(6, 2),
    "z2^4": _abelian(2, 2, 2, 2),
    "f2^5": _abelian(2, 2, 2, 2, 2),
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", list(GROUPS))
def test_hyperplanes_match_the_subgroup_listing(name, p):
    # the kernels of the functionals on G/G'G^p are the index-p normal
    # subgroups that listing every subgroup finds, in the same order
    table = _table(*GROUPS[name])
    assert lattice._subgroups_of_index(table, p) == _subgroups_by_listing(table, p)


@pytest.mark.parametrize("name", ["d4", "q8"])
def test_hyperplanes_of_a_group_with_nontrivial_commutators(name):
    # G' = G^2 = {1, z} for the central z of order 2, so G/G'G^2 = F_2^2 has
    # three lines of functionals, three normal subgroups of order 4
    table = _table(*GROUPS[name])
    found = lattice._subgroups_of_index(table, 2)
    assert len(found) == 3 and all(len(sub) == 4 for sub in found)


def test_sixty_three_index_two_subgroups_of_f2_6():
    table = [[g ^ h for h in range(64)] for g in range(64)]
    found = lattice._subgroups_of_index(table, 2)
    assert len(found) == len(set(found)) == 63
    assert all(len(sub) == 32 for sub in found)


def test_close_returns_the_closed_mask_when_new_adds_nothing():
    # no product table is read: None in its place would raise
    assert lattice._close(None, 0b1011, 0b0011) == 0b1011
    assert lattice._close(None, 1, 0) == 1


def _z17():
    n = 17
    fusion = tuple(
        tuple(
            tuple(1 if k == (i + j) % n else 0 for k in range(n)) for j in range(n)
        )
        for i in range(n)
    )
    inp = CategoryInput(
        name="z17",
        conductor=1,
        labels=tuple(str(i) for i in range(n)),
        fusion=fusion,
        dims=tuple(rational(1) for _ in range(n)),
        char_table=None,
    )
    return CharacterAlgebra(build_category(inp))


def test_z17_group_ring_enumerates_past_the_old_rank_cap():
    # rank 17 was past the old rank-16 cap; Z/17 has two subgroups
    alg = _z17()
    assert [d.members for d in enumerate_subcats(alg)] == [(0,), tuple(range(17))]
    assert generate_subcat(alg, [4]).members == tuple(range(17))


def test_enumeration_stops_past_the_subcategory_limit(monkeypatch):
    # toric_code has 5 subcategories; with a bound of 3 the enumeration
    # stops and names the bound.  The error is kept with the algebra, so a
    # later call raises it again; the algebra still dies when dropped, and
    # a new one enumerates afresh
    monkeypatch.setattr(lattice, "SUBCATEGORY_LIMIT", 3)
    alg = CharacterAlgebra(catalog_get("toric_code"))
    why = "subcategory enumeration stopped past SUBCATEGORY_LIMIT = 3 subcategories"
    for _ in range(2):
        with pytest.raises(CapabilityError, match=f"^{why}$"):
            enumerate_subcats(alg)
        monkeypatch.setattr(lattice, "SUBCATEGORY_LIMIT", 5)
    dropped = weakref.ref(alg)
    del alg
    gc.collect()
    assert dropped() is None
    assert len(enumerate_subcats(CharacterAlgebra(catalog_get("toric_code")))) == 5


@pytest.mark.parametrize("name", catalog_names())
def test_join_fold_matches_closure_on_the_catalog(name):
    _assert_join_fold_matches_closure(CharacterAlgebra(catalog_get(name)))


@pytest.mark.parametrize("group", [
    _abelian(2, 2, 2), _abelian(12), _abelian(3, 3), S3, _abelian(2, 2, 2, 2)
], ids=["z2^3", "z12", "z3^2", "s3", "z2^4"])
def test_join_fold_matches_closure_on_group_rings(group):
    _assert_join_fold_matches_closure(_group_ring("g", *group)[0])


def _assert_join_fold_matches_closure(alg):
    # the lattice record holds the member masks in subcategory order, the
    # distinct atoms A = <i> in that order, and joins[a][k], the index of
    # D_a v A_k, each the closure of D | A from its definition; so
    # folding the table along the atoms of E, as lattice_suite's proof
    # does, gives D v E on every ordered pair
    closure = [sum(1 << i for i in c) for c in _closures_from_scratch(alg)]
    masks = [sum(1 << i for i in d.members) for d in enumerate_subcats(alg)]
    principal = [closure[1 << i >> 1] for i in range(alg.rank)]  # bit 0 is the unit
    _, kept, atoms, joins = lattice._lattice(alg)
    atoms = [masks[x] for x in atoms]
    assert list(kept) == masks
    assert atoms == sorted(set(principal), key=masks.index)
    assert [len(row) for row in joins] == [len(atoms)] * len(masks)
    for d, row in zip(masks, joins):
        for atom, joined in zip(atoms, row):
            assert masks[joined] == closure[(d | atom) >> 1]
    for d, e in product(range(len(masks)), repeat=2):
        folded = d
        for i in range(alg.rank):
            if masks[e] >> i & 1:
                folded = joins[folded][atoms.index(principal[i])]
        assert masks[folded] == closure[(masks[d] | masks[e]) >> 1]


def _brute_force_laws(masks, supports, joined, atoms):
    """The first failing pair of each law over all ordered pairs of indices,
    row-major, from the definitions: the join law s(D v E) = s(D) & s(E),
    with D v E = masks[joined[a, b]], and antitone, D >= E iff s(D) <= s(E);
    for the join law also its first failing (D, A), A over the indices of
    the atoms in increasing order."""
    pairs = list(product(range(len(masks)), repeat=2))
    join_at = next((
        (a, b) for a, b in pairs if supports[joined[a, b]] != supports[a] & supports[b]
    ), None)
    atom_at = next((
        (a, b) for a in range(len(masks)) for b in atoms
        if supports[joined[a, b]] != supports[a] & supports[b]
    ), None)
    antitone_at = next((
        (a, b) for a, b in pairs
        if (masks[a] & masks[b] == masks[b]) != (supports[a] & supports[b] == supports[a])
    ), None)
    return join_at, atom_at, antitone_at


def _random_supports(rng, masks, true, rank):
    """A support mask per subcategory: a perturbed true map, a uniformly
    random one, or s(D) = {x : D <= T_x} for random T_x, which satisfies the
    join law and may repeat supports."""
    mode = rng.randrange(3)
    if mode == 0:
        supports = list(true)
        for _ in range(rng.randint(1, 2)):
            supports[rng.randrange(len(masks))] = rng.getrandbits(rank)
        return supports
    if mode == 1:
        return [rng.getrandbits(rank) for _ in masks]
    tops = [rng.choice(masks) for _ in range(rank)]
    return [sum(1 << x for x, t in enumerate(tops) if m & t == m) for m in masks]


def _sign_character(g, h):
    return rational((-1) ** sum(a * b for a, b in zip(g, h)))


RANDOM_MAP_CASES = [(name, None) for name in catalog_names()] + [
    ("z2^4", (*_abelian(2, 2, 2, 2), _sign_character))
]


@pytest.mark.parametrize("name,group", RANDOM_MAP_CASES, ids=[n for n, _ in RANDOM_MAP_CASES])
def test_pair_laws_match_all_pairs_on_random_support_maps(monkeypatch, name, group):
    # the statuses and first failures lattice_suite reports from the atom
    # joins and its antitone certificate equal the all-pairs definitions,
    # whatever support map it is given
    alg = CharacterAlgebra(catalog_get(name)) if group is None else _group_ring(name, *group)[0]
    subcats = enumerate_subcats(alg)
    masks = [sum(1 << i for i in d.members) for d in subcats]
    index = {m: x for x, m in enumerate(masks)}
    closure = [sum(1 << i for i in c) for c in _closures_from_scratch(alg)]
    joined = {(a, b): index[closure[(ma | mb) >> 1]]
              for (a, ma), (b, mb) in product(enumerate(masks), repeat=2)}
    atoms = sorted({index[closure[1 << i >> 1]] for i in range(alg.rank)})  # bit 0 is the unit
    true = [sum(1 << j for j in subcat_invariants(alg, d).support) for d in subcats]
    rng = random.Random(name)
    current = {}

    def corrupted(alg, subcats):
        return [replaced(inv, support=tuple(
            j for j in range(alg.rank) if current[sum(1 << i for i in inv.subcat.members)] >> j & 1
        )) for inv in INVARIANTS(alg, subcats)]

    monkeypatch.setattr(lattice, "_invariants", corrupted)
    outcomes = set()
    for supports in [true] + [_random_supports(rng, masks, true, alg.rank) for _ in range(30)]:
        current.clear()
        current.update(zip(masks, supports))
        join_at, atom_at, antitone_at = _brute_force_laws(masks, supports, joined, atoms)
        assert (join_at is None) == (atom_at is None)
        laws = {c.check_id: c for c in lattice_suite(alg)}
        for law, at in (("join-cointegral", atom_at), ("support-antitone", antitone_at)):
            detail = "" if at is None else f"failed at {tuple(subcats[x].members for x in at)}"
            assert (laws[law].status, laws[law].detail) == (
                "pass" if at is None else "fail", detail
            )
        outcomes.add((join_at is None, antitone_at is None))
    assert (True, True) in outcomes
    if len(subcats) > 2:
        assert (False, False) in outcomes


@pytest.mark.parametrize("name", catalog_names())
def test_batched_invariants_match_the_formulas(name):
    # each bundle from one _invariants pass over every subcategory against
    # the Cyclotomic formulas, one subcategory at a time: dim D =
    # sum d_i d_{i*}, lambda_D = sum_{i in D} d_{i*} chi_i / dim D,
    # ell_D = index 1_D, and supp D = {j : <F_j, ell_D> != 0}; the
    # dimension is the one enumeration ordered by, and prime_index_check
    # selects the D of dimension dim C / p
    alg = CharacterAlgebra(catalog_get(name))
    subcats = enumerate_subcats(alg)
    d, dual, rank = alg.dims, alg.dual, alg.rank
    zero = rational(0)
    conj = alg.conjugacy()
    dims = []
    for sub, inv in zip(subcats, lattice._invariants(alg, subcats)):
        dim = sum((d[i] * d[dual[i]] for i in sub.members), zero)
        dims.append(dim)
        assert inv.dim is lattice._dim(alg, sub.members)
        index = alg.dim * dim.inv()
        lam = [d[dual[i]] * dim.inv() if i in sub else zero for i in range(rank)]
        ell = [index if i in sub else zero for i in range(rank)]
        support = tuple(
            j for j in range(rank)
            if sum((f * e * dk for f, e, dk in zip(conj.idempotents[j].coeffs, ell, d)), zero)
        )
        assert (inv.subcat, inv.dim, inv.index, inv.support) == (sub, dim, index, support)
        assert list(inv.cointegral.coeffs) == lam
        assert list(inv.integral.coeffs) == ell
        assert inv is subcat_invariants(alg, sub)
    assert [x.embed().real for x in dims] == sorted(x.embed().real for x in dims)
    report = prime_index_check(alg)
    if report.applicable:
        dim_c = int(alg.dim.rational_value)
        assert report.subcategories == tuple(
            sub for sub, dim in zip(subcats, dims) if dim == dim_c // report.prime
        )


def test_subcat_invariants_carry_the_cointegral(algs):
    for name in ("toric_code", "ising", "fibonacci"):
        alg = algs[name]
        for d in enumerate_subcats(alg):
            assert subcat_invariants(alg, d).cointegral == alg.cointegral(d.members)


def test_zero_subcategory_dimension_raises_before_the_cointegral(monkeypatch):
    alg = CharacterAlgebra(catalog_get("toric_code"))
    d = enumerate_subcats(alg)[1]
    monkeypatch.setattr(lattice, "_dim", lambda alg, members: rational(0))
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        subcat_invariants(alg, d)


# -- the join table against the closure fold --------------------------------------


def _close_fold(alg):
    """The lattice by closures alone, as the record was built before joins were
    product sets: the atoms <i>, each closed from {0, i}, and for every join
    of atoms D the row {A: D v A}, each the closure of D | A."""
    close, masks = lattice._close, lattice._ring_masks(alg)
    atoms = {close(masks, 1, 1 << i) for i in range(alg.rank)}
    rows, todo = {}, list(atoms)
    while todo:
        d = todo.pop()
        if d not in rows:
            rows[d] = {a: close(masks, d, a) for a in atoms}
            todo.extend(rows[d].values())
    return atoms, rows


def _fusion_ring(gen, cat):
    """The fusion-ring form of a generated category."""
    return CharacterAlgebra(build_category(parse_category(gen.ring_json(cat))))


COMMUTATIVE_RINGS = {  # name: the algebra, from perfbench's generators
    **{f"z{a}xz{b}": partial(lambda gen, a, b: _group_ring("g", *_abelian(a, b))[0], a=a, b=b)
       for a, b in ((2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (3, 5))},
    **{f"su2_{k}": partial(lambda gen, k: _fusion_ring(gen, gen.su2(k)), k=k) for k in range(1, 9)},
    "semion x su2_4": lambda gen: _fusion_ring(gen, gen.deligne(gen.semion(), gen.su2(4))),
    "su2_2 x su2_3": lambda gen: _fusion_ring(gen, gen.deligne(gen.su2(2), gen.su2(3))),
}


@pytest.mark.parametrize("name", list(COMMUTATIVE_RINGS))
def test_lattice_record_matches_the_close_fold(name, monkeypatch):
    # on a commutative ring the record's masks, atoms and join table equal the
    # closure fold's, and are built with no closure: joins are product sets
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    alg = COMMUTATIVE_RINGS[name](importlib.import_module("gen"))
    atoms, rows = _close_fold(alg)

    def forbidden(*args):
        raise AssertionError("a commutative ring joins by product sets")

    monkeypatch.setattr(lattice, "_close", forbidden)
    subcats, masks, kept, joins = lattice._lattice(alg)
    assert sorted(masks) == sorted(rows) and len(masks) == len(set(masks))
    assert [d.members for d in subcats] == [lattice._members(m) for m in masks]
    assert list(kept) == sorted(kept) and {masks[k] for k in kept} == atoms
    for d, row in zip(masks, joins):
        assert {masks[k]: masks[j] for k, j in zip(kept, row)} == rows[d]


@pytest.mark.parametrize("name,count", [("s3", 6), ("d4", 10), ("q8", 6)])
def test_non_commutative_group_rings_keep_the_closure_joins(name, count):
    # product sets of subgroups of a non-abelian group need not be subgroups,
    # so these rings take the closure fold: every subgroup, each once
    alg = _group_ring(name, *GROUPS[name])[0]
    assert len(enumerate_subcats(alg)) == count
    atoms, rows = _close_fold(alg)
    assert sorted(lattice._lattice(alg)[1]) == sorted(rows)
