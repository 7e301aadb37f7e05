"""Tests of the benchmark's generators and checkers.

    python3 -m pytest perfbench -q

The generator tests use no fusioncat code.  The checker tests run the real
CLI in-process to get genuine reports, then show that each checker accepts
them against the true model and reports a failure against a wrong one.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def numeric(m):
    return [[oracle.embed(v) for v in row] for row in m]


GENERATED = {
    **{f"su2_{k}": (lambda k=k: gen.su2(k)) for k in range(1, 8)},
    "vec_z5": lambda: gen.vec_zn(5),
    "vec_z12": lambda: gen.vec_zn(12),
    "double_semion": gen.double_semion,
    "toric_code2": lambda: gen.deligne_power(gen.toric_code(), 2, "toric_code2"),
    "semion4": lambda: gen.deligne_power(gen.semion(), 4, "semion4"),
}


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_poly_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert list(gen.cyclotomic_poly(n)) == [int(c) for c in want]


@pytest.mark.parametrize("n", [1, 4, 5, 12, 20, 44])
def test_power_basis_reduction_keeps_the_value(n):
    for m in range(n):
        v = gen.Val.make(n, [(m, 3), (2 * m + 1, -2)])
        coeffs = v.coeffs(n)
        assert len(coeffs) == len(gen.cyclotomic_poly(n)) - 1
        got = sum(c * cmath.exp(2j * math.pi * k / n) for k, c in enumerate(coeffs))
        assert abs(got - oracle.embed(v)) < 1e-9


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_s_matrix_is_symmetric_and_unitary_up_to_dim(name):
    cat = GENERATED[name]()
    s = numeric(cat.s)
    r = cat.rank
    assert all(abs(s[i][j] - s[j][i]) < 1e-9 for i in range(r) for j in range(r))
    dim = sum(abs(d) ** 2 for d in s[0])
    for i in range(r):
        for j in range(r):
            prod = sum(s[i][k] * s[j][k].conjugate() for k in range(r))
            assert abs(prod - (dim if i == j else 0)) < 1e-9


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_fusion_ring_form_agrees_with_the_s_matrix(name):
    """Verlinde on the s-matrix gives the carried fusion rules, dims are the
    first row and the character table is s_ij / d_j."""
    cat = GENERATED[name]()
    s, table = numeric(cat.s), numeric(cat.char_table)
    r = cat.rank
    dim = sum(abs(d) ** 2 for d in s[0])
    dual = [next(j for j in range(r) if cat.fusion[i][j][0]) for i in range(r)]
    for i in range(r):
        assert abs(oracle.embed(cat.dims[i]) - s[0][i]) < 1e-9
        for j in range(r):
            assert abs(table[i][j] - s[i][j] / s[0][j]) < 1e-9
            for k in range(r):
                n = sum(s[i][m] * s[j][m] * s[dual[k]][m] / s[0][m] for m in range(r)) / dim
                assert abs(n - cat.fusion[i][j][k]) < 1e-9


@pytest.mark.parametrize("k", range(1, 10))
def test_su2_dims_and_twists_match_closed_forms(k):
    cat = gen.su2(k)
    model = oracle.su2_model(k)
    assert cat.rank == k + 1
    for j in range(k + 1):
        assert abs(oracle.embed(cat.dims[j]) - model.dims[j]) < 1e-9
        assert abs(oracle.embed(cat.twists[j]) - model.twists[j]) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_relabelling_is_a_permutation_that_keeps_the_unit_first(seed):
    perm = gen.relabel_perm(16, seed, "x")
    assert sorted(perm) == list(range(16)) and perm[0] == 0
    assert perm == gen.relabel_perm(16, seed, "x")
    cat = gen.relabel(gen.su2(5), gen.relabel_perm(6, seed, "su2_5"))
    assert cat.labels[0] == "0"
    base = gen.su2(5)
    for i, lab in enumerate(cat.labels):
        old = base.labels.index(lab)
        assert cat.dims[i] == base.dims[old]
        assert cat.s[i][0] == base.s[old][0]


def test_seeds_change_the_bytes_but_not_the_content():
    a = gen.modular_json(gen.relabel(gen.su2(5), gen.relabel_perm(6, 1, "su2_5")))
    b = gen.modular_json(gen.relabel(gen.su2(5), gen.relabel_perm(6, 2, "su2_5")))
    assert a != b
    assert sorted(a["labels"]) == sorted(b["labels"])
    assert a["conductor"] == b["conductor"] == 28


def test_subgroup_counts():
    assert len(oracle.pointed_model(GENERATED["toric_code2"]()).subcats) == 67
    assert len(oracle.pointed_model(GENERATED["semion4"]()).subcats) == 67
    for name, count in oracle.CATALOG_SUBCAT_COUNTS.items():
        assert len(oracle.catalog_models()[name].subcats) == count


# ---------------------------------------------------------------------------
# checkers against genuine reports


def _cli(argv):
    from fusioncat import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(argv)
    return rc, out.getvalue().encode()


def _errors(cmd):
    checker = oracle.Checker()
    rc, out = _cli(cmd.argv)
    checker.report(cmd.kind, cmd.model, rc, out, cmd.subcat)
    return checker.errors


def test_catalog_workload_passes_its_checks():
    w = workloads.build("catalog-queries", 0, Path("unused"))
    for cmd in w.round:
        assert _errors(cmd) == [], cmd.argv


def test_generated_inputs_pass_their_checks(tmp_path):
    model = oracle.su2_model(4)
    cat = gen.relabel(gen.su2(4), gen.relabel_perm(5, 3, "su2_4"))
    for ring in (False, True):
        obj = gen.ring_json(cat) if ring else gen.modular_json(cat)
        path = tmp_path / f"{obj['name']}.json"
        gen.write_json(obj, path)
        m = oracle.su2_model(4, ring=ring)
        for kind in ("info", "verify", "subcats"):
            assert _errors(workloads.Command(kind, ["--file", str(path)], m)) == []
    path = tmp_path / "su2_4.json"
    assert _errors(workloads.Command("centralizer", ["--file", str(path)], model, ["2"])) == []


def _wrong(model, **changes):
    fields = dict(vars(model))
    fields.update(changes)
    return oracle.Model(**fields)


def test_checkers_report_wrong_expectations():
    models = oracle.catalog_models()
    toric, fib, z6 = models["toric_code"], models["fibonacci"], models["vec_z6"]
    src = lambda name: ["--catalog", name]  # noqa: E731
    cases = [
        workloads.Command("info", src("fibonacci"), _wrong(fib, dims=[1.0, 1.6])),
        workloads.Command("info", src("toric_code"), _wrong(toric, duals=["1", "m", "e", "f"])),
        workloads.Command("info", src("fibonacci"), _wrong(fib, twists=[1, 1j])),
        workloads.Command("subcats", src("vec_z6"),
                          _wrong(z6, subcats=set(list(z6.subcats)[1:]))),
        workloads.Command("classes", src("fibonacci"), _wrong(fib, dims=[1.0, 2.0])),
        workloads.Command("grading", src("toric_code"), _wrong(toric, grading_order=2)),
        workloads.Command("centralizer", src("toric_code"),
                          _wrong(toric, centralizer=lambda d: frozenset(["1"])), ["e"]),
        workloads.Command("validate", src("ising"),
                          _wrong(models["ising"], labels=["1", "psi", "sigma"])),
        workloads.Command("verify", src("semion"), _wrong(models["semion"], labels=["1"])),
    ]
    for cmd in cases:
        assert _errors(cmd), f"{cmd.argv} accepted a wrong expectation"


def test_checker_reports_failed_checks_and_bad_exit_codes():
    checker = oracle.Checker()
    report = {"command": "verify", "category": "x", "sections": [
        {"title": "input", "rows": [["rank", 1]]}],
        "checks": [{"id": "a", "status": "fail", "detail": ""},
                   {"id": "b", "status": "skip", "detail": ""}]}
    import json

    checker.report("verify", oracle.catalog_models()["trivial"], 0, json.dumps(report).encode())
    assert any("failed checks" in e for e in checker.errors)
    assert any("without a reason" in e for e in checker.errors)
    checker = oracle.Checker()
    checker.report("verify", None, 2, b"")
    assert checker.errors == ["verify: exit code 2"]


def test_reference_work_is_fixed_and_correct():
    import calib

    assert calib.cyclotomic_poly(calib.CONDUCTOR) == gen.cyclotomic_poly(calib.CONDUCTOR)
    calib.main()  # raises if its own products or inverse are wrong


def test_samples_are_scaled_by_the_references_around_them(tmp_path):
    import run

    cold = run.Cold(tmp_path)
    cold.refs = [0.1, 0.3, 0.2, 0.4]
    # (line, seconds, references before its start, references before its end)
    cold.log = [("info", 1.0, 1, 1), ("info", 2.0, 1, 1), ("verify", 6.0, 2, 3)]
    nominal = run.REF_NOMINAL_S
    samples = cold.normalized()
    assert samples["info"] == pytest.approx([nominal / 0.2, 2 * nominal / 0.2])
    assert samples["verify"] == pytest.approx([6 * nominal / 0.3])


def test_a_stopped_command_is_timed_without_its_pauses(tmp_path, monkeypatch):
    import run

    busy = [sys.executable, "-c", "sum(i * i for i in range(6_000_000))"]
    monkeypatch.setattr(run, "REF_GAP_S", 0.1)
    with run.Cold(tmp_path) as cold:
        start = time.perf_counter()
        elapsed, rc, _, (first, last) = cold.spawn(busy, None, None)
        wall = time.perf_counter() - start
        cold.close()
    assert rc == 0
    assert last > first >= 1, "no reference ran while the command ran"
    assert len(cold.refs) == last + 1
    # each pause lasts at least as long as the reference run inside it
    assert 0 < elapsed <= wall - sum(cold.refs[first:last])
