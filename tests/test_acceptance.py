"""Acceptance gate: ten criteria, each reported as one line in the terminal
summary.  Everything is exact arithmetic; the only tolerances here are the
wall-clock budgets, measured on the computation itself (the shared catalog
is built once up front, like any other test fixture)."""

import contextlib
import importlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import record_criterion

from fusioncat import (
    CategoryInput,
    CentralElement,
    ClassFunction,
    catalog_get,
    catalog_input,
    catalog_names,
    centralizer_smatrix,
    centralizer_theorem,
    enumerate_subcats,
    generate_subcat,
    grading,
    prime_index_check,
    subcat_invariants,
    validate_input,
    verlinde_fusion,
)
from fusioncat.cli import full_suite, run
from fusioncat.cyclotomic import Cyclotomic, CycloMatrix, euler_phi, rational, zeta
from fusioncat.errors import NotModularError, SingularMatrixError

GOLDEN = -zeta(5, 2) - zeta(5, 3)

# subcategory counts the criteria call out by name (double_semion actually
# has five: its fusion group is the same Klein four group as toric_code)
NAMED_COUNTS = {"toric_code": 5, "ising": 3, "fibonacci": 2, "semion": 2}


@pytest.fixture(scope="module", autouse=True)
def warm(algs):
    for alg in algs.values():
        alg.conjugacy()
        enumerate_subcats(alg)
    return algs


def test_criterion_01_main_theorem(algs):
    t0 = time.perf_counter()
    pairs = 0
    ok = True
    for name in catalog_names():
        alg = algs[name]
        subcats = enumerate_subcats(alg)
        if name in NAMED_COUNTS and len(subcats) != NAMED_COUNTS[name]:
            ok = False
        for d in subcats:
            image = alg.drinfeld(alg.cointegral(d.members))
            prime = centralizer_smatrix(alg, d)
            lhs = alg.fourier(image)
            rhs = alg.cointegral(prime.members).scaled(
                alg.subset_dim(prime.members) * alg.dim.inv()
            )
            if lhs != rhs:
                ok = False
            pairs += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    record_criterion(
        1, "main theorem on every subcategory", ok, f"{pairs} pairs, {elapsed:.3f}s"
    )
    assert ok


def test_criterion_02_route_agreement(algs):
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for name in catalog_names():
        alg = algs[name]
        for d in enumerate_subcats(alg):
            by_s = centralizer_smatrix(alg, d)
            by_t, image = centralizer_theorem(alg, d)
            if by_s.members != by_t.members:
                ok = False
            if any(not c.is_zero() and c != 1 for c in image.coeffs):
                ok = False
            pairs += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    record_criterion(2, "centralizer route agreement", ok, f"{pairs} pairs, {elapsed:.3f}s")
    assert ok


def test_criterion_03_class_size_dim_square(algs):
    ok = True
    for name in catalog_names():
        alg = algs[name]
        sizes = alg.conjugacy().sizes
        for j in range(alg.rank):
            if sizes[j] != alg.dims[j] * alg.dims[j]:
                ok = False
    fib = algs["fibonacci"].conjugacy()
    ok = ok and fib.sizes[1] == GOLDEN + 1
    record_criterion(3, "class sizes are squared dims", ok, "incl. fibonacci g+1")
    assert ok


def test_criterion_04_class_sum_products(algs):
    ok = True
    irrational_entries = set()
    for name in catalog_names():
        alg = algs[name]
        conj = alg.conjugacy()
        fusion = alg.data.fusion
        for i in range(alg.rank):
            for j in range(alg.rank):
                # independent expansion from dims and fusion numbers
                expected = CentralElement(tuple(rational(0) for _ in range(alg.rank)))
                for l in range(alg.rank):
                    n = fusion[i][j][l]
                    if not n:
                        continue
                    c = alg.dims[i] * alg.dims[j] * alg.dims[l].inv() * n
                    expected = expected + conj.class_sums[l].scaled(c)
                if alg.ce_mul(conj.class_sums[i], conj.class_sums[j]) != expected:
                    ok = False
                if not alg.class_sum_product(i, j).all_rational:
                    irrational_entries.add(name)
    ok = ok and irrational_entries == {"fibonacci"}
    fib = algs["fibonacci"].class_sum_product(1, 1)
    ok = ok and fib.constants[0] == GOLDEN + 1 and fib.rational_flags[0] is False
    record_criterion(
        4, "class sum structure constants", ok, "irrational only in fibonacci"
    )
    assert ok


def test_criterion_05_identity_suite(algs):
    t0 = time.perf_counter()
    ok = True
    total = 0
    for name in catalog_names():
        checks = list(validate_input(catalog_input(name)))
        checks += full_suite(algs[name])
        failed = [c.check_id for c in checks if c.status == "fail"]
        if failed:
            ok = False
        total += len(checks)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 2.0
    record_criterion(
        5, "orthogonality and dual-bases suite", ok, f"{total} checks, {elapsed:.3f}s"
    )
    assert ok


def test_criterion_06_lattice_laws_toric(algs):
    alg = algs["toric_code"]
    conj = alg.conjugacy()
    subcats = enumerate_subcats(alg)
    ok = len(subcats) == 5
    pairs = 0
    for d in subcats:
        for e in subcats:
            di = subcat_invariants(alg, d)
            ei = subcat_invariants(alg, e)
            ji = subcat_invariants(alg, generate_subcat(alg, d.members + e.members))
            mi = subcat_invariants(
                alg,
                generate_subcat(alg, tuple(set(d.members) & set(e.members))),
            )
            # cointegrals multiply to the join's cointegral
            if alg.cf_mul(di.cointegral, ei.cointegral) != ji.cointegral:
                ok = False
            # integrals multiply to the meet's integral up to exact scalars
            lhs = alg.ce_mul(di.integral, ei.integral).scaled(di.dim * ei.dim)
            if lhs != mi.integral.scaled(mi.dim * alg.dim):
                ok = False
            # containment is support reversal
            if (set(d.members) >= set(e.members)) != (
                set(di.support) <= set(ei.support)
            ):
                ok = False
            pairs += 1
        # index is the class-size sum over the support
        total = rational(0)
        for j in subcat_invariants(alg, d).support:
            total = total + conj.sizes[j]
        if total != alg.dim * subcat_invariants(alg, d).dim.inv():
            ok = False
    record_criterion(6, "lattice laws on toric code", ok, f"{pairs} pairs")
    assert ok


def test_criterion_07_prime_index_desk_check(algs):
    alg = algs["toric_code"]
    report = prime_index_check(alg)
    grade = grading(alg)
    ok = report.applicable and report.prime == 2
    ok = ok and len(report.subcategories) == 3
    ok = ok and len(grade.table) == 4 and len(report.subgroups) == 3
    ok = ok and len(report.pairs) == 3
    adjoint = set(grade.adjoint.members)
    for d in report.subcategories:
        ok = ok and adjoint <= set(d.members)
    ok = ok and all(c.status == "pass" for c in report.checks)
    for name in ("fibonacci", "ising"):
        r = prime_index_check(algs[name])
        ok = ok and not r.applicable and "integral" in r.reason
    record_criterion(
        7, "prime index correspondence", ok, "toric 3<->3, fib/ising n/a"
    )
    assert ok


def test_criterion_08_verlinde_integrality(algs):
    ok = True
    for name in catalog_names():
        data = catalog_get(name)
        fusion, dual = verlinde_fusion(data.s)
        if fusion != data.fusion or dual != data.dual:
            ok = False
    # corrupting any one of the 16 toric entries must be caught somewhere;
    # each fails verlinde-integral at (i=0, j=0, k) with this (k, value)
    inp = catalog_input("toric_code")
    witness = {(0, 0): (1, "1/7"), (0, 1): (1, "1/7"), (0, 2): (1, "-1/7"), (0, 3): (1, "-1/7")}
    witness.update({(i, j): (i, "1/4") for i in range(1, 4) for j in range(4)})
    detected = 0
    for i in range(4):
        for j in range(4):
            rows = [list(r) for r in inp.s_matrix.rows]
            rows[i][j] = rows[i][j] + rational(1)
            bad = CategoryInput(
                name="bad",
                conductor=inp.conductor,
                labels=inp.labels,
                s_matrix=CycloMatrix(rows),
                twists=None,
            )
            checks = validate_input(bad)
            if any(c.status == "fail" for c in checks):
                detected += 1
            k, value = witness[i, j]
            verlinde = next(c for c in checks if c.check_id == "verlinde-integral")
            ok = ok and (verlinde.status, verlinde.detail) == ("fail", (
                f"Verlinde coefficient at (i=0, j=0, k={k}) is {value}, not a nonnegative integer"
            ))
    ok = ok and detected == 16
    # symmetric corruption falls through to Verlinde itself
    rows = [list(r) for r in inp.s_matrix.rows]
    rows[1][1] = rows[1][1] + rational(1)
    try:
        verlinde_fusion(CycloMatrix(rows))
        ok = False
    except NotModularError:
        pass
    record_criterion(
        8, "verlinde integrality and corruption detection", ok, f"{detected}/16 detected"
    )
    assert ok


def test_criterion_09_exact_kernel(algs):
    rng = random.Random(20260814)

    def rand_cyclo(n):
        k = euler_phi(n)
        while True:
            c = Cyclotomic(
                n,
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)],
            )
            if not c.is_zero():
                return c

    t0 = time.perf_counter()
    ok = True
    one = rational(1)
    for n in (4, 5, 8, 12):
        for _ in range(250):
            a = rand_cyclo(n)
            if a * a.inv() != one:
                ok = False
    inversions = 1000

    roundtrips = 0
    for name in catalog_names():
        alg = algs[name]
        for _ in range(20):
            coeffs = tuple(
                rational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                for _ in range(alg.rank)
            )
            f = ClassFunction(coeffs)
            if alg.fourier(alg.fourier_inv(f)) != f:
                ok = False
            a = CentralElement(coeffs)
            if alg.fourier_inv(alg.fourier(a)) != a:
                ok = False
            roundtrips += 2

    eye = CycloMatrix.identity(4, 8)
    matrices = 0
    while matrices < 25:
        m = CycloMatrix([[rand_cyclo(8) for _ in range(4)] for _ in range(4)])
        try:
            minv = m.inverse()
        except SingularMatrixError:
            continue
        if m @ minv != eye or minv @ m != eye:
            ok = False
        matrices += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    record_criterion(
        9,
        "exact arithmetic kernel",
        ok,
        f"{inversions} inversions, {roundtrips} round trips, "
        f"{matrices} matrices, {elapsed:.3f}s",
    )
    assert ok


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fusioncat", *argv],
            capture_output=True,
            timeout=120,
        )

    def in_process(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
        return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

    ok = True
    for name in catalog_names():
        a = cli("verify", "--catalog", name, "--json")
        b = cli("verify", "--catalog", name, "--json")
        if not (a.returncode == b.returncode == 0 and a.stdout == b.stdout):
            ok = False

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")

    from fusioncat.category import category_to_input, input_to_json

    obj = input_to_json(catalog_input("toric_code"))
    obj["s_matrix"][1][2] = "2"
    bad_s = tmp_path / "bad_s.json"
    bad_s.write_text(json.dumps(obj))

    fr = tmp_path / "fusion_ring.json"
    fr.write_text(
        json.dumps(
            input_to_json(category_to_input(catalog_get("toric_code"), kind="fusion_ring"))
        )
    )

    # the process entry, which ends in os._exit, writes the bytes the
    # in-process API writes: a 224 kB output of the rank-16 toric_code^2, and
    # each exit code with its stderr line
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    gen = importlib.import_module("gen")
    rank16 = tmp_path / "toric_code2.json"
    gen.write_json(gen.modular_json(gen.deligne_power(gen.toric_code(), 2, "toric_code2")), rank16)
    for argv, code, err in [
        (("subcats", "--file", str(rank16), "--json"), 0, ""),
        (("info", "--file", str(bad_s)), 1, "validation failed: s-symmetric, verlinde-integral"),
        (("verify", "--file", str(bad_s)), 2, ""),
        (("verify", "--file", str(corrupt)), 3, f"invalid JSON in {corrupt}: Expecting property "
                                                "name enclosed in double quotes: line 1 column 2 "
                                                "(char 1)"),
        (("centralizer", "--file", str(fr), "--subcat", "e"), 4,
         "toric_code: this computation needs an s-matrix, but the category was given as a "
         "plain fusion ring"),
    ]:
        proc, want = cli(*argv), in_process(*argv)
        ok = ok and (proc.returncode, proc.stdout, proc.stderr) == want
        ok = ok and (want[0], want[2].decode("utf-8")) == (code, f"error: {err}\n" if err else "")
        ok = ok and (code != 0 or len(proc.stdout) > 200_000)

    record_criterion(
        10, "cli determinism and exit codes", ok, "13 entries, byte-identical"
    )
    assert ok
