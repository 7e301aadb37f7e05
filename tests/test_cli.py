"""Command line behavior: rendering, exit codes, determinism, parsing."""

import argparse
import contextlib
import copy
import functools
import importlib
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusioncat import catalog_get, catalog_input, catalog_names, cli, lattice, save_category
from fusioncat.category import (
    CONDUCTOR_LIMIT, RANK_LIMIT, _decoded, _parse_rational, category_to_input, input_to_json,
    load_input, parse_category, validate_input,
)
from fusioncat.cli import run
from fusioncat.errors import SchemaError

ROOT = Path(__file__).resolve().parents[1]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- happy paths -------------------------------------------------------------


def test_catalog_lists_entries(capsys):
    code, out, _ = invoke(capsys, "catalog")
    assert code == 0
    for name in ("toric_code", "ising", "fibonacci", "vec_z8"):
        assert name in out


def test_info_renders_exact_and_numeric(capsys):
    code, out, _ = invoke(capsys, "info", "--catalog", "fibonacci")
    assert code == 0
    assert "-ζ5^2-ζ5^3 ≈ 1.61803" in out
    assert "tau" in out


def test_validate_catalog_entry(capsys):
    code, out, _ = invoke(capsys, "validate", "--catalog", "semion")
    assert code == 0
    assert "0 failed" in out


def test_verify_all_pass(capsys):
    code, out, _ = invoke(capsys, "verify", "--catalog", "toric_code")
    assert code == 0
    assert "0 failed" in out
    assert "main-identity" in out


def test_classes_shows_class_sums(capsys):
    code, out, _ = invoke(capsys, "classes", "--catalog", "toric_code")
    assert code == 0
    assert "[1, 1, -1, -1]" in out


def test_centralizer_reports_both_routes(capsys):
    code, out, _ = invoke(capsys, "centralizer", "--catalog", "toric_code", "--subcat", "e")
    assert code == 0
    assert "{1, e}" in out
    assert "s-matrix route" in out and "transform route" in out


def test_centralizer_multi_generator(capsys):
    code, out, _ = invoke(
        capsys, "centralizer", "--catalog", "toric_code", "--subcat", "e,m"
    )
    assert code == 0
    assert "D' (s-matrix route)      {1}" in out


def test_subcats_and_grading(capsys):
    code, out, _ = invoke(capsys, "subcats", "--catalog", "ising")
    assert code == 0
    assert "{1, psi}" in out
    code, out, _ = invoke(capsys, "grading", "--catalog", "toric_code")
    assert code == 0
    assert "group order  4" in out


# -- json mode ----------------------------------------------------------------


def test_json_output_parses(capsys):
    code, out, _ = invoke(capsys, "verify", "--catalog", "ising", "--json")
    assert code == 0
    obj = json.loads(out)
    assert sorted(obj) == ["category", "checks", "command", "sections"]
    assert obj["category"] == "ising"
    statuses = {c["status"] for c in obj["checks"]}
    assert "fail" not in statuses
    # ising is non-integral, so the prime-index law is skipped, nothing else
    skipped = [c["id"] for c in obj["checks"] if c["status"] == "skip"]
    assert skipped == ["prime-index"]


@pytest.mark.parametrize("kind", ["modular", "fusion_ring"])
@pytest.mark.parametrize("name", catalog_names())
def test_check_ids_are_unique_in_every_report(name, kind, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    save_category(catalog_get(name), path, kind=kind)
    for command in ("validate", "verify"):
        code, out, _ = invoke(capsys, command, "--file", str(path), "--json")
        assert code == 0
        ids = [c["id"] for c in json.loads(out)["checks"]]
        assert sorted({i for i in ids if ids.count(i) > 1}) == [], command


def test_json_exact_coefficient_arrays(capsys):
    code, out, _ = invoke(capsys, "info", "--catalog", "fibonacci", "--json")
    assert code == 0
    obj = json.loads(out)
    dims = [s for s in obj["sections"] if s["title"] == "dims"][0]
    tau = dict(dims["rows"])["tau"]
    assert tau["exact"] == ["0", "0", "-1", "-1"]
    assert tau["conductor"] == 5
    assert tau["approx"] == "1.61803"


def test_json_deterministic_in_process(capsys):
    code1, out1, _ = invoke(capsys, "verify", "--catalog", "double_semion", "--json")
    code2, out2, _ = invoke(capsys, "verify", "--catalog", "double_semion", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


# -- exit codes ----------------------------------------------------------------


def test_exit_validate_failure(tmp_path, capsys):
    obj = input_to_json(catalog_input("toric_code"))
    obj["s_matrix"][1][2] = "2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = invoke(capsys, "validate", "--file", str(path))
    assert code == 1
    assert "fail" in out


def test_exit_verify_identity_failure(tmp_path, capsys):
    obj = input_to_json(catalog_input("toric_code"))
    obj["s_matrix"][1][2] = "2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = invoke(capsys, "verify", "--file", str(path))
    assert code == 2


def test_exit_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = invoke(capsys, "verify", "--file", str(path))
    assert code == 3
    assert "error:" in err


def test_exit_missing_file(capsys):
    code, _, err = invoke(capsys, "info", "--file", "/no/such/file.json")
    assert code == 3


def test_exit_unknown_catalog(capsys):
    code, _, err = invoke(capsys, "verify", "--catalog", "nope")
    assert code == 3
    assert "available" in err


def _hostile_file_exits_3(capsys, path, *needles):
    """The file ends in exit 3 and one line on stderr, with no traceback."""
    for command in ("validate", "verify", "info"):
        code, out, err = invoke(capsys, command, "--file", str(path))
        assert (code, out, err.count("\n")) == (3, "", 1), command
        assert err.startswith("error: ") and all(n in err for n in needles), err


def test_exit_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(input_to_json(catalog_input("semion"))).encode("latin-1")
                     .replace(b'"semion"', b'"s\xe9mion"'))
    _hostile_file_exits_3(capsys, path, str(path), "not UTF-8")


def test_exit_deep_nesting(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    _hostile_file_exits_3(capsys, path, str(path), "nested too deeply")


def test_exit_coefficient_past_digit_limit(tmp_path, capsys):
    obj = input_to_json(catalog_input("toric_code"))
    obj["s_matrix"][1][2] = "1" * 4401
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    _hostile_file_exits_3(capsys, path, "s_matrix[1][2]", "4401 digits")


@pytest.mark.parametrize("kind", [[[]], {"a": 1}], ids=["list", "dict"])
def test_exit_unhashable_kind(kind, tmp_path, capsys):
    path = tmp_path / "kind.json"
    path.write_text(json.dumps({"schema_version": 1, "kind": kind}))
    _hostile_file_exits_3(capsys, path, f"kind: expected 'modular' or 'fusion_ring', got {kind!r}")


@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("field", ["rank", "schema_version"])
def test_exit_non_integer_rank_or_version(field, value, tmp_path, capsys):
    """True == 1 and 1.0 == 1 in Python, but neither is an integer field."""
    obj = input_to_json(catalog_input("trivial"))
    obj[field] = value
    path = tmp_path / "field.json"
    path.write_text(json.dumps(obj))
    _hostile_file_exits_3(capsys, path, f"{field}: expected", repr(value))


@pytest.mark.parametrize("digits", [4000, 4300])
@pytest.mark.parametrize("at", [(1, 1), (1, 2)], ids=["diagonal", "off-diagonal"])
def test_derived_value_past_digit_limit_fails_verlinde(digits, at, tmp_path, capsys):
    """An s entry that parses, but whose Verlinde coefficient is too long for
    str(int), gives a failing verlinde-integral, not a traceback."""
    obj = input_to_json(catalog_input("toric_code"))
    i, j = at
    obj["s_matrix"][i][j] = obj["s_matrix"][j][i] = "1" * digits
    path = tmp_path / "derived.json"
    path.write_text(json.dumps(obj))
    for command, expected in (("validate", 1), ("verify", 2)):
        code, out, err = invoke(capsys, command, "--file", str(path))
        assert (code, err) == (expected, ""), command
        assert re.search(r"^  fail  verlinde-integral ", out, re.M), command
        code, out, err = invoke(capsys, command, "--file", str(path), "--json")
        assert (code, err) == (expected, ""), command
        statuses = {c["id"]: c["status"] for c in json.loads(out)["checks"]}
        assert statuses["verlinde-integral"] == "fail", command


def test_exit_int_literal_past_digit_limit(tmp_path, capsys):
    path = tmp_path / "literal.json"
    obj = input_to_json(catalog_input("trivial"))
    path.write_text(json.dumps(obj).replace('"conductor": 1', '"conductor": ' + "9" * 5000))
    _hostile_file_exits_3(capsys, path, str(path), "5000 digits")


def _plus_zeta(p, c):
    """c + zeta_p as a coefficient array at a prime conductor p."""
    return [str(c), "1"] + ["0"] * (p - 3)


def _modular_file(tmp_path, conductor, s_matrix, **fields):
    path = tmp_path / "crafted.json"
    path.write_text(json.dumps({
        "schema_version": 1, "name": "crafted", "kind": "modular", "conductor": conductor,
        "rank": len(s_matrix), "labels": [f"x{i}" for i in range(len(s_matrix))],
        "s_matrix": s_matrix, **fields,
    }))
    return path


@pytest.mark.parametrize("conductor, s_matrix", [
    (3, [[[f"1/{10**4000 - 1}", f"1/{10**4000 - 3}"]]]),
    (11, [["1", _plus_zeta(11, 10**1000)], [_plus_zeta(11, 10**1000), "-1"]]),
], ids=["dim-of-a-1x1", "verlinde-witness"])
def test_exit_value_too_long_to_print(conductor, s_matrix, tmp_path, capsys):
    """Every numeral parses, but a value that a check detail prints has a
    number past the limit of str(int): exit 3 with one line naming its
    length and the limit, as for such a numeral in the file."""
    path = _modular_file(tmp_path, conductor, s_matrix)
    line = (r"error: cannot print a number of \d+ digits, past the limit of "
            rf"{sys.get_int_max_str_digits()}\n")
    for command in ("validate", "info", "verify"):
        for extra in ((), ("--json",)):
            code, out, err = invoke(capsys, command, "--file", str(path), *extra)
            assert (code, out) == (3, ""), (command, extra)
            assert re.fullmatch(line, err), err


def test_a_twist_far_from_every_root_of_unity_fails_at_once(tmp_path, capsys):
    """10^40 + zeta_401 is none of the +-zeta_401^k, which are the roots of
    unity of Q(zeta_401); its 802nd power, the former test, took tens of
    seconds."""
    path = _modular_file(tmp_path, 401, [["1", "1"], ["1", "-1"]],
                         twists=["1", _plus_zeta(401, 10**40)])
    start = time.perf_counter()
    code, out, err = invoke(capsys, "validate", "--file", str(path))
    assert time.perf_counter() - start < 2
    assert (code, err) == (1, "")
    assert "  fail  twists-roots-of-unity  twist 1 is not a root of unity\n" in out


# -- the file decoder ----------------------------------------------------------


def test_decoder_gives_the_object_json_loads_gives(tmp_path, monkeypatch):
    # every catalog export, in modular and fusion-ring form, and every input
    # the benchmark generates
    paths = []
    for name in catalog_names():
        for kind in ("modular", "fusion_ring"):
            paths.append(tmp_path / f"{name}_{kind}.json")
            save_category(catalog_get(name), paths[-1], kind=kind)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in ("cyclotomic-ladder", "lattice-rank16"):
        w = workloads.build(name, 1, tmp_path / name)
        paths += sorted({Path(c.source[1]) for c in w.setup + w.round if c.source[0] == "--file"})
    assert len(paths) == 2 * len(catalog_names()) + 7
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert repr(_decoded(text)) == repr(json.loads(text)), path


def _malformed_texts():
    obj = input_to_json(catalog_input("semion"))
    text = json.dumps(obj, indent=1, sort_keys=True)
    big = json.dumps({**obj, "rank": 0}).replace('"rank": 0', '"rank": ' + "9" * 5000)
    return {
        "empty": "",
        "bom": "\ufeff" + text,
        "trailing-data": text + "\n{}",
        "nan": json.dumps({**obj, "conductor": float("nan")}),
        "minus-infinity": json.dumps({**obj, "rank": float("-inf")}),
        "unterminated-string": text[:text.index('"semion"') + 4],
        "control-character": text.replace('"semion"', '"se\tmion"'),
        "deep-nesting": "[" * 100_000 + "]" * 100_000,
        "int-past-4300-digits": big,
    }


@pytest.mark.parametrize("case", sorted(_malformed_texts()))
def test_malformed_files_fail_as_json_loads_fails(case, tmp_path, capsys):
    """The decoder raises what json.loads raises, with the same message, and
    every command exits 3 with the one line that decoding by json.loads
    gives: its error, "nested too deeply" for a RecursionError, or the
    schema's error on the object it decodes."""
    text = _malformed_texts()[case]
    path = tmp_path / f"{case}.json"
    path.write_text(text, encoding="utf-8")
    want = None
    try:
        parse_category(json.loads(text))
    except RecursionError:
        want = f"invalid JSON in {path}: nested too deeply"
    except ValueError as e:
        want = f"invalid JSON in {path}: {e}"
        with pytest.raises(type(e)) as got:
            _decoded(text)
        assert str(got.value) == str(e)
    except SchemaError as e:
        want = str(e)
        assert repr(_decoded(text)) == repr(json.loads(text))
    for command in ("validate", "info", "verify"):
        assert invoke(capsys, command, "--file", str(path)) == (3, "", f"error: {want}\n"), command


# -- mutated catalog files -------------------------------------------------------

FUZZ_COMMANDS = ("validate", "info", "verify", "classes", "subcats", "grading")
FUZZ_SWAPS = {  # values of the same JSON type: past the schema, into the checks
    str: ("0", "-1", "1/3", "1/0", "x", "9" * 40),
    int: (0, 2, -1, -(2**63), 2**64, 10**400),
}
FUZZ_RETYPES = (None, True, 1.0, "1", 1, [], {}, [["1"]])
FUZZ_SECONDS = 10


class _Overrun(BaseException):
    """Raised by the alarm, past every handler of the program."""


@functools.cache
def _fuzz_seeds() -> tuple[str, ...]:
    """Small catalog entries as file text, in modular and in fusion-ring form."""
    return tuple(
        json.dumps(input_to_json(category_to_input(catalog_get(name), kind)))
        for name in ("semion", "fibonacci", "ising", "toric_code")
        for kind in ("modular", "fusion_ring")
    )


def _paths(obj, at=()):
    """(path, value) for every value below the top of a JSON object."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield at + (key,), value
            yield from _paths(value, at + (key,))


@st.composite
def mutated_files(draw):
    """A catalog file with one to three edits: a value swapped for another of
    its type (a huge or negative int among them) or of another type, an
    entry deleted or duplicated, or a list cut short."""
    obj = json.loads(draw(st.sampled_from(_fuzz_seeds())))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("swap", "swap", "retype", "delete", "duplicate", "cut")))
        paths = [p for p, v in _paths(obj) if edit != "swap" or type(v) in FUZZ_SWAPS]
        if not paths:
            break
        *head, key = draw(st.sampled_from(paths))
        parent = functools.reduce(lambda o, k: o[k], head, obj)
        if edit == "delete":
            del parent[key]
        elif edit == "duplicate" and isinstance(parent, list):
            parent.insert(key, parent[key])
        elif edit == "cut" and isinstance(parent[key], list) and parent[key]:
            parent[key] = parent[key][:draw(st.integers(0, len(parent[key]) - 1))]
        else:
            pool = FUZZ_SWAPS[type(parent[key])] if edit == "swap" else FUZZ_RETYPES
            parent[key] = copy.deepcopy(draw(st.sampled_from(pool)))
    return json.dumps(obj)


@given(text=mutated_files())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_mutated_files_end_in_an_exit_code(text, tmp_path_factory):
    """Every command on a hostile file exits 0 to 4, with no exception out of
    run and within FUZZ_SECONDS; exit 3 and 4 write one line on stderr."""
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)

    def overrun(signum, frame):
        raise _Overrun

    handler = signal.signal(signal.SIGALRM, overrun)
    try:
        for command in FUZZ_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, FUZZ_SECONDS)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run([command, "--file", str(path)])
            except _Overrun:
                pytest.fail(f"{command} ran past {FUZZ_SECONDS} s on {text[:2000]}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert code in range(5), (command, text)
            if code >= 3:
                assert err.getvalue().count("\n") == 1, (command, err.getvalue())
    finally:
        signal.signal(signal.SIGALRM, handler)


def test_exit_usage_errors(capsys):
    assert invoke(capsys, "frobnicate")[0] == 3
    assert invoke(capsys, "verify")[0] == 3
    assert invoke(capsys, "centralizer", "--catalog", "toric_code")[0] == 3
    assert invoke(capsys, "verify", "--catalog", "a", "--file", "b")[0] == 3


def test_exit_unknown_label(capsys):
    code, _, err = invoke(
        capsys, "centralizer", "--catalog", "toric_code", "--subcat", "zz"
    )
    assert code == 3
    assert "unknown object label" in err


def test_unknown_label_error_names_the_label_once(capsys):
    code, out, err = invoke(
        capsys, "centralizer", "--catalog", "toric_code", "--subcat", "e,zz"
    )
    assert (code, out, err) == (3, "", "error: unknown object label 'zz'; have 1, e, m, f\n")


def _rational_modular_file(path, conductor):
    """A two-object modular file (vec_z2) whose entries are all rational."""
    path.write_text(json.dumps({
        "schema_version": 1, "name": "z2", "kind": "modular", "conductor": conductor,
        "rank": 2, "labels": ["1", "g"], "s_matrix": [["1", "1"], ["1", "-1"]],
    }))
    return str(path)


def test_conductor_limit_is_accepted(tmp_path, capsys):
    path = _rational_modular_file(tmp_path / "at.json", CONDUCTOR_LIMIT)
    code, out, _ = invoke(capsys, "info", "--file", path)
    assert code == 0
    assert "global dim" in out


def test_conductor_past_limit_exits_4_at_once(tmp_path, capsys):
    path = _rational_modular_file(tmp_path / "past.json", CONDUCTOR_LIMIT + 1)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "info", "--file", path)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (4, "")
    assert err == (
        f"error: conductor {CONDUCTOR_LIMIT + 1} is past the limit {CONDUCTOR_LIMIT}\n"
    )


def test_rank_past_limit_exits_4_at_once(tmp_path, capsys):
    # the bound is read before any matrix: the s-matrix here is not even square
    rank = RANK_LIMIT + 1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "schema_version": 1, "name": "wide", "kind": "modular", "conductor": 1,
        "rank": rank, "labels": [f"x{i}" for i in range(rank)], "s_matrix": [["1"]],
    }))
    start = time.perf_counter()
    code, out, err = invoke(capsys, "validate", "--file", str(path))
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (4, "", f"error: rank {rank} is past the limit {RANK_LIMIT}\n")


def _zero_s01(obj):
    obj["s_matrix"][0][1] = obj["s_matrix"][1][0] = "0"


RING_CHECKS = ("unit-axiom", "duality-axiom", "associativity", "unit-dim", "dim-homomorphism",
               "spherical", "global-dim-nonzero")


@pytest.mark.parametrize("edit, want", [
    (lambda obj: obj["twists"].__setitem__(0, "2"),
     {"twists-roots-of-unity": ("fail", "twist of the unit is 2")}),
    (lambda obj: obj["twists"].__setitem__(1, "2"),
     {"twists-roots-of-unity": ("fail", "twist 1 is not a root of unity")}),
    (_zero_s01, {
        "dims-nonzero": ("fail", "s_0r = 0 at [1]"),
        "verlinde-integral": ("skip", "zero dimension"),
        **dict.fromkeys(RING_CHECKS, ("skip", "fusion ring unavailable")),
    }),
], ids=["unit-twist", "twist-not-a-root", "zero-dimension"])
def test_bad_twists_and_a_zero_dimension_fail_validation(tmp_path, capsys, edit, want):
    obj = input_to_json(category_to_input(catalog_get("toric_code")))
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    checks = validate_input(load_input(path))
    assert {c.check_id: (c.status, c.detail) for c in checks if c.status != "pass"} == want
    code, out, _ = invoke(capsys, "validate", "--file", str(path))
    assert code == 1 and all(f"  {detail}\n" in out for _, detail in want.values())
    failed = ", ".join(cid for cid, (status, _) in want.items() if status == "fail")
    assert invoke(capsys, "info", "--file", str(path)) == (
        1, "", f"error: validation failed: {failed}\n"
    )


def test_exit_capability(tmp_path, capsys):
    path = tmp_path / "fr.json"
    save_category(catalog_get("toric_code"), path, kind="fusion_ring")
    code, _, err = invoke(capsys, "centralizer", "--file", str(path), "--subcat", "e")
    assert code == 4
    assert "s-matrix" in err


def test_exit_capability_classes_without_tables(tmp_path, capsys):
    obj = input_to_json(category_to_input(catalog_get("toric_code"), kind="fusion_ring"))
    del obj["char_table"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(obj))
    code, _, err = invoke(capsys, "classes", "--file", str(path))
    assert code == 4


def test_subcategory_limit_skips_verify_and_exits_4_from_subcats(monkeypatch, capsys):
    # toric_code has 5 subcategories; past a bound of 3, verify skips the
    # lattice and centralizer laws and subcats exits 4, both naming the bound
    monkeypatch.setattr(lattice, "SUBCATEGORY_LIMIT", 3)
    why = "subcategory enumeration stopped past SUBCATEGORY_LIMIT = 3 subcategories"
    code, out, _ = invoke(capsys, "verify", "--catalog", "toric_code", "--json")
    skipped = {c["id"]: c["detail"] for c in json.loads(out)["checks"] if c["status"] == "skip"}
    assert code == 0
    assert skipped["enumeration"] == skipped["dim-product"] == why
    assert invoke(capsys, "subcats", "--catalog", "toric_code") == (4, "", f"error: {why}\n")


def test_subcategory_limit_builds_the_lattice_once_per_algebra(tmp_path, monkeypatch, capsys):
    # toric_code^2 has 67 subcategories; past a bound of 8 the lattice and the
    # centralizer suite both skip on one enumeration attempt, whose error is
    # kept and raised again.  Each build of the lattice starts by reading the
    # product masks through the module's _ring_masks.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")
    path = tmp_path / "toric_code2.json"
    gen.write_json(gen.modular_json(gen.deligne_power(gen.toric_code(), 2, "toric_code2")), path)
    builds = []
    masks = lattice._ring_masks
    monkeypatch.setattr(lattice, "_ring_masks", lambda alg: builds.append(alg) or masks(alg))
    monkeypatch.setattr(lattice, "SUBCATEGORY_LIMIT", 8)
    why = "subcategory enumeration stopped past SUBCATEGORY_LIMIT = 8 subcategories"
    code, out, _ = invoke(capsys, "verify", "--file", str(path), "--json")
    checks = json.loads(out)["checks"]
    assert (code, len(builds)) == (0, 1)
    assert {c["id"]: c["detail"] for c in checks if c["status"] == "skip"} == dict.fromkeys((
        "enumeration", "centralizer-route-agreement", "main-identity", "integral-transfer",
        "centralizer-idempotent", "centralizer-support", "double-centralizer", "dim-product",
    ), why)
    assert [c["status"] for c in checks].count("pass") == len(checks) - 8 == 33


def test_verify_fusion_ring_skips_but_passes(tmp_path, capsys):
    path = tmp_path / "fr.json"
    save_category(catalog_get("ising"), path, kind="fusion_ring")
    code, out, _ = invoke(capsys, "verify", "--file", str(path))
    assert code == 0
    assert "skipped" in out and "0 failed" in out


def test_input_files_not_modified(tmp_path, capsys):
    path = tmp_path / "cat.json"
    save_category(catalog_get("semion"), path)
    before = path.read_bytes()
    invoke(capsys, "verify", "--file", str(path))
    assert path.read_bytes() == before


# -- the JSON encoder against the json package ---------------------------------


_JSON_CHARS = st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80 aé€ζ𝔽😀\U0010ffff\ud800'),
    st.characters(),
)
_JSON_TEXT = st.text(_JSON_CHARS, max_size=8)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**40, -(10**40), -1, 0]),
    _JSON_TEXT,
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
@example([])
@example({})
@example({"a": [], "b": {}, "": [[{}]]})
def test_json_encoder_matches_json_dumps(obj):
    assert cli._json(obj, "\n") == json.dumps(obj, indent=2, sort_keys=True)


# -- string tests against the patterns they replaced ---------------------------


_OLD_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")  # the rational string of the schema


def _rational_or_none(text):
    try:
        return _parse_rational(text, "x")
    except SchemaError as e:
        assert str(e).startswith("x: expected a rational string"), e
        return None


def _check_string_tests(text):
    p, _, q = text.partition("/")
    old = (int(p), int(q or 1)) if _OLD_RATIONAL.match(text) else None
    assert _rational_or_none(text) == old, text


@pytest.mark.parametrize("text", ["-1\n", "1\n", "-١٢", "²", "+0/1", "1/0", "-.5", "", "-", "+",
                                  "-5.", "-.", "1/", "/1", "+-1", "1/01", "1/1\n\n", "\n", "-\n",
                                  "-1.2.3", " 1", "1_0", "1/١", "1/1١", "-1.5\n", "٣/7", "-²",
                                  "-².5", "-.²", "-1²", "1/²"])
def test_string_tests_match_old_patterns_on_hand_cases(text):
    _check_string_tests(text)


@settings(max_examples=400, deadline=None)
@given(st.text(st.sampled_from("0123456789+-./\n ١٢²_") | st.characters(), max_size=8))
def test_string_tests_match_old_patterns(text):
    _check_string_tests(text)


# -- the parser against an argparse parser built apart from it --------------


class _ArgparseParser(argparse.ArgumentParser):
    def error(self, message):
        raise cli._UsageError(f"{self.format_usage()}error: {message}")


def _build_parser() -> _ArgparseParser:
    """The argparse parser of the command line, built here apart from cli's
    own, the reference for cli._parse and its fast path."""
    parser = _ArgparseParser(prog="fusioncat", description=cli.__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--file", help="category file (JSON)")
            g.add_argument("--catalog", help="built-in catalog entry name")
        p.add_argument("--json", action="store_true", help="machine readable output")
        return p

    add("validate", "check the input against the schema and category axioms")
    add("info", "objects, dims, duals and twists")
    add("subcats", "enumerate fusion subcategories with their invariants")
    p = add("centralizer", "centralizer of the subcategory generated by --subcat")
    p.add_argument(
        "--subcat",
        required=True,
        metavar="LABELS",
        help="comma separated generator labels",
    )
    add("classes", "conjugacy class sizes, multiplicities and class sums")
    add("grading", "universal grading group and adjoint subcategory")
    add("verify", "run every identity check and report pass/fail")
    add("catalog", "list built-in categories", needs_input=False)
    return parser


def _argparse_parse(argv):
    """cli._parse's contract kept by argparse: the parsed args, or the help
    text it printed, or a raised cli._UsageError."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return _build_parser().parse_args(argv)
    except SystemExit:
        return out.getvalue()


_COMMAND_NAMES = ["validate", "info", "subcats", "centralizer", "classes", "grading", "verify"]
PARSER_CORPUS = [
    # every command in canonical form
    ["catalog"],
    ["catalog", "--json"],
    *[[c, "--catalog", "semion"] for c in _COMMAND_NAMES if c != "centralizer"],
    ["centralizer", "--catalog", "toric_code", "--subcat", "e"],
    ["info", "--file", "no/such/file.json", "--json"],
    # = forms, unique prefixes, a repeated option (the last value wins)
    ["info", "--catalog=fibonacci"],
    ["info", "--cat", "fibonacci", "--j"],
    ["centralizer", "--ca=toric_code", "--sub=e,m", "--js"],
    ["info", "--catalog", "nope", "--catalog", "semion"],
    ["verify", "--json", "--catalog", "semion", "--json"],
    ["info", "--catalog", "-1"],
    ["info", "--catalog=-x"],
    # help, from the main parser and from each command
    ["-h"],
    ["--help"],
    ["--he"],
    ["-hh"],
    ["--zzz", "-h"],
    *[[c, "-h"] for c in _COMMAND_NAMES + ["catalog"]],
    ["centralizer", "--help"],
    ["info", "--catalog", "semion", "--h"],
    # usage errors
    [],
    ["frobnicate"],
    ["-a b", "info"],
    ["--", "info"],
    ["--"],
    ["info"],
    ["info", "--json"],
    ["info", "--file", "a", "--catalog", "b"],
    ["info", "--catalog", "b", "--file=a"],
    ["centralizer", "--catalog", "toric_code"],
    ["centralizer"],
    ["info", "--catalog"],
    ["info", "--catalog", "--json"],
    ["info", "--catalog", "semion", "extra"],
    ["catalog", "--catalog", "semion"],
    ["--zzz", "info", "--catalog", "semion"],
    ["info", "--catalog", "semion", "--", "--json"],
    ["info", "--=x"],
    ["centralizer", "--=x"],
    ["--=x"],
    ["info", "--catalog", "-x"],
    ["info", "--catalog", "--", "semion"],
    ["info", "--json=1", "--catalog", "semion"],
    ["info", "-hx"],
    ["info", "-h="],
    ["info", "-x", "--catalog", "semion"],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_matches_argparse(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    ours = invoke(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", _argparse_parse)
    assert invoke(capsys, *argv) == ours


def _parsed(parse, argv):
    try:
        args = parse(list(argv))
    except cli._UsageError as e:
        return "error", str(e)
    if isinstance(args, str):
        return "help", args
    return "args", {k: v for k, v in vars(args).items() if v not in (None, False)}


def test_parser_matches_argparse_on_random_argv(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    tokens = [*_COMMAND_NAMES, "catalog", "--file", "--catalog", "--json", "--subcat", "-h",
              "--help", "--he", "--f", "--c", "--cat=x", "--j", "--s", "--sub=e", "--json=",
              "-hh", "-hx", "-h=", "--=x", "--", "-", "", "-1", "-.5", "-x", "x", "-a b", "--zz",
              "--zz=1", "---", "-hh=x", "bogus", "a=b"]
    rng = random.Random(20)
    drawn = []
    for _ in range(300):
        argv = [rng.choice(tokens) for _ in range(rng.randrange(6))]
        if argv and rng.random() < 0.7:
            argv[0] = rng.choice(_COMMAND_NAMES + ["catalog"])
        drawn.append(argv)
    # repeated options, read on the fast path, and --subcat off centralizer, which is not
    drawn += [["info", "--json", "--json", "--catalog", "a=b"], ["catalog", "--json", "--json"],
              ["info", "--catalog", "semion", "--subcat", "e"], ["catalog", "--subcat", "e"],
              ["centralizer", "--subcat", "e", "--subcat", "m", "--catalog", "toric_code"]]
    for argv in drawn:
        assert _parsed(cli._parse, argv) == _parsed(_argparse_parse, argv), argv


@pytest.mark.parametrize("argv", [["-h"], ["centralizer", "-h"], ["info", "--catalog"]])
def test_help_and_usage_texts_ignore_the_terminal_width(argv, monkeypatch, capsys):
    """Help and usage errors are laid out at 80 columns whatever COLUMNS says."""
    seen = set()
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        seen.add(invoke(capsys, *argv))
    assert len(seen) == 1
    (code, out, err), = seen
    assert len(max((out + err).splitlines(), key=len)) > 40


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv", [["info", "--catalog", "semion", "--json"], ["-h"]])
def test_failed_report_write_exits_3_in_process(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdout", _FullStream())
    code = run(argv)
    err = capsys.readouterr().err
    assert (code, err) == (3, "error: cannot write the report: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [["catalog"], ["info", "--catalog", "semion", "--json"], ["-h"]])
def test_failed_report_write_exits_3(argv, unbuffered):
    """Writing to a full device ends in exit 3 and one line on stderr, whether
    stdout is buffered or not."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full:
        out = subprocess.run([sys.executable, "-m", "fusioncat", *argv], stdout=full,
                             stderr=subprocess.PIPE, text=True, env=env)
    assert (out.returncode, out.stderr) == (
        3, "error: cannot write the report: [Errno 28] No space left on device\n")


def test_help_returns_zero_from_run(capsys):
    code, out, err = invoke(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: fusioncat [-h] COMMAND ...\n")
    code, out, err = invoke(capsys, "info", "-h")
    assert (code, err) == (0, "") and out.startswith("usage: fusioncat info [-h]")


# -- a closed or full standard stream ------------------------------------------


def _failing_verify_file(tmp_path):
    obj = input_to_json(catalog_input("toric_code"))
    obj["s_matrix"][1][2] = "2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return str(path)


# argv ("BAD" stands for a file whose verify fails) and the exit code it must end in
_STREAM_CASES = [
    pytest.param(["info", "--catalog", "semion"], 0, id="info"),
    pytest.param(["verify", "--catalog", "semion", "--json"], 0, id="verify"),
    pytest.param(["frobnicate"], 3, id="usage-error"),
    pytest.param(["info", "--catalog", "nosuch"], 3, id="unknown-entry"),
    pytest.param(["verify", "--file", "BAD"], 2, id="failing-verify"),
]


def _argv(argv, tmp_path):
    return [_failing_verify_file(tmp_path) if a == "BAD" else a for a in argv]


@pytest.mark.parametrize("stream", [None, _FullStream()], ids=["closed", "full"])
@pytest.mark.parametrize("argv, code", _STREAM_CASES)
def test_broken_stderr_never_changes_the_exit_code_in_process(argv, code, stream, tmp_path,
                                                              monkeypatch, capsys):
    argv = _argv(argv, tmp_path)
    monkeypatch.setattr("sys.stderr", stream)
    assert run(argv) == code


def _closed_stream():
    stream = io.StringIO()
    stream.close()
    return stream


@pytest.mark.parametrize("stream, why", [
    (None, "standard output is closed"),
    (_closed_stream(), "I/O operation on closed file"),
], ids=["none", "closed-file"])
def test_closed_stdout_exits_3_in_process(stream, why, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdout", stream)
    code = run(["catalog"])
    assert (code, capsys.readouterr().err) == (3, f"error: cannot write the report: {why}\n")


def _run_with(argv, flags=(), **kwargs):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *flags, "-m", "fusioncat", *argv], text=True,
                          env=env, **kwargs)


@pytest.mark.parametrize("argv, code", _STREAM_CASES)
def test_closed_stderr_never_changes_the_exit_code(argv, code, tmp_path):
    out = _run_with(_argv(argv, tmp_path), stdout=subprocess.DEVNULL,
                    preexec_fn=functools.partial(os.close, 2))
    assert out.returncode == code


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("argv, code", _STREAM_CASES)
def test_full_stderr_never_changes_the_exit_code(argv, code, tmp_path):
    with open("/dev/full", "w") as full:
        out = _run_with(_argv(argv, tmp_path), stdout=subprocess.DEVNULL, stderr=full)
    assert out.returncode == code


@pytest.mark.parametrize("argv", [["catalog"], ["info", "--catalog", "semion", "--json"]])
def test_closed_stdout_exits_3(argv):
    out = _run_with(argv, stderr=subprocess.PIPE, preexec_fn=functools.partial(os.close, 1))
    assert (out.returncode, out.stderr) == (
        3, "error: cannot write the report: standard output is closed\n")
    both = _run_with(argv, preexec_fn=lambda: (os.close(1), os.close(2)))
    assert both.returncode == 3


def test_commands_run_clean_under_dev_mode_and_warnings_as_errors(tmp_path):
    """No ResourceWarning, DeprecationWarning or other warning on a full run."""
    path = tmp_path / "toric_code.json"
    save_category(catalog_get("toric_code"), path)
    for argv in (["verify", "--catalog", "toric_code", "--json"],
                 ["subcats", "--file", str(path)]):
        out = _run_with(argv, ["-X", "dev", "-W", "error"], capture_output=True)
        assert (out.returncode, out.stderr) == (0, ""), argv


def test_verify_runs_under_the_benchmark_tracer(monkeypatch):
    """perfbench/spans.py wraps package functions and Cyclotomic methods by
    name, so a rename there shows up here and not only in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    for mod, *names in [*spans.FUNCTION_SPANS, *spans.METHOD_SPANS]:
        owner = importlib.import_module(f"fusioncat.{mod}")
        for name in names[:-1]:
            owner = getattr(owner, name)
        assert names[-1] in vars(owner), (mod, *names)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(["verify", "--catalog", "toric_code", "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert all(tracer.counts[key] for key in ("add", "mul", "inv")), tracer.counts
