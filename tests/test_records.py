"""The result records: construction, read-only fields, equality and hashing.

Every record is a plain slotted class, not a dataclass, which keeps the
package's import free of per-class code generation and of the dataclasses
and inspect modules.  Every record and every value, the CLI's Report and
Section included, is read-only through _Frozen; all but CycloMatrix and the
flat storage of values and vectors share its one constructor and its repr
over their __slots__.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import replaced

import fusioncat
from fusioncat import catalog_get, catalog_input, save_category
from fusioncat.category import CategoryInput, Check
from fusioncat.centralizer import centralizer
from fusioncat.charalg import CentralElement, CharacterAlgebra, ClassFunction
from fusioncat.cli import Report, Section
from fusioncat.cyclotomic import CycloMatrix, _Flat, _Frozen, zeta
from fusioncat.lattice import (
    FusionSubcategory,
    enumerate_subcats,
    grading,
    prime_index_check,
    subcat_invariants,
)


def test_no_record_is_a_dataclass():
    found = set()
    for info in pkgutil.iter_modules(fusioncat.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fusioncat.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.add(cls.__name__)
    assert found == set()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    src = Path(fusioncat.__file__).resolve().parent.parent
    probe = (
        "import sys, fusioncat.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["verify", "--catalog", "toric_code", "--json"],
    ["info", "--catalog", "fibonacci"],
    ["catalog", "--json"],
    ["info", "--file", "semion.json", "--json"],
    ["centralizer", "--catalog", "toric_code", "--subcat", "e", "--json"],
    ["info", "--json", "--catalog", "fibonacci"],
])
def test_cold_command_leaves_out_argparse_and_fractions(argv, tmp_path):
    """A cold command imports neither the argument parser of the standard
    library nor fractions, nor json, re and enum, nor what they import in
    turn, also when it decodes a file; info and catalog also leave out the
    modules of the suites.  These are the spellings the benchmark runs:
    argv spelled in full never loads argparse."""
    if "--file" in argv:
        save_category(catalog_get("semion"), tmp_path / argv[2])
        argv = [*argv[:2], str(tmp_path / argv[2]), *argv[3:]]
    src = Path(fusioncat.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "fusioncat", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0
    loaded = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}
    assert "fusioncat.cli" in loaded
    assert loaded & {"argparse", "gettext", "locale", "fractions", "decimal", "numbers"} == set()
    assert loaded & {"json", "json.decoder", "json.encoder", "re", "enum"} == set()
    suites = {"fusioncat.charalg", "fusioncat.lattice", "fusioncat.centralizer"}
    assert loaded & suites == (suites if argv[0] in ("verify", "centralizer") else set())


def test_lazy_package_resolves_every_public_name():
    """In a fresh interpreter, importing the submodule fusioncat.centralizer
    before the name still leaves the package name centralizer on the
    function, every public name is the object its defining module holds,
    and a submodule is an attribute of the package on first use."""
    src = Path(fusioncat.__file__).resolve().parent.parent
    probe = "\n".join([
        "import importlib, sys, fusioncat",
        "assert fusioncat.charalg is sys.modules['fusioncat.charalg']",
        "import fusioncat.centralizer",
        "from fusioncat import centralizer",
        "assert callable(centralizer) and centralizer.__module__ == 'fusioncat.centralizer'",
        "for name in fusioncat.__all__:",
        "    obj = getattr(fusioncat, name)",
        "    assert obj is getattr(importlib.import_module(obj.__module__), name), name",
        "try:",
        "    fusioncat.no_such_name",
        "except AttributeError:",
        "    print(len(fusioncat.__all__), fusioncat.__version__)",
    ])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout == "51 0.1.0\n"


def test_keyword_construction_with_defaults():
    check = Check(check_id="unit-axiom", status="pass")
    assert (check.check_id, check.status, check.detail) == ("unit-axiom", "pass", "")


def test_category_input_keeps_field_order_and_defaults():
    fusion = catalog_get("semion").fusion
    inp = CategoryInput("z2", 1, ("1", "s"), None, None, fusion)
    assert (inp.name, inp.conductor, inp.labels, inp.fusion) == ("z2", 1, ("1", "s"), fusion)
    assert (inp.s_matrix, inp.twists, inp.dims, inp.char_table) == (None,) * 4
    # kind is read off the fields, never given
    assert inp.kind == "fusion_ring"
    assert replaced(inp, s_matrix=catalog_get("semion").s).kind == "modular"
    with pytest.raises(TypeError):
        CategoryInput("z2", 1, ("1", "s"), fusion=fusion, kind="modular")
    assert inp.derived_ring is inp.derived_ring  # cached once per input
    with pytest.raises(AttributeError):
        inp.fusion = None


@pytest.fixture(scope="module")
def toric():
    return CharacterAlgebra(catalog_get("toric_code"))


def _read_only_records(alg):
    data = alg.data
    subcat = enumerate_subcats(alg)[1]
    values = [zeta(5) / 2, CycloMatrix([[zeta(3)]]), alg.character(1), alg.idempotent(1)]
    [vector.coeffs for vector in values[2:]]  # fills each vector's _coeffs slot
    return [
        (Check("x", "pass"), "status"),
        (data, "labels"),
        (data, "dims"),
        (data, "s"),
        (data, "name"),
        (alg.character(0), "coeffs"),
        (alg.idempotent(0), "coeffs"),
        (alg.class_sum_product(1, 1), "constants"),
        (subcat, "members"),
        (subcat_invariants(alg, subcat), "dim"),
        (grading(alg), "table"),
        (prime_index_check(alg), "checks"),
        (centralizer(alg, subcat), "image"),
        *((value, field) for value in values for field in type(value)._fields),
    ]


def test_records_are_read_only(toric):
    for record, field in _read_only_records(toric):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


def test_fusion_subcategory_equal_and_hashed_by_members(toric):
    a, b = FusionSubcategory((0, 1)), FusionSubcategory((0, 1))
    assert a == b and hash(a) == hash(b)
    assert a != FusionSubcategory((0, 2))
    assert len({a, b, FusionSubcategory((0, 2))}) == 2
    # value-equal subcategories share one memo entry
    assert subcat_invariants(toric, a) is subcat_invariants(toric, b)


def test_vectors_over_different_bases_differ(toric):
    coeffs = toric.character(1).coeffs
    assert ClassFunction(coeffs) == ClassFunction(coeffs)
    assert ClassFunction(coeffs) != CentralElement(coeffs)
    assert CentralElement(coeffs) != ClassFunction(coeffs)


def test_vectors_are_unhashable(toric):
    for vector in (toric.character(1), toric.idempotent(1)):
        with pytest.raises(TypeError):
            hash(vector)


def _record_classes():
    """Every _Frozen subclass in the package."""
    for info in pkgutil.iter_modules(fusioncat.__path__):
        if info.name != "__main__":
            importlib.import_module(f"fusioncat.{info.name}")
    found, todo = set(), [_Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls)
            todo.append(cls)
    return found


def test_one_record_constructor():
    """Only CycloMatrix, which checks and lifts its rows, and the flat
    storage of values and vectors, built in __new__, define an __init__ of
    their own."""
    assert {cls.__name__ for cls in _record_classes() if "__init__" in vars(cls)} == {
        "CycloMatrix", "_Flat"
    }


ROW_ROUTINES = ("_Vector", "_family", "_sums", "_mul", "_permuted", "_transposed", "_products")


def test_one_flat_row_layer():
    """cyclotomic is the one home of the flat numerator rows: the modules
    above it import the vector class and the row routines and define none of
    their own, and cyclotomic keeps no second set of row helpers.  The layer
    costs a cold info or catalog no import of charalg."""
    cyclotomic = importlib.import_module("fusioncat.cyclotomic")
    assert {"flatten", "matmul", "bilinear"} & set(vars(cyclotomic)) == set()
    for module in ("charalg", "lattice", "centralizer", "category"):
        held = vars(importlib.import_module(f"fusioncat.{module}"))
        for name in ROW_ROUTINES:
            assert held.get(name, getattr(cyclotomic, name)) is getattr(cyclotomic, name), name
    probe = (
        "import contextlib, io, sys, fusioncat.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = cli.run(['info', '--catalog', 'fibonacci']), cli.run(['catalog'])\n"
        "print(codes, 'fusioncat.charalg' in sys.modules)"
    )
    src = Path(fusioncat.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "(0, 0) False"


def test_one_read_only_guard():
    """_Frozen is the only class of the package with an instance __setattr__
    or __delattr__, but for _Package, which guards the package's attributes."""
    _record_classes()  # imports every module
    found = {
        cls.__name__
        for name, module in sys.modules.items() if name.split(".")[0] == "fusioncat"
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name
        and {"__setattr__", "__delattr__"} & set(vars(cls))
    }
    assert found == {"_Frozen", "_Package"}


def _sample_records(alg):
    """One record of every class with the shared constructor."""
    data, subcat = alg.data, enumerate_subcats(alg)[1]
    section = Section("dims", list(zip(data.labels, data.dims)))
    return [
        Check("x", "pass"), data, catalog_input("toric_code"), alg.conjugacy(),
        alg.class_sum_product(1, 1), subcat, subcat_invariants(alg, subcat), grading(alg),
        prime_index_check(alg), centralizer(alg, subcat), section,
        Report("info", data, [section], []),
    ]


def test_record_repr_names_every_field(toric):
    """A record's repr is its class and its fields by name, with their reprs;
    values, vectors and matrices keep their own."""
    assert repr(FusionSubcategory((0, 1))) == "FusionSubcategory(members=(0, 1))"
    assert repr(Check("x", "fail", "at 0")) == "Check(check_id='x', status='fail', detail='at 0')"
    for record in _sample_records(toric):
        fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in type(record)._fields)
        assert repr(record) == f"{type(record).__name__}({fields})"
    assert repr(zeta(4)) == "Cyclotomic(4, ['0', '1'])"
    assert repr(CycloMatrix([[zeta(3)]])) == "CycloMatrix(1x1, conductor 3)"
    assert repr(toric.character(1)) == f"ClassFunction(coeffs={toric.character(1).coeffs!r})"


def test_record_contract(toric):
    records = _sample_records(toric)
    classes = {cls for cls in _record_classes() if not issubclass(cls, (_Flat, CycloMatrix))}
    assert {type(r) for r in records} == classes  # a new record needs a sample here
    for record in records:
        cls, fields = type(record), type(record)._fields
        assert fields == tuple(f for f in cls.__slots__ if f != "__dict__"), cls
        values = [getattr(record, f) for f in fields]
        named = dict(zip(fields, values))
        for built in (cls(*values), cls(**named), replaced(record)):
            assert all(getattr(built, f) is v for f, v in named.items()), cls
        required = {f: v for f, v in named.items() if f not in cls._defaults}
        built = cls(**required)
        assert all(getattr(built, f) == v for f, v in cls._defaults.items()), cls
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        bad_calls = [
            lambda: cls(*values, None),  # too many positionals
            lambda: cls(*values, no_such_field=None),  # an unknown name
            lambda: cls(),  # a missing field
            lambda: cls(*values, **{fields[0]: values[0]}),  # a field given twice
        ]
        for call in bad_calls:
            with pytest.raises(TypeError):
                call()
