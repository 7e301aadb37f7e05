"""Command line front end.

Loads a category from a file or from the built-in catalog, runs the
requested computation and renders one deterministic report, either as
aligned text or as a single JSON object.  Every cyclotomic value appears
exactly (rational string or coefficient array, the same encoding the input
schema uses) and numerically (embedding rounded to six significant digits).
Each value is printed through the `show` of the category reported on
(CategoryData.show), so it appears at the conductor the s-matrix was given
at, whatever field it was computed in.

Exit codes:
    0   success, all checks passed
    1   the input failed validation
    2   an identity check failed
    3   I/O, parse or usage trouble (including unknown catalog names)
    4   the computation needs data the input does not carry
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .catalog import catalog_get, catalog_input, catalog_names
from .category import (
    CategoryData,
    CategoryInput,
    Check,
    assemble_category,
    load_category,
    load_input,
    validate_input,
)
from .centralizer import centralizer, verify_main_identity, centralizer_suite
from .charalg import CharacterAlgebra
from .cyclotomic import Cyclotomic
from .errors import (
    CapabilityError,
    InternalConsistencyError,
    InvalidCategoryError,
    NotRibbonConsistentError,
    SchemaError,
)
from .lattice import (
    enumerate_subcats,
    generate_subcat,
    grading,
    lattice_suite,
    prime_index_check,
    subcat_invariants,
)

__all__ = ["main", "run", "full_suite", "Report", "Section"]


# ---------------------------------------------------------------------------
# report model and rendering


class Section:
    __slots__ = ("title", "rows")

    def __init__(self, title: str, rows: list):
        self.title = title
        self.rows = rows  # (key, value) pairs; values are cells, see below


class Report:
    __slots__ = ("command", "category", "sections", "checks", "show")

    def __init__(self, command: str, source, sections: list, checks: list):
        """source is the CategoryData or CategoryInput reported on, or None:
        its name heads the report and its show prints the values of cells."""
        self.command = command
        self.category = source.name if source is not None else ""
        self.sections = sections
        self.checks = checks
        self.show = source.show if source is not None else lambda v: v


def _cell_text(v, show) -> str:
    """Text form of a cell: str, int, Fraction, Cyclotomic, or a list of
    cells, with irrational values printed through show.  Irrational values
    carry their numeric embedding."""
    if isinstance(v, Cyclotomic):
        if v.is_rational():
            q = v.rational_value
            return str(q) if q.denominator == 1 else f"{q} ≈ {v.approx_str()}"
        v = show(v)
        return f"{v} ≈ {v.approx_str()}"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_cell_text(x, show) for x in v) + "]"
    return str(v)


def _cell_json(v, show):
    if isinstance(v, Cyclotomic):
        if v.is_rational():
            return {"exact": str(v.rational_value), "approx": v.approx_str()}
        v = show(v)
        return {
            "exact": [str(c) for c in v.coeffs],
            "conductor": v.conductor,
            "approx": v.approx_str(),
        }
    if isinstance(v, Fraction):
        return {"exact": str(v), "approx": f"{float(v):.6g}"}
    if isinstance(v, (list, tuple)):
        return [_cell_json(x, show) for x in v]
    return v


def render_text(report: Report) -> str:
    out = [f"command:  {report.command}"]
    if report.category:
        out.append(f"category: {report.category}")
    for sec in report.sections:
        out.append("")
        out.append(sec.title)
        if not sec.rows:
            out.append("  (none)")
            continue
        width = max(len(str(k)) for k, _ in sec.rows)
        for key, value in sec.rows:
            out.append(f"  {str(key):<{width}}  {_cell_text(value, report.show)}")
    if report.checks:
        out.append("")
        out.append("checks")
        width = max(len(c.check_id) for c in report.checks)
        for c in report.checks:
            line = f"  {c.status:<4}  {c.check_id:<{width}}"
            if c.detail:
                line += f"  {c.detail}"
            out.append(line.rstrip())
        passed = sum(1 for c in report.checks if c.status == "pass")
        failed = sum(1 for c in report.checks if c.status == "fail")
        skipped = sum(1 for c in report.checks if c.status == "skip")
        out.append("")
        out.append(f"result: {passed} passed, {failed} failed, {skipped} skipped")
    return "\n".join(out) + "\n"


def render_json(report: Report) -> str:
    obj = {
        "command": report.command,
        "category": report.category,
        "sections": [
            {"title": sec.title, "rows": [[k, _cell_json(v, report.show)] for k, v in sec.rows]}
            for sec in report.sections
        ],
        "checks": [
            {"id": c.check_id, "status": c.status, "detail": c.detail}
            for c in report.checks
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# input plumbing


def _get_input(args) -> CategoryInput:
    if args.catalog is not None:
        try:
            return catalog_input(args.catalog)
        except KeyError as e:
            raise SchemaError(e.args[0]) from e
    return load_input(args.file)


def _get_category(args) -> CategoryData:
    if args.catalog is not None:
        try:
            return catalog_get(args.catalog)
        except KeyError as e:
            raise SchemaError(e.args[0]) from e
    return load_category(args.file)


def _members_str(labels, members) -> str:
    return "{" + ", ".join(labels[i] for i in members) + "}"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_catalog(args) -> Report:
    rows = []
    for name in catalog_names():
        data = catalog_get(name)
        dim = _cell_text(data.dim, data.show)
        rows.append((name, f"{data.kind}, rank {data.rank}, dim {dim}"))
    return Report("catalog", None, [Section("built-in categories", rows)], [])


def _cmd_validate(args) -> Report:
    inp = _get_input(args)
    sections = [
        Section(
            "input",
            [
                ("name", inp.name),
                ("kind", inp.kind),
                ("rank", inp.rank),
                ("conductor", inp.conductor),
                ("labels", list(inp.labels)),
            ],
        )
    ]
    return Report("validate", inp, sections, validate_input(inp))


def _cmd_info(args) -> Report:
    data = _get_category(args)
    labels = data.ring.labels
    sections = [
        Section(
            "category",
            [
                ("kind", data.kind),
                ("rank", data.rank),
                ("integral", "yes" if data.is_integral else "no"),
                ("global dim", data.dim),
            ],
        ),
        Section("dims", [(lab, data.dims[i]) for i, lab in enumerate(labels)]),
        Section(
            "duals", [(lab, labels[data.ring.dual[i]]) for i, lab in enumerate(labels)]
        ),
    ]
    if data.modular is not None and data.modular.twists is not None:
        sections.append(
            Section(
                "twists",
                [(lab, data.modular.twists[i]) for i, lab in enumerate(labels)],
            )
        )
    return Report("info", data, sections, [])


def _cmd_subcats(args) -> Report:
    data = _get_category(args)
    alg = CharacterAlgebra(data)
    labels = data.ring.labels
    subcats = enumerate_subcats(alg)
    invs = [subcat_invariants(alg, d) for d in subcats]
    keyed = [(_members_str(labels, d.members), inv) for d, inv in zip(subcats, invs)]
    sections = [
        Section("dim", [(k, inv.dim) for k, inv in keyed]),
        Section("index", [(k, inv.index) for k, inv in keyed]),
        Section(
            "class support",
            [(k, [labels[j] for j in inv.support]) for k, inv in keyed],
        ),
        Section(
            "cointegral coefficients",
            [(k, list(inv.cointegral.coeffs)) for k, inv in keyed],
        ),
        Section(
            "integral coefficients",
            [(k, list(inv.integral.coeffs)) for k, inv in keyed],
        ),
    ]
    return Report("subcats", data, sections, [])


def _cmd_centralizer(args) -> Report:
    data = _get_category(args)
    alg = CharacterAlgebra(data)
    labels = data.ring.labels
    names = [lab.strip() for lab in args.subcat.split(",")]
    unknown = [lab for lab in names if lab not in labels]
    if unknown:
        raise SchemaError(f"unknown object label {unknown[0]!r}; have {', '.join(labels)}")
    subcat = generate_subcat(alg, [data.ring.index_of(lab) for lab in names])
    result = centralizer(alg, subcat)
    checks = verify_main_identity(alg, subcat, result)
    sections = [
        Section(
            "centralizer",
            [
                ("D", _members_str(labels, subcat.members)),
                ("D' (s-matrix route)", _members_str(labels, result.smatrix_route.members)),
                ("D' (transform route)", _members_str(labels, result.transform_route.members)),
                ("dim D", subcat_invariants(alg, subcat).dim),
                ("dim D'", subcat_invariants(alg, result.transform_route).dim),
                ("transform of cointegral", list(result.image.coeffs)),
            ],
        )
    ]
    return Report("centralizer", data, sections, checks)


def _cmd_classes(args) -> Report:
    data = _get_category(args)
    alg = CharacterAlgebra(data)
    labels = data.ring.labels
    conj = alg.conjugacy()
    sections = [
        Section("class sizes", [(lab, conj.sizes[j]) for j, lab in enumerate(labels)]),
        Section(
            "class multiplicities",
            [(lab, conj.multiplicities[j]) for j, lab in enumerate(labels)],
        ),
        Section(
            "class sums",
            [(lab, list(conj.class_sums[j].coeffs)) for j, lab in enumerate(labels)],
        ),
        Section(
            "character table",
            [(lab, list(conj.alpha.rows[i])) for i, lab in enumerate(labels)],
        ),
    ]
    if data.modular is not None:
        transparent = [labels[j] for j in alg.transparent_members()]
        sections.append(Section("transparent objects", [("members", transparent)]))
    return Report("classes", data, sections, [])


def _cmd_grading(args) -> Report:
    data = _get_category(args)
    alg = CharacterAlgebra(data)
    labels = data.ring.labels
    grade = grading(alg)
    names = [f"g{k}" for k in range(len(grade.components))]
    sections = [
        Section(
            "universal grading",
            [
                ("adjoint", _members_str(labels, grade.adjoint.members)),
                ("pointed", _members_str(labels, grade.pointed.members)),
                ("group order", len(grade.components)),
            ],
        ),
        Section(
            "components",
            [
                (names[k], [labels[i] for i in comp])
                for k, comp in enumerate(grade.components)
            ],
        ),
        Section(
            "group table",
            [
                (names[k], [names[v] for v in row])
                for k, row in enumerate(grade.table)
            ],
        ),
    ]
    report = Report("grading", data, sections, [])
    prime = prime_index_check(alg)
    if prime.applicable:
        report.sections.append(
            Section(
                "prime index",
                [
                    ("prime", prime.prime),
                    (
                        "subcategories",
                        [_members_str(labels, d.members) for d in prime.subcategories],
                    ),
                    (
                        "normal subgroups",
                        [[names[g] for g in sub] for sub in prime.subgroups],
                    ),
                ],
            )
        )
        report.checks = list(prime.checks)
    else:
        report.sections.append(
            Section("prime index", [("not applicable", prime.reason)])
        )
    return report


def full_suite(alg: CharacterAlgebra) -> list[Check]:
    """Every identity check the engine knows, in one deterministic list."""
    checks = list(alg.identity_suite())
    checks.extend(lattice_suite(alg))
    checks.extend(centralizer_suite(alg))
    return checks


def _cmd_verify(args) -> Report:
    inp = _get_input(args)
    checks = validate_input(inp)
    sections = [
        Section(
            "input",
            [("name", inp.name), ("kind", inp.kind), ("rank", inp.rank)],
        )
    ]
    if not any(c.status == "fail" for c in checks):
        checks = checks + full_suite(CharacterAlgebra(assemble_category(inp)))
    return Report("verify", inp, sections, checks)


_HANDLERS = {
    "catalog": _cmd_catalog,
    "validate": _cmd_validate,
    "info": _cmd_info,
    "subcats": _cmd_subcats,
    "centralizer": _cmd_centralizer,
    "classes": _cmd_classes,
    "grading": _cmd_grading,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing; argparse exits with its own codes, so trap errors


class _UsageError(Exception):
    def __init__(self, usage: str, message: str):
        self.usage = usage
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self.format_usage(), message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fusioncat", description=__doc__.split("\n\n")[0])
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


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        sys.stderr.write(e.usage)
        sys.stderr.write(f"error: {e}\n")
        return 3

    try:
        report = _HANDLERS[args.command](args)
    except SchemaError as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except CapabilityError as e:
        sys.stderr.write(f"error: {e}\n")
        return 4
    except InvalidCategoryError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except (NotRibbonConsistentError, InternalConsistencyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2

    sys.stdout.write(render_json(report) if args.json else render_text(report))
    if any(c.status == "fail" for c in report.checks):
        return 1 if args.command == "validate" else 2
    return 0


def main(argv=None) -> None:
    raise SystemExit(run(argv))
