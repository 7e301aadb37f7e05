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

import os
import sys
from types import SimpleNamespace

from .catalog import catalog_get, catalog_input, catalog_names
from .category import (
    Check,
    assemble_category,
    load_category,
    load_input,
    validate_input,
)
from .cyclotomic import Cyclotomic, _Frozen
from .errors import (
    CapabilityError,
    InternalConsistencyError,
    InvalidCategoryError,
    NotRibbonConsistentError,
    SchemaError,
)

__all__ = ["main", "run", "full_suite", "Report", "Section"]


# ---------------------------------------------------------------------------
# report model and rendering


class Section(_Frozen):
    __slots__ = ("title", "rows")  # rows: (key, value) pairs; values are cells, see below


class Report(_Frozen):
    """source is the CategoryData or CategoryInput reported on, or None:
    its name heads the report and its show prints the values of cells."""

    __slots__ = ("command", "source", "sections", "checks")

    @property
    def category(self) -> str:
        return self.source.name if self.source is not None else ""

    def show(self, v: Cyclotomic) -> Cyclotomic:
        return self.source.show(v) if self.source is not None else v


def _cell_text(v, show) -> str:
    """Text form of a cell: str, int, Cyclotomic, or a list of cells, with
    irrational values printed through show.  Values other than integers
    carry their numeric embedding."""
    if isinstance(v, Cyclotomic):
        if v.is_integer():
            return str(v)
        v = show(v)
        return f"{v} ≈ {v.approx_str()}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_cell_text(x, show) for x in v) + "]"
    return str(v)


def _cell_json(v, show):
    if isinstance(v, Cyclotomic):
        if v.is_rational():
            return {"exact": str(v), "approx": v.approx_str()}
        v = show(v)
        return {"exact": v.coeff_strs(), "conductor": v.conductor, "approx": v.approx_str()}
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
        counts = [sum(c.status == s for c in report.checks) for s in ("pass", "fail", "skip")]
        out.append("")
        out.append("result: {} passed, {} failed, {} skipped".format(*counts))
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
    return _json(obj, "\n") + "\n"


def _json(obj, indent: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) with indent the newline and
    indentation obj starts at, for the types of a report: str, int, bool,
    None, and lists (or tuples) and dicts with str keys of them."""
    if isinstance(obj, str):
        if obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
            return f'"{obj}"'
        from _json import encode_basestring_ascii  # what json.dumps runs for ensure_ascii
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_json(k, inner)}: {_json(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    items = [_json(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


# ---------------------------------------------------------------------------
# input plumbing


def _source(args, from_catalog, from_file):
    """The category (as raw input or as built data) that args name."""
    if args.catalog is None:
        return from_file(args.file)
    try:
        return from_catalog(args.catalog)
    except KeyError as e:
        raise SchemaError(e.args[0]) from e


def _algebra(args):
    """(data, its CharacterAlgebra, its labels) for the category args name."""
    from .charalg import CharacterAlgebra
    data = _source(args, catalog_get, load_category)
    return data, CharacterAlgebra(data), data.labels


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
    inp = _source(args, catalog_input, load_input)
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
    data = _source(args, catalog_get, load_category)
    labels = data.labels
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
        Section("dims", list(zip(labels, data.dims))),
        Section("duals", [(lab, labels[d]) for lab, d in zip(labels, data.dual)]),
    ]
    if data.twists is not None:
        sections.append(Section("twists", list(zip(labels, data.twists))))
    return Report("info", data, sections, [])


def _cmd_subcats(args) -> Report:
    from .lattice import enumerate_subcats, subcat_invariants
    data, alg, labels = _algebra(args)
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
    from .centralizer import centralizer, verify_main_identity
    from .lattice import generate_subcat, subcat_invariants
    data, alg, labels = _algebra(args)
    names = [lab.strip() for lab in args.subcat.split(",")]
    unknown = [lab for lab in names if lab not in labels]
    if unknown:
        raise SchemaError(f"unknown object label {unknown[0]!r}; have {', '.join(labels)}")
    subcat = generate_subcat(alg, [data.index_of(lab) for lab in names])
    result = centralizer(alg, subcat)
    checks = verify_main_identity(alg, subcat)
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
    data, alg, labels = _algebra(args)
    conj = alg.conjugacy()
    sections = [
        Section("class sizes", list(zip(labels, conj.sizes))),
        Section("class multiplicities", list(zip(labels, conj.multiplicities))),
        Section("class sums", [(lab, list(e.coeffs)) for lab, e in zip(labels, conj.class_sums)]),
        Section("character table", [(lab, list(r.coeffs)) for lab, r in zip(labels, conj.alpha)]),
    ]
    if data.s is not None:
        transparent = [labels[j] for j in alg.transparent_members()]
        sections.append(Section("transparent objects", [("members", transparent)]))
    return Report("classes", data, sections, [])


def _cmd_grading(args) -> Report:
    from .lattice import grading, prime_index_check
    data, alg, labels = _algebra(args)
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
        Section("components", [(g, [labels[i] for i in comp])
                               for g, comp in zip(names, grade.components)]),
        Section("group table", [(g, [names[v] for v in r]) for g, r in zip(names, grade.table)]),
    ]
    prime = prime_index_check(alg)
    if not prime.applicable:
        sections.append(Section("prime index", [("not applicable", prime.reason)]))
        return Report("grading", data, sections, [])
    sections.append(Section("prime index", [
        ("prime", prime.prime),
        ("subcategories", [_members_str(labels, d.members) for d in prime.subcategories]),
        ("normal subgroups", [[names[g] for g in sub] for sub in prime.subgroups]),
    ]))
    return Report("grading", data, sections, list(prime.checks))


def full_suite(alg: CharacterAlgebra) -> list[Check]:
    """Every identity check the engine knows, in one deterministic list."""
    from .centralizer import centralizer_suite
    from .lattice import lattice_suite
    checks = list(alg.identity_suite())
    checks.extend(lattice_suite(alg))
    checks.extend(centralizer_suite(alg))
    return checks


def _cmd_verify(args) -> Report:
    inp = _source(args, catalog_input, load_input)
    checks = validate_input(inp)
    sections = [
        Section(
            "input",
            [("name", inp.name), ("kind", inp.kind), ("rank", inp.rank)],
        )
    ]
    if not any(c.status == "fail" for c in checks):
        from .charalg import CharacterAlgebra
        checks = checks + full_suite(CharacterAlgebra(assemble_category(inp)))
    return Report("verify", inp, sections, checks)


# ---------------------------------------------------------------------------
# argument parsing: a command with its options spelled in full is read here,
# without importing argparse; any other argv (prefixes, --opt=value, --,
# values that start with '-', help and usage errors) goes to argparse itself,
# whose texts are laid out at 80 columns whatever the terminal

_COMMANDS = {  # command: (handler, help)
    "validate": (_cmd_validate, "check the input against the schema and category axioms"),
    "info": (_cmd_info, "objects, dims, duals and twists"),
    "subcats": (_cmd_subcats, "enumerate fusion subcategories with their invariants"),
    "centralizer": (_cmd_centralizer, "centralizer of the subcategory generated by --subcat"),
    "classes": (_cmd_classes, "conjugacy class sizes, multiplicities and class sums"),
    "grading": (_cmd_grading, "universal grading group and adjoint subcategory"),
    "verify": (_cmd_verify, "run every identity check and report pass/fail"),
    "catalog": (_cmd_catalog, "list built-in categories"),
}


class _UsageError(Exception):
    """A usage error, carrying its whole report: usage line and message."""


class _Help(Exception):
    """The help text argparse was asked for."""


def _argparse(argv: list):
    import argparse
    from functools import partial

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(f"{self.format_usage()}error: {message}")

        def print_help(self, file=None):
            raise _Help(self.format_help())

    layout = partial(argparse.HelpFormatter, width=78)  # 80 columns, whatever COLUMNS says
    parser = Parser(prog="fusioncat", description=__doc__.split("\n\n")[0],
                    formatter_class=layout)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, formatter_class=layout)
        if name != "catalog":
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--file", help="category file (JSON)")
            g.add_argument("--catalog", help="built-in catalog entry name")
        p.add_argument("--json", action="store_true", help="machine readable output")
        if name == "centralizer":
            p.add_argument("--subcat", required=True, metavar="LABELS",
                           help="comma separated generator labels")
    try:
        return parser.parse_args(argv)
    except _Help as e:
        return e.args[0]


def _parse(argv: list):
    """The args argparse makes of argv, or the help text it prints; a usage
    error raises _UsageError.  Read here: a command and then its options,
    each spelled in full, with no value that starts with '-'."""
    command = argv[0] if argv else None
    args = SimpleNamespace(command=command, file=None, catalog=None, json=False, subcat=None)
    names = ["--json"] + ["--file", "--catalog"] * (command != "catalog")
    names += ["--subcat"] * (command == "centralizer")
    k = 1
    while k < len(argv) and argv[k] in names:  # a repeated option keeps its last value
        name = argv[k][2:]
        if name == "json":
            args.json, k = True, k + 1
        elif argv[k + 1:k + 2] and argv[k + 1][:1] != "-":
            setattr(args, name, argv[k + 1])
            k += 2
        else:
            break
    if (k == len(argv) and command in _COMMANDS
            and (command == "catalog" or (args.file is None) != (args.catalog is None))
            and (command != "centralizer" or args.subcat is not None)):
        return args
    return _argparse(argv)


# the exit code of each error a handler may raise (see the module docstring)
_EXIT_CODES = {SchemaError: 3, CapabilityError: 4, InvalidCategoryError: 1,
               NotRibbonConsistentError: 2, InternalConsistencyError: 2}


def _diagnose(line: str) -> None:
    """Write line to stderr.  A closed or failing stderr loses it, and never
    changes the exit code."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(f"{line}\n")
            sys.stderr.flush()
    except (OSError, ValueError):
        pass


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        report = None if isinstance(args, str) else _COMMANDS[args.command][0](args)
        text = args if report is None else render_json(report) if args.json else render_text(report)
    except _UsageError as e:
        _diagnose(str(e))
        return 3
    except tuple(_EXIT_CODES) as e:
        _diagnose(f"error: {e}")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))

    code = 0
    if report is not None and any(c.status == "fail" for c in report.checks):
        code = 1 if args.command == "validate" else 2
    try:
        if sys.stdout is None:  # the interpreter started with no standard output
            raise OSError("standard output is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except (OSError, ValueError) as e:  # ValueError: a stream closed in process
        _diagnose(f"error: cannot write the report: {e}")
        return 3
    return code


def main(argv=None) -> None:
    """Entry of `python -m fusioncat` and the `fusioncat` script: os._exit with
    the code of run, which flushes what it writes, skipping teardown and atexit
    handlers; run is the API."""
    os._exit(run(argv))
