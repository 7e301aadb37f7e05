#!/usr/bin/env python3
"""Print one digest line per CLI command, to compare the output of two
versions of fusioncat byte for byte.

Every command runs in-process through fusioncat.cli.run, once as text and
once with --json: `catalog`, then validate, info, subcats, classes, grading,
verify and `centralizer --subcat X` for each simple object X, on each
catalog entry (or the entries named) and on each --file path given.  Each
line reads

    sha256(stdout) sha256(stderr) exit argv

so two runs with different PYTHONPATHs can be compared with diff.
"""

import argparse
import contextlib
import hashlib
import io

from fusioncat import catalog_input, catalog_names, load_input
from fusioncat.cli import run
from fusioncat.errors import CapabilityError, SchemaError

COMMANDS = ("validate", "info", "subcats", "classes", "grading", "verify")


def _labels(source):
    """Object labels of a source, or () when its input cannot be read."""
    kind, where = source
    try:
        return (catalog_input if kind == "--catalog" else load_input)(where).labels
    except (KeyError, SchemaError, CapabilityError):
        return ()


def _argvs(sources):
    yield ["catalog"]
    for source in sources:
        for cmd in COMMANDS:
            yield [cmd, *source]
        for label in _labels(source):
            yield ["centralizer", *source, "--subcat", label]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="catalog entries (default: all)")
    parser.add_argument(
        "--file", action="append", default=[], help="category file (repeatable)"
    )
    args = parser.parse_args()
    sources = [("--catalog", n) for n in args.names or catalog_names()]
    sources += [("--file", path) for path in args.file]
    for argv in _argvs(sources):
        for fmt in ([], ["--json"]):
            full = argv + fmt
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(full)
            print(_digest(out.getvalue()), _digest(err.getvalue()), code, " ".join(full))


if __name__ == "__main__":
    main()
