"""Expected results computed apart from fusioncat, and the checkers that
hold the program's `--json` reports against them.

A Model knows, for one category, what any correct engine must report:
labels, dimensions, duals, twists, the set of fusion subcategories, the
centralizer of a subcategory and the order of the universal grading group.
The values come from closed formulas and from integer computations on the
generators' group data, never from a stored copy of the program's output.

Numbers in a report are read from their exact coefficient arrays and
embedded here (sum_k c_k exp(2 pi i k / n)); the `approx` strings are
never used.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import gen

TOL = 1e-9


@dataclass
class Model:
    name: str
    labels: list[str]
    dims: list[float]
    duals: list[str]
    subcats: set[frozenset]  # of label sets
    centralizer: Optional[Callable[[frozenset], frozenset]]
    grading_order: int
    twists: Optional[list[complex]] = None

    @property
    def dim(self) -> float:
        return sum(d * d for d in self.dims)

    def dim_of(self, members) -> float:
        return sum(self.dims[self.labels.index(x)] ** 2 for x in members)

    def generate(self, generators) -> frozenset:
        """Smallest subcategory containing the generators: the meet of all
        subcategories that contain them."""
        want = set(generators)
        out = frozenset(self.labels)
        for d in self.subcats:
            if want <= d:
                out &= d
        return out


def embed(val: gen.Val) -> complex:
    n = val.conductor
    return sum(c * cmath.exp(2j * math.pi * m / n) for m, c in val.terms)


# ---------------------------------------------------------------------------
# models


def _subgroups(cat: gen.Category) -> set[frozenset]:
    """Every subgroup of the abelian group, by closing joins of subgroups
    with single elements, starting from the trivial group."""

    def close(elems):
        elems = set(elems)
        while True:
            new = {
                tuple((a + b) % n for a, b, n in zip(x, y, cat.moduli))
                for x in elems
                for y in elems
            }
            if new <= elems:
                return frozenset(elems)
            elems |= new

    zero = tuple(0 for _ in cat.moduli)
    found = {close([zero])}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for g in cat.group:
            if g not in h:
                k = close(h | {g})
                if k not in found:
                    found.add(k)
                    frontier.append(k)
    index = {g: cat.labels[i] for i, g in enumerate(cat.group)}
    return {frozenset(index[g] for g in h) for h in found}


def pointed_model(cat: gen.Category, twists_stored: bool = True) -> Model:
    """Model of a pointed category from its group and integer bicharacter."""
    r = cat.rank
    index = {g: i for i, g in enumerate(cat.group)}
    duals = [
        cat.labels[index[tuple(-a % n for a, n in zip(g, cat.moduli))]]
        for g in cat.group
    ]

    def centralizer(members: frozenset) -> frozenset:
        rows = [cat.labels.index(x) for x in members]
        return frozenset(
            cat.labels[j]
            for j in range(r)
            if all(cat.bichar[i][j] % cat.bichar_den == 0 for i in rows)
        )

    return Model(
        cat.name, list(cat.labels), [1.0] * r, duals, _subgroups(cat), centralizer,
        grading_order=r,
        twists=[embed(t) for t in cat.twists] if twists_stored else None,
    )


def _numeric_centralizer(labels, dims, s):
    def centralizer(members: frozenset) -> frozenset:
        rows = [labels.index(x) for x in members]
        return frozenset(
            labels[j]
            for j in range(len(labels))
            if all(abs(s[i][j] - dims[i] * dims[j]) < TOL for i in rows)
        )

    return centralizer


def su2_model(k: int, ring: bool = False) -> Model:
    """SU(2)_k: d_j = sin(pi (j+1)/(k+2)) / sin(pi/(k+2)); subcategories
    {0}, {0,k}, the integer-spin part and the whole category."""
    r = k + 1
    labels = [str(j) for j in range(r)]
    x = math.pi / (k + 2)
    dims = [math.sin(x * (j + 1)) / math.sin(x) for j in range(r)]
    s = [[math.sin(x * (i + 1) * (j + 1)) / math.sin(x) for j in range(r)] for i in range(r)]
    subcats = {
        frozenset(["0"]),
        frozenset(["0", str(k)]),
        frozenset(str(j) for j in range(0, r, 2)),
        frozenset(labels),
    }
    twists = [cmath.exp(2j * math.pi * j * (j + 2) / (4 * (k + 2))) for j in range(r)]
    return Model(
        f"su2_{k}_ring" if ring else f"su2_{k}", labels, dims, labels[:], subcats,
        None if ring else _numeric_centralizer(labels, dims, s),
        grading_order=2, twists=None if ring else twists,
    )


def _ising() -> Model:
    r2 = math.sqrt(2)
    labels = ["1", "sigma", "psi"]
    dims = [1.0, r2, 1.0]
    s = [[1, r2, 1], [r2, 0, -r2], [1, -r2, 1]]
    subcats = {frozenset(["1"]), frozenset(["1", "psi"]), frozenset(labels)}
    return Model("ising", labels, dims, labels[:], subcats,
                 _numeric_centralizer(labels, dims, s), grading_order=2)


def _fibonacci() -> Model:
    phi = (1 + math.sqrt(5)) / 2
    labels = ["1", "tau"]
    dims = [1.0, phi]
    s = [[1, phi], [phi, -1]]
    subcats = {frozenset(["1"]), frozenset(labels)}
    return Model("fibonacci", labels, dims, labels[:], subcats,
                 _numeric_centralizer(labels, dims, s), grading_order=1,
                 twists=[1, cmath.exp(4j * math.pi / 5)])


def _trivial() -> Model:
    return Model("trivial", ["1"], [1.0], ["1"], {frozenset(["1"])},
                 lambda members: frozenset(["1"]), grading_order=1)


CATALOG_NAMES = (
    "trivial", "vec_z2", "vec_z3", "vec_z4", "vec_z5", "vec_z6", "vec_z7",
    "vec_z8", "semion", "double_semion", "toric_code", "ising", "fibonacci",
)

# Subcategory counts that a correct engine must find on the catalog.
CATALOG_SUBCAT_COUNTS = {
    "trivial": 1, "toric_code": 5, "double_semion": 5, "ising": 3,
    "fibonacci": 2, "semion": 2,
    **{f"vec_z{n}": sum(1 for d in range(1, n + 1) if n % d == 0) for n in range(2, 9)},
}


def catalog_models() -> dict[str, Model]:
    models = {
        "trivial": _trivial(),
        "ising": _ising(),
        "fibonacci": _fibonacci(),
        "semion": pointed_model(gen.semion()),
        "double_semion": pointed_model(gen.double_semion()),
        "toric_code": pointed_model(gen.toric_code()),
    }
    for n in range(2, 9):
        # vec_z2 is stored at conductor 1, which has no room for its twists
        models[f"vec_z{n}"] = pointed_model(gen.vec_zn(n), twists_stored=n > 2)
    return models


# ---------------------------------------------------------------------------
# reading reports


def value(cell) -> complex:
    """Embed an exact report cell; rejects anything without exact data."""
    exact = cell["exact"]
    if isinstance(exact, str):
        return complex(Fraction(exact))
    n = cell["conductor"]
    return sum(
        float(Fraction(c)) * cmath.exp(2j * math.pi * k / n)
        for k, c in enumerate(exact)
        if c != "0"
    )


def members(text: str) -> frozenset:
    """'{1, e, m}' -> frozenset of labels."""
    inner = text.strip()[1:-1].strip()
    return frozenset(x.strip() for x in inner.split(",")) if inner else frozenset()


def _sections(report) -> dict:
    return {sec["title"]: sec["rows"] for sec in report["sections"]}


class Checker:
    """Collects failures; `errors` is empty when every check held."""

    def __init__(self):
        self.errors: list[str] = []

    def expect(self, ok: bool, where: str, what: str) -> None:
        if not ok:
            self.errors.append(f"{where}: {what}")

    def close(self, got: complex, want: complex, where: str, what: str) -> None:
        self.expect(abs(got - want) < TOL, where, f"{what}: got {got}, want {want}")

    def report(self, kind: str, model: Optional[Model], rc: int, out: bytes,
               subcat: Optional[list[str]] = None, where: str = "") -> None:
        """Check one command's exit code and report against the model."""
        where = where or f"{kind} {model.name if model else ''}".strip()
        self.expect(rc == 0, where, f"exit code {rc}")
        if rc != 0:
            return
        try:
            report = json.loads(out)
        except ValueError as e:
            self.expect(False, where, f"output is not JSON: {e}")
            return
        checks = report.get("checks", [])
        failed = [c["id"] for c in checks if c["status"] == "fail"]
        self.expect(not failed, where, f"failed checks {failed}")
        bare = [c["id"] for c in checks if c["status"] == "skip" and not c["detail"]]
        self.expect(not bare, where, f"skipped checks without a reason {bare}")
        getattr(self, "_" + kind)(model, _sections(report), report, subcat, where)

    # -- one method per command ---------------------------------------------

    def _catalog(self, model, secs, report, subcat, where):
        rows = secs["built-in categories"]
        self.expect([r[0] for r in rows] == list(CATALOG_NAMES), where, "entry names")
        ranks = {name: len(m.labels) for name, m in catalog_models().items()}
        for name, text in rows:
            self.expect(f"rank {ranks.get(name)}," in text, where, f"rank of {name}")

    def _validate(self, model, secs, report, subcat, where):
        self.expect(bool(report["checks"]), where, "no checks reported")
        rows = dict(secs["input"])
        self.expect(rows["labels"] == model.labels, where, "labels")

    def _info(self, model, secs, report, subcat, where):
        rows = dict(secs["category"])
        self.expect(rows["rank"] == len(model.labels), where, "rank")
        self.close(value(rows["global dim"]), model.dim, where, "global dim")
        dims = dict(secs["dims"])
        self.expect(set(dims) == set(model.labels), where, "labels")
        for i, lab in enumerate(model.labels):
            if lab in dims:
                self.close(value(dims[lab]), model.dims[i], where, f"d_{lab}")
        duals = dict(secs["duals"])
        for i, lab in enumerate(model.labels):
            self.expect(duals.get(lab) == model.duals[i], where, f"dual of {lab}")
        if "twists" in secs and model.twists is not None:
            twists = dict(secs["twists"])
            for i, lab in enumerate(model.labels):
                self.close(value(twists[lab]), model.twists[i], where, f"theta_{lab}")
        else:
            self.expect(
                ("twists" in secs) == (model.twists is not None), where, "twists present"
            )

    def _subcats(self, model, secs, report, subcat, where):
        dims = {members(k): value(v) for k, v in secs["dim"]}
        self.expect(set(dims) == model.subcats, where,
                    f"{len(dims)} subcategories, want {len(model.subcats)}")
        count = CATALOG_SUBCAT_COUNTS.get(model.name)
        self.expect(count in (None, len(dims)), where, f"{len(dims)} subcategories, want {count}")
        for d, got in dims.items():
            if d <= set(model.labels):
                self.close(got, model.dim_of(d), where, f"dim {sorted(d)}")
        for k, v in secs["index"]:
            d = members(k)
            if d <= set(model.labels):
                self.close(value(v), model.dim / model.dim_of(d), where, f"index {sorted(d)}")

    def _classes(self, model, secs, report, subcat, where):
        sizes = dict(secs["class sizes"])
        mults = dict(secs["class multiplicities"])
        for i, lab in enumerate(model.labels):
            size = model.dims[i] ** 2
            self.close(value(sizes[lab]), size, where, f"class size {lab}")
            self.close(value(mults[lab]), model.dim / size, where, f"multiplicity {lab}")
        if "transparent objects" in secs:
            got = dict(secs["transparent objects"])["members"]
            self.expect(got == [model.labels[0]], where, f"transparent objects {got}")

    def _grading(self, model, secs, report, subcat, where):
        rows = dict(secs["universal grading"])
        self.expect(rows["group order"] == model.grading_order, where,
                    f"grading group order {rows['group order']}, want {model.grading_order}")

    def _centralizer(self, model, secs, report, subcat, where):
        rows = dict(secs["centralizer"])
        d = model.generate(subcat)
        prime = model.centralizer(d)
        self.expect(members(rows["D"]) == d, where, f"D = {rows['D']}, want {sorted(d)}")
        for route in ("D' (s-matrix route)", "D' (transform route)"):
            self.expect(members(rows[route]) == prime, where,
                        f"{route} = {rows[route]}, want {sorted(prime)}")
        dim_d, dim_p = value(rows["dim D"]), value(rows["dim D'"])
        self.close(dim_d, model.dim_of(d), where, "dim D")
        self.close(dim_p, model.dim_of(prime), where, "dim D'")
        self.close(dim_d * dim_p, model.dim, where, "dim D * dim D'")

    def _verify(self, model, secs, report, subcat, where):
        self.expect(bool(report["checks"]), where, "no checks reported")
        rows = dict(secs["input"])
        self.expect(rows["rank"] == len(model.labels), where, "rank")
