"""The benchmark's workloads: which categories, which commands, in what order.

A workload is built from a seed.  The seed relabels the non-unit simple
objects of generated categories (and, for the catalog, orders the
entries), so the bytes the program reads change while the work does not.

Each workload has two command lists:
- `setup`: a cold `info` on every category, which pays interpreter start,
  import, parsing, validation and assembly before any class-algebra
  question is answered;
- `round`: every command of the workload, run one after another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import gen
import oracle


@dataclass
class Command:
    kind: str  # the fusioncat subcommand
    source: list[str]  # ["--catalog", NAME] or ["--file", PATH], or [] for catalog
    model: Optional[oracle.Model]
    subcat: Optional[list[str]] = None  # generator labels for centralizer

    @property
    def argv(self) -> list[str]:
        extra = ["--subcat", ",".join(self.subcat)] if self.subcat else []
        return [self.kind, *self.source, *extra, "--json"]


@dataclass
class Workload:
    name: str
    # Metrics use per-command medians, so a run takes at least three samples
    # of each set-up command (set-up passes plus the `info` commands of its
    # rounds), and two of every other command where the budget allows:
    # three on the catalog, whose short commands see the largest relative
    # jitter.
    setup_passes: int
    min_rounds: int
    setup: list[Command] = field(default_factory=list)
    round: list[Command] = field(default_factory=list)


WORKLOADS = ("catalog-queries", "cyclotomic-ladder", "lattice-rank16")

# SU(2)_k rungs of the cyclotomic ladder; conductor 4(k+2) and rank k+1.
LADDER_LEVELS = (2, 5, 7)


def inputs_dir(name: str, seed: int) -> Path:
    """Where a workload's generated inputs go, relative to the checkout root."""
    return Path("perfbench") / "_work" / "inputs" / f"{name}-seed{seed}"


def build(name: str, seed: int, inputs: Path) -> Workload:
    if name == "catalog-queries":
        return _catalog_queries(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "cyclotomic-ladder":
        return _cyclotomic_ladder(seed, inputs)
    if name == "lattice-rank16":
        return _lattice_rank16(seed, inputs)
    raise KeyError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")


# The larger cyclic groups get no per-entry commands: each of their commands
# costs 2-7 times a small entry's, a run needs three rounds, and kernel-heavy
# inputs are the ladder's part.  `catalog` still loads and cross-checks them
# in every round.
CATALOG_SKIPPED = ("vec_z5", "vec_z6", "vec_z7", "vec_z8")


def _catalog_queries(seed: int) -> Workload:
    """`catalog`, then every input command on the built-in entries."""
    models = oracle.catalog_models()
    names = [n for n in oracle.CATALOG_NAMES if n not in CATALOG_SKIPPED]
    random.Random(seed).shuffle(names)
    w = Workload("catalog-queries", setup_passes=0, min_rounds=3)
    w.round.append(Command("catalog", [], None))
    for entry in names:
        m = models[entry]
        src = ["--catalog", entry]
        w.setup.append(Command("info", src, m))
        for kind in ("validate", "info", "subcats", "classes", "grading"):
            w.round.append(Command(kind, src, m))
        w.round.append(Command("centralizer", src, m, subcat=[m.labels[-1]]))
        w.round.append(Command("verify", src, m))
    return w


def _write(cat: gen.Category, seed: int, inputs: Path, ring: bool) -> list[str]:
    cat = gen.relabel(cat, gen.relabel_perm(cat.rank, seed, cat.name))
    obj = gen.ring_json(cat) if ring else gen.modular_json(cat)
    path = inputs / f"{obj['name']}.json"
    gen.write_json(obj, path)
    return ["--file", str(path)]


def _cyclotomic_ladder(seed: int, inputs: Path) -> Workload:
    """SU(2)_k in modular and fusion-ring form: info, verify, and the
    centralizer of the integer-spin part (generated by spin 1, label "2")."""
    w = Workload("cyclotomic-ladder", setup_passes=1, min_rounds=2)
    for k in LADDER_LEVELS:
        cat = gen.su2(k)
        mod, ring = oracle.su2_model(k), oracle.su2_model(k, ring=True)
        mod_src = _write(cat, seed, inputs, ring=False)
        ring_src = _write(cat, seed, inputs, ring=True)
        w.setup += [Command("info", mod_src, mod), Command("info", ring_src, ring)]
        w.round += [
            Command("info", mod_src, mod),
            Command("info", ring_src, ring),
            Command("verify", mod_src, mod),
            Command("verify", ring_src, ring),
            Command("centralizer", mod_src, mod, subcat=["2"]),
        ]
    return w


def _lattice_rank16(seed: int, inputs: Path) -> Workload:
    """toric_code (x) toric_code: rank 16, conductor 1, 67 subcategories."""
    w = Workload("lattice-rank16", setup_passes=2, min_rounds=1)
    cat = gen.deligne_power(gen.toric_code(), 2, "toric_code2")
    model = oracle.pointed_model(cat)
    src = _write(cat, seed, inputs, ring=False)
    w.setup.append(Command("info", src, model))
    w.round += [
        Command("info", src, model),
        Command("centralizer", src, model, subcat=["e.1", "1.m"]),
        Command("verify", src, model),
    ]
    return w


if __name__ == "__main__":
    # python3 perfbench/workloads.py WORKLOAD SEED
    # writes the workload's inputs and lists its commands, setup pass first
    import sys

    name, seed = sys.argv[1], int(sys.argv[2])
    w = build(name, seed, inputs_dir(name, seed))
    for cmd in w.setup + w.round:
        print("fusioncat", " ".join(cmd.argv))
