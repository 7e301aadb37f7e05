"""In-process tracing of fusioncat from outside the package.

Spans (name, start, end, parent) are recorded around calls into each
module's public functions by replacing those functions, in every
fusioncat module namespace that holds them, with timing wrappers; the
originals are put back when tracing ends.  Kernel counters come from
wrapping `Cyclotomic` and `CycloMatrix` methods the same way.  Counters
are read at every span boundary, so each span name also accumulates the
kernel operations done inside it.  Spans are kept in memory and written
out by the caller when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

KERNEL_COUNTERS = ("mul", "add", "inv", "galois", "lift")

# (module, attribute) -> span name.  A layer is a module; the span name's
# first component names it.
FUNCTION_SPANS = {
    ("category", "load_input"): "category.parse",
    ("category", "validate_input"): "category.validate",
    ("category", "assemble_category"): "category.assemble",
    ("category", "verlinde_fusion"): "category.verlinde",
    ("catalog", "catalog_get"): "catalog.get",
    ("catalog", "catalog_input"): "catalog.input",
    ("lattice", "enumerate_subcats"): "lattice.enumerate",
    ("lattice", "subcat_invariants"): "lattice.subcat_invariants",
    ("lattice", "lattice_suite"): "lattice.lattice_suite",
    ("lattice", "grading"): "lattice.grading",
    ("lattice", "generate_subcat"): "lattice.generate_subcat",
    ("lattice", "prime_index_check"): "lattice.prime_index",
    ("centralizer", "centralizer"): "centralizer.centralizer",
    ("centralizer", "verify_main_identity"): "centralizer.main_identity",
    ("centralizer", "centralizer_suite"): "centralizer.suite",
    ("cli", "render_json"): "cli.render",
}

METHOD_SPANS = {
    ("charalg", "CharacterAlgebra", "__init__"): "charalg.init",
    ("charalg", "CharacterAlgebra", "conjugacy"): "charalg.conjugacy",
    ("charalg", "CharacterAlgebra", "identity_suite"): "charalg.identity_suite",
    ("cyclotomic", "CycloMatrix", "inverse"): "cyclotomic.matrix_inverse",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(KERNEL_COUNTERS, 0)
        self.calls: dict[str, int] = defaultdict(int)
        self.stage_counts: dict[str, dict] = defaultdict(lambda: dict.fromkeys(KERNEL_COUNTERS, 0))
        self.max_conductor = 1
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> tuple:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self.stack.append(sid)
        return sid, tuple(self.counts.values())

    def end(self, token: tuple) -> None:
        sid, before = token
        span = self.spans[sid]
        span[3] = time.perf_counter()
        self.stack.pop()
        self.calls[span[1]] += 1
        stage = self.stage_counts[span[1]]
        for key, b, now in zip(KERNEL_COUNTERS, before, self.counts.values()):
            stage[key] += now - b

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing wrappers ----------------------------------------------------

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {
            name.split(".")[-1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("fusioncat.")
        }
        for (mod, attr), name in FUNCTION_SPANS.items():
            orig = getattr(mods[mod], attr)
            wrapped = self._spanned(name, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        for (mod, cls, attr), name in METHOD_SPANS.items():
            owner = getattr(mods[mod], cls)
            self._set(owner, attr, self._spanned(name, owner.__dict__[attr]))
        self._install_kernel(mods["cyclotomic"].Cyclotomic)

    def _install_kernel(self, cyc) -> None:
        counts = self.counts
        tracer = self

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        mul = cyc.__dict__["__mul__"]

        def mul_wrapper(a, b):
            counts["mul"] += 1
            out = mul(a, b)
            if out is not NotImplemented and out.conductor > tracer.max_conductor:
                tracer.max_conductor = out.conductor
            return out

        lift = cyc.__dict__["lift"]

        def lift_wrapper(a, conductor):
            if conductor != a.conductor:
                counts["lift"] += 1
            return lift(a, conductor)

        self._set(cyc, "__mul__", mul_wrapper)
        self._set(cyc, "__rmul__", mul_wrapper)
        self._set(cyc, "__add__", counted("add", cyc.__dict__["__add__"]))
        self._set(cyc, "__radd__", counted("add", cyc.__dict__["__radd__"]))
        self._set(cyc, "inv", counted("inv", cyc.__dict__["inv"]))
        self._set(cyc, "galois", counted("galois", cyc.__dict__["galois"]))
        self._set(cyc, "lift", lift_wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per layer: a span's duration minus its children's."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            out[name.split(".")[0]] += end - start - child[sid]
        return out

    def coverage(self, root: str) -> float:
        """Share of root-span time that falls inside its direct child spans."""
        total = covered = 0.0
        roots = {s[0] for s in self.spans if s[1] == root}
        for sid, name, start, end, parent in self.spans:
            if sid in roots:
                total += end - start
            elif parent in roots:
                covered += end - start
        return covered / total if total else 0.0

    def dump(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
            for s in self.spans
        ]
