"""Category data: fusion rings, pivotal dimensions, modular s-matrices.

Two kinds of input are supported.  A "modular" category is given by its
unnormalized s-matrix (s_00 = 1, symmetric, invertible); the fusion ring is
then *derived* from it by the exact Verlinde sum

    N_ij^k = (1/dim C) * sum_r s_ir s_jr s_{k* r} / s_0r

and every coefficient must come out a nonnegative integer, which doubles as
a non-degeneracy certificate.  A "fusion_ring" category carries explicit
fusion coefficients and dimensions, optionally with a character table for
the class algebra; no braiding is assumed, so s-dependent operations are
gated off for it.

Validation never raises on well-formed input: it returns a list of Check
records, one per invariant, so a report can show everything that is wrong
at once.  build_category is the one build path: it validates the input once
and assembles it, refusing data with any failed check.  The fusion ring and
its duality are derived once per input, by CategoryInput.derived_ring, which
validation checks and assembly reuses, so the Verlinde sum runs at most once.
Everything derived from an s-matrix is computed in the least field that
holds it (CategoryInput.s_field): SU(2)_k declares conductor 4(k+2) for its
twists, but its s lies in Q(zeta_2(k+2)).  Twists keep their conductor, and
values are printed at the one s was given at, shown_conductor, by the one
show that CategoryInput and CategoryData share, as they share rank.
CategoryData is one flat record: the labels, the fusion rules with their
duality, the dimensions and, on modular input, s and the twists.  _FIELDS is
the one declaration of the file format's array fields: parse_category reads
each through _parse_array and input_to_json writes each through _array_to_json.
"""

from __future__ import annotations

import sys
from functools import cache, cached_property
from itertools import chain, compress, product, repeat, zip_longest
from math import inf, lcm, nan
from operator import floordiv, mod

from .cyclotomic import (
    Cyclotomic, CycloMatrix, _chunks, _family, _Frozen, _make, _matrix, _mul, _permuted, _Vector,
    euler_phi, pointwise_nums, rational, shown, triple_sums, zeta,
)
from .errors import (
    CapabilityError,
    InvalidCategoryError,
    MalformedFusionError,
    NotModularError,
    SchemaError,
    SingularMatrixError,
)

__all__ = [
    "Check",
    "verdict",
    "CategoryData",
    "CategoryInput",
    "dual_involution",
    "verlinde_fusion",
    "global_dim",
    "validate_input",
    "build_category",
    "parse_category",
    "load_input",
    "load_category",
    "category_to_input",
    "input_to_json",
    "save_category",
]

SCHEMA_VERSION = 1
# Largest conductor a file may declare: the first sum at conductor n builds an
# n * phi(n)-entry monomial table, which takes seconds from about n = 10000.
CONDUCTOR_LIMIT = 1000
# Largest rank a file may declare: validation makes about rank^4/6 packed
# products; a cold validate takes 1.4 s at rank 128 in Q, 132 s at rank 127 in
# Q(zeta_127) (vec_z127), on a shared 2-vCPU machine.
RANK_LIMIT = 128


class Check(_Frozen):
    """Outcome of one named invariant check."""

    __slots__ = ("check_id", "status", "detail")  # status: "pass" | "fail" | "skip"
    _defaults = {"detail": ""}


def verdict(check_id: str, ok: bool, detail: str = "") -> Check:
    """A passing or failing Check; skips are written as Check(id, "skip", why)."""
    return Check(check_id, "pass" if ok else "fail", detail)


def _witness(check_id: str, bad, detail: str) -> Check:
    """Pass when there is no witness (bad is None or []), else fail with
    detail.format(bad)."""
    ok = bad is None or bad == []
    return verdict(check_id, ok, "" if ok else detail.format(bad))


class CategoryData(_Frozen):
    """An assembled category: `labels`, the fusion rules `fusion` with their
    duality involution `dual`, and `dims`.  `s` is the unnormalized s-matrix,
    in its least field, and `twists` are stored if given but only checked to
    be roots of unity; both are None on fusion-ring input.  `shown_conductor`
    is the one values are shown at (CategoryInput).  `certified` is the
    fusion rules N for which validation proved the character law sum_k N_ij^k
    alpha_kl = alpha_il alpha_jl of conjugacy()'s alpha, or None.  On a
    character table, char_table_law checked it column by column.  On modular input alpha_il =
    s_il / d_l, and the certificate is: s symmetric, s s = c P with c != 0
    and P the permutation matrix of the duality k -> k* derived with N by
    the Verlinde sum N_ij^k = (1/c') sum_r s_ir s_jr s_{k* r} / d_r,
    c' = sum_r d_r^2, d_r = s_0r.  Proof: s commutes with s s = c P, so
    s P = P s, that is s_{r k*} = s_{r* k}.  With symmetry, sum_k s_{k* r}
    s_kl = sum_k s_{r* k} s_kl = (s s)_{r* l} = c delta_rl, and c = (s s)_00
    = c' as 0* = 0.  So sum_k N_ij^k s_kl = s_il s_jl / d_l; divide by d_l."""

    # fusion[i][j][k] = N_ij^k as nested tuples, index 0 the unit object; dim is
    # the global dimension, sum_i d_i d_{i*}; __dict__ holds nonzero and noncommuting
    __slots__ = ("name", "labels", "fusion", "dual", "dims", "s", "twists", "shown_conductor",
                 "char_table", "dim", "certified", "__dict__")
    _defaults = {"certified": None}

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def nonzero(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """nonzero[i][j] lists the pairs (k, N_ij^k) with N_ij^k != 0."""
        return _sparse_rows(self.fusion)

    @cached_property
    def noncommuting(self) -> tuple[int, int] | None:
        """The first (i, j), row-major, where N_ij != N_ji, or None when the rules commute."""
        nonzero = self.nonzero
        if tuple(zip(*nonzero)) == nonzero:
            return None
        return next((i, j) for i, j in product(range(self.rank), repeat=2)
                    if nonzero[i][j] != nonzero[j][i])

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no simple object labelled {label!r}") from None

    @property
    def kind(self) -> str:
        return "modular" if self.s is not None else "fusion_ring"

    @property
    def is_integral(self) -> bool:
        return all(d.is_integer() for d in self.dims)

    def show(self, v: Cyclotomic) -> Cyclotomic:
        """v as printed: s-derived values are computed in the least field of s
        but every one that is printed, in a report, a check or an error,
        goes through here and is lifted to shown_conductor."""
        return shown(v, self.shown_conductor)


def _sparse_rows(fusion):
    """The pairs (k, N_ij^k) with N_ij^k != 0, for each (i, j)."""
    return tuple(tuple(tuple(compress(enumerate(row), row)) for row in rows) for rows in fusion)


def _law_witness(nonzero, n: int, den: int, rows, pairs=None):
    """The first (i, j) of pairs (default: every j >= i, row-major), and there
    the first coordinate l, where the fusion law sum_k N_ij^k x_k = x_i x_j
    fails for x_k = rows[k] / den, flat numerator rows at conductor n; both
    sides are compared times den^2.  nonzero is _sparse_rows of N."""
    rank, phi = len(rows), euler_phi(n)
    scaled = rows if den == 1 else [[den * c for c in row] for row in rows]
    if pairs is None:
        pairs = ((i, j) for i in range(rank) for j in range(i, rank))
    for i, j in pairs:
        lhs = [0] * len(rows[i])
        for k, t in nonzero[i][j]:
            lhs = [a + t * b for a, b in zip(lhs, scaled[k])]
        rhs = pointwise_nums(n, rows[i], rows[j])
        if lhs != rhs:
            return i, j, next(m for m, (a, b) in enumerate(zip(lhs, rhs)) if a != b) // phi
    return None


def _invertibility(check_id: str, m: CycloMatrix, certified: bool) -> Check:
    """Pass on a certificate; without one, elimination decides, and a
    singular m fails with its rank."""
    try:
        if not certified:
            m.inverse()
    except SingularMatrixError as e:
        return verdict(check_id, False, str(e))
    return verdict(check_id, True)


def dual_involution(fusion) -> tuple[int, ...]:
    """Read the duality permutation off N[i][j][0]; it must be a delta."""
    rank = len(fusion)
    dual = []
    for i in range(rank):
        hits = [j for j in range(rank) if fusion[i][j][0] != 0]
        if len(hits) != 1 or fusion[i][hits[0]][0] != 1:
            raise MalformedFusionError(
                f"object {i} has no unique dual: N[{i}][j][0] nonzero at {hits}"
            )
        dual.append(hits[0])
    for i in range(rank):
        if dual[dual[i]] != i:
            raise MalformedFusionError(f"duality is not an involution at {i}")
    if dual[0] != 0:
        raise MalformedFusionError("unit object is not self-dual")
    return tuple(dual)


def global_dim(dims, dual) -> Cyclotomic:
    return sum((d * dims[dual[i]] for i, d in enumerate(dims)), rational(0))


def verlinde_fusion(s: CycloMatrix, show=lambda v: v):
    """Derive (fusion, dual) from an s-matrix, or raise NotModularError, also
    for a zero dimension or global dimension.  Duality is self-consistent: the
    first pass computes the raw sums T_ij^k = sum_r s_ir s_jr s_kr / (d_r
    dim C) (no dual applied), symmetric in i, j, k, on sorted triples
    k <= j <= i only, as the triple_sums of the flat rows of s with the
    weights 1 / (d_r dim C).  It raises at the least failing sorted triple,
    the first failing entry of all, printed through show.
    dual_involution reads duality off T_ij^0, and then N_ij^k = T_ij^{k*}."""
    rank = s.nrows
    if rank != s.ncols:
        raise NotModularError("s-matrix is not square")
    dims = s.rows[0]
    for r, d in enumerate(dims):
        if d.is_zero():
            raise NotModularError(f"s_0{r} = 0, zero dimension")
    dim_c = sum((d * d for d in dims), rational(0))
    if dim_c.is_zero():
        raise NotModularError("global dimension is zero")
    dim_inv = dim_c.inv()
    n, den_s, rows = s.flat()
    n, den_w, (weights,) = _family([_Vector([d.inv() * dim_inv for d in dims])], n)
    phi, den = euler_phi(n), den_s ** 3 * den_w
    low, bad = [], None  # low[j][i - j] = T_ij^k for k <= j <= i, decided per block
    for j, sums in enumerate(triple_sums(n, rows, weights)):
        flat = list(chain.from_iterable(sums))
        if (min(flat[::phi]) < 0 or any(map(mod, flat[::phi], repeat(den)))
                or any(any(flat[m::phi]) for m in range(1, phi))):
            firsts = (next(((k, j, i, x) for k, x in enumerate(_chunks(row, phi))
                            if x[0] < 0 or x[0] % den or any(x[1:])), None)
                      for i, row in enumerate(sums, j))
            bad = min(filter(None, [bad, *firsts]))
        qs = list(map(floordiv, flat[::phi], repeat(den)))
        low.append([qs[x:x + j + 1] for x in range(0, len(qs), j + 1)])
    if bad is not None:
        i, j, k, x = bad
        raise NotModularError(f"Verlinde coefficient at (i={i}, j={j}, k={k}) is "
                              f"{show(_make(n, x, den))}, not a nonnegative integer")

    # t[i][j] = t[j][i] for j <= i: T_ij^k over k <= j, then over j < k <= i (column
    # j of the rows low[k][i - k]), then over k > i (column j of low[i] past row 0)
    t = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        tri = [low[k][i - k] for k in range(i + 1)]
        mid, high = list(zip_longest(*tri)), list(zip(*low[i]))
        for j in range(i + 1):
            t[i][j] = t[j][i] = (*tri[j], *mid[j][j + 1:], *high[j][1:])
    try:
        dual = dual_involution(t)
    except MalformedFusionError as e:
        raise NotModularError(f"derived duality broken: {e}") from e

    fusion = tuple(tuple(zip(*[cols[k] for k in dual])) for cols in (list(zip(*p)) for p in t))
    return fusion, dual


# ---------------------------------------------------------------------------
# raw input carrier and validation


class CategoryInput(_Frozen):
    """Parsed but not yet trusted category description."""

    # __dict__ holds the derivations
    __slots__ = ("name", "conductor", "labels", "s_matrix", "twists", "fusion", "dims",
                 "char_table", "__dict__")
    _defaults = dict.fromkeys(("s_matrix", "twists", "fusion", "dims", "char_table"))

    rank = CategoryData.rank

    @property
    def kind(self) -> str:
        """Read off the fields: modular when s_matrix is given, else fusion_ring."""
        return "modular" if self.s_matrix is not None else "fusion_ring"

    @cached_property
    def derived_ring(self) -> tuple[tuple, tuple[int, ...]]:
        """(fusion, dual), derived once per input: by the Verlinde sum for
        modular input, by dual_involution for given fusion rules.  Raises
        what those raise; validate_input reports that as a failed check."""
        if self.kind == "modular":
            return verlinde_fusion(self.s_field, self.show)
        return self.fusion, dual_involution(self.fusion)

    @cached_property
    def nonzero(self):
        """_sparse_rows of the given or derived rules, once per input for
        validation and char_table_law."""
        return _sparse_rows(self.fusion or self.derived_ring[0])

    @property
    def shown_conductor(self) -> int:
        """Where s-derived values are shown: the declared conductor, or the
        given s-matrix's if that is not a divisor of it; 1 without s."""
        return lcm(self.conductor, self.s_matrix.conductor) if self.s_matrix is not None else 1

    show = CategoryData.show

    @cached_property
    def char_table_law(self):
        """_law_witness of the table's columns under the given rules, run once
        per input: validation reports it and assembly reads it as a certificate."""
        return _law_witness(self.nonzero, *self.char_table.flat())

    @cached_property
    def s_field(self) -> CycloMatrix:
        """The s-matrix in the least field that holds it (CycloMatrix.descended)."""
        return self.s_matrix.descended()

    @cached_property
    def s_asymmetry(self) -> tuple[int, int] | None:
        """The first (i, j), row-major, where s_ij != s_ji, or None: s ==
        s.transpose() as one comparison of their numerators, which share the
        conductor and the denominator."""
        s, t = self.s_field, self.s_field.transpose()
        k = next((k for k, (a, b) in enumerate(zip(s.entries.nums, t.entries.nums)) if a != b),
                 None)
        return None if k is None else divmod(k // euler_phi(s.conductor), s.ncols)

    @cached_property
    def s_square(self) -> tuple[int, ...] | None:
        """P when s s = c P with c != 0 and P a permutation matrix, as the
        column of the one nonzero entry of each row; else None.  This proves s
        invertible, and s_certified builds on it."""
        n, _, rows = (self.s_field @ self.s_field).flat()
        hits = [[(j, x) for j, x in enumerate(_chunks(row, euler_phi(n))) if any(x)]
                for row in rows]
        if not all(len(h) == 1 and h[0][1] == hits[0][0][1] for h in hits):
            return None
        perm = tuple(h[0][0] for h in hits)
        return perm if sorted(perm) == list(range(len(rows))) else None

    @property
    def s_certified(self) -> bool:
        """s symmetric, s s = c P, P the derived duality: the certificate of CategoryData."""
        return self.s_square == self.derived_ring[1] and self.s_asymmetry is None


def _associativity_witness(fusion, nonzero):
    """(L_i L_j) L_k against L_i (L_j L_k) for all k of one (i, j), on packed
    rows m -> N_ab^m in w-bit slots (each slot sum is <= rank max(N)^2 < 2^w);
    the first failing (i, j, k), and there the lowest differing slot m."""
    rank = len(fusion)
    w = (rank * max(n for plane in fusion for row in plane for n in row) ** 2).bit_length()
    packed = [[sum(n << w * m for m, n in row) for row in rows] for rows in nonzero]
    terms = [[(k, l, a) for k, row in enumerate(rows) for l, a in row] for rows in nonzero]
    for i, j in product(range(rank), repeat=2):
        lhs, rhs, row = [0] * rank, [0] * rank, packed[i]
        for l, a in nonzero[i][j]:
            lhs = [x + a * y for x, y in zip(lhs, packed[l])]
        for k, l, a in terms[j]:
            rhs[k] += a * row[l]
        if lhs != rhs:
            k = next(k for k in range(rank) if lhs[k] != rhs[k])
            diff = lhs[k] ^ rhs[k]
            return i, j, k, next(m for m in range(rank) if diff >> w * m & ((1 << w) - 1))
    return None


def _check_ring_axioms(inp: CategoryInput, fusion, dims, checks: list[Check]):
    """Shared fusion-ring checks on the given or derived rules of inp, which
    read inp.nonzero only for a law they run; returns the duality, or None.
    On inp.s_certified, associativity passes, and dim-homomorphism if d_0 = 1,
    without running the law.  Proof: the characters alpha_ml = s_ml / d_l
    satisfy sum_m N_ij^m alpha_ml = alpha_il alpha_jl (CategoryData), and
    alpha = s diag(1/d) is invertible.  Through alpha, (L_i L_j) L_k and
    L_i (L_j L_k) both give alpha_il alpha_jl alpha_kl, so they are equal;
    alpha_i0 = s_i0 / s_00 = d_i, s being symmetric with s_00 = d_0 = 1."""
    rank = len(fusion)
    bad = next((
        (j, k) for j, k in product(range(rank), repeat=2)
        if fusion[0][j][k] != (j == k) or fusion[j][0][k] != (j == k)
    ), None)
    checks.append(_witness("unit-axiom", bad, "violated at {}"))

    try:
        dual = inp.derived_ring[1]
        checks.append(verdict("duality-axiom", True))
    except MalformedFusionError as e:
        dual = None
        checks.append(verdict("duality-axiom", False, str(e)))

    certified = inp.kind == "modular" and inp.s_certified
    bad = None if certified else _associativity_witness(fusion, inp.nonzero)
    checks.append(_witness("associativity", bad, "violated at (i,j,k,m)={}"))

    if dims is not None:
        ok = dims[0] == 1
        checks.append(
            verdict("unit-dim", ok, "" if ok else f"d_0 = {inp.show(dims[0])}, expected 1")
        )
        if inp.kind != "modular":  # modular input checked s_0r before Verlinde
            zero = [i for i, d in enumerate(dims) if d.is_zero()]
            checks.append(_witness("dims-nonzero", zero, "zero dimension at {}"))
        # the fusion law of the one-coordinate vectors (d_k), at every (i, j)
        bad = None if certified and ok else _law_witness(
            inp.nonzero, *_family(dims), product(range(rank), repeat=2))
        checks.append(_witness("dim-homomorphism", bad and bad[:2],
                               "d_i*d_j != sum N_ij^k d_k at {}"))
        if dual is not None:
            bad = [i for i in range(rank) if dims[dual[i]] != dims[i]]
            checks.append(_witness("spherical", bad, "d_(i*) != d_i at {}"))
            total = global_dim(dims, dual)
            ok = not total.is_zero()
            checks.append(
                verdict("global-dim-nonzero", ok, f"dim C = {inp.show(total)}" if ok else "")
            )
        else:
            checks.append(Check("spherical", "skip", "no duality involution"))
            checks.append(Check("global-dim-nonzero", "skip", "no duality involution"))
    return dual


def _check_char_table(inp: CategoryInput, dual, checks: list[Check]):
    table, dims = inp.char_table, inp.dims
    bad = next((j for j in range(inp.rank) if table.rows[0][j] != 1), None)
    checks.append(_witness("char-table-unit-row", bad, "column {} does not send the unit to 1"))

    bad = inp.char_table_law
    detail = "" if bad is None else (
        f"column {bad[2]} is not an algebra character at (i,k)={bad[:2]}"
    )
    checks.append(verdict("char-table-characters", bad is None, detail))

    # (P alpha)^T alpha = alpha^T P alpha = diag(f) with every f_j != 0, P the
    # duality on rows, proves alpha invertible: a table's column orthogonality
    gram = dual is not None and _matrix(
        inp.rank, inp.rank, _permuted(_Vector, table.transpose().entries, dual)) @ table
    certified = gram and all((j == l) != v.is_zero()
                             for j, row in enumerate(gram.rows) for l, v in enumerate(row))
    checks.append(_invertibility("char-table-invertible", table, certified))

    if dims is not None:
        cols = [j for j, col in enumerate(zip(*table.rows)) if list(col) == list(dims)]
        ok = len(cols) == 1
        detail = f"column {cols[0]}" if ok else f"columns equal to the dimension vector: {cols}"
        checks.append(verdict("char-table-dimension-column", ok, detail))


def validate_input(inp: CategoryInput) -> list[Check]:
    """Run every check and report them all; raises only SchemaError, on an unprintable detail."""
    checks = [verdict("labels-distinct", len(set(inp.labels)) == len(inp.labels))]

    if inp.kind == "modular":
        s = inp.s_field
        ok = s.rows[0][0] == 1
        checks.append(verdict("s-unit-entry", ok, "" if ok else f"s_00 = {inp.show(s.rows[0][0])}"))
        checks.append(_witness("s-symmetric", inp.s_asymmetry, "s_ij != s_ji at {}"))
        zero = [r for r in range(s.nrows) if s.rows[0][r].is_zero()]
        checks.append(_witness("dims-nonzero", zero, "s_0r = 0 at {}"))
        # for modular data s s = c P with c = dim C and P charge conjugation
        checks.append(_invertibility("s-invertible", s, inp.s_square is not None))

        fusion = None
        if not zero:
            try:
                fusion = inp.derived_ring[0]
                checks.append(verdict("verlinde-integral", True))
            except NotModularError as e:
                checks.append(verdict("verlinde-integral", False, str(e)))
        else:
            checks.append(Check("verlinde-integral", "skip", "zero dimension"))

        if fusion is not None:
            _check_ring_axioms(inp, fusion, s.rows[0], checks)
        else:
            checks += [Check(cid, "skip", "fusion ring unavailable") for cid in (
                "unit-axiom", "duality-axiom", "associativity", "unit-dim",
                "dim-homomorphism", "spherical", "global-dim-nonzero",
            )]

        if inp.twists is not None:
            bad = f"twist of the unit is {inp.twists[0]}" if inp.twists[0] != 1 else next(
                (f"twist {i} is not a root of unity" for i, th in enumerate(inp.twists)
                 if th.den != 1 or th.nums not in _roots_of_unity(th.conductor)), None)
            checks.append(verdict("twists-roots-of-unity", bad is None, bad or ""))
    else:
        dual = _check_ring_axioms(inp, inp.fusion, inp.dims, checks)
        if inp.char_table is not None:
            _check_char_table(inp, dual, checks)

    return checks


@cache
def _roots_of_unity(n: int) -> frozenset:
    """Numerators at n of the roots of unity in Q(zeta_n): the +-zeta_n^k."""
    return frozenset(z.nums for k in range(n) for z in (zeta(n, k), -zeta(n, k)))


def build_category(inp: CategoryInput) -> CategoryData:
    """Validate and assemble; any failed check rejects the input."""
    failures = [c for c in validate_input(inp) if c.status == "fail"]
    if failures:
        raise InvalidCategoryError(failures)
    return assemble_category(inp)


def assemble_category(inp: CategoryInput) -> CategoryData:
    """Assemble already-validated input; callers must run validate_input first."""
    fusion, dual = inp.derived_ring
    if inp.kind == "modular":
        s, twists, table = inp.s_field, inp.twists, None
        dims, proved = tuple(s.rows[0]), inp.s_certified
    else:
        s = twists = None
        table, dims = inp.char_table, tuple(inp.dims)
        proved = table is not None and inp.char_table_law is None
    return CategoryData(
        name=inp.name, labels=inp.labels, fusion=fusion, dual=dual, dims=dims,
        s=s, twists=twists, shown_conductor=inp.shown_conductor, char_table=table,
        dim=global_dim(dims, dual), certified=fusion if proved else None,
    )


# ---------------------------------------------------------------------------
# JSON schema


_COMMON_KEYS = {"schema_version", "name", "kind", "conductor", "rank", "labels"}
# The array fields, in the order a file is read: the kind that carries each,
# whether that kind requires it, and its depth, each level a list of rank items
_FIELDS = {
    "s_matrix": ("modular", True, 2),
    "twists": ("modular", False, 1),
    "fusion": ("fusion_ring", True, 3),
    "dims": ("fusion_ring", True, 1),
    "char_table": ("fusion_ring", False, 2),
}
_LEVELS = ("entries", "rows", "outer rows")  # a level's items, named from the innermost


def _parse_rational(text, where: str, k=None) -> tuple[int, int]:
    r"""(p, q) for the string 'p' or 'p/q' at where, or at where[k].  The string
    must match ^[+-]?\d+(/[1-9]\d*)?$, where \d is any decimal digit and $ also
    matches before a final newline."""
    body = text[:-1] if isinstance(text, str) and text.endswith("\n") else text
    p, slash, q = body.partition("/") if isinstance(body, str) else ("", "", "")
    digits = p[1:] if p.startswith(("+", "-")) else p
    if digits.isdecimal() and (not slash or q[:1] in "123456789" and q.isdecimal()):
        try:
            return int(p), int(q or 1)
        except ValueError:  # past the interpreter's limit on int/str conversion
            problem = (f"a number of {max(len(digits), len(q))} digits, past the limit of "
                       f"{sys.get_int_max_str_digits()}")
    else:
        problem = f"expected a rational string 'p' or 'p/q', got {text!r}"
    raise SchemaError(f"{where if k is None else f'{where}[{k}]'}: {problem}")


def _parse_value(obj, conductor: int, where: str, seen: dict) -> Cyclotomic:
    """The value of a rational string or coefficient array; seen maps each
    string and each array (as a tuple) parsed so far to its value, which equal
    entries share."""
    want, key = euler_phi(conductor), tuple(obj) if isinstance(obj, list) else obj
    try:
        return seen[key]
    except (KeyError, TypeError):  # TypeError: an element that is no string, named below
        pass
    if isinstance(obj, str):
        p, q = _parse_rational(obj, where)
        seen[key] = _make(conductor, [p] + [0] * (want - 1), q)
    elif isinstance(obj, list):
        if len(obj) != want:
            raise SchemaError(
                f"{where}: coefficient array has length {len(obj)}, "
                f"conductor {conductor} needs {want}"
            )
        pairs = [_parse_rational(c, where, k) for k, c in enumerate(obj)]
        den = lcm(*(q for _, q in pairs))
        seen[key] = _make(conductor, [p * (den // q) for p, q in pairs], den)
    else:
        raise SchemaError(f"{where}: expected rational string or coefficient array")
    return seen[key]


def _parse_array(obj, depth: int, rank: int, where: str, row) -> tuple:
    """obj as nested tuples, a list of rank items at each of depth levels; each
    innermost list is read whole by row(list, where)."""
    if not isinstance(obj, list) or len(obj) != rank:
        raise SchemaError(f"{where}: expected {rank} {_LEVELS[depth - 1]}")
    if depth == 1:
        return row(obj, where)
    return tuple(_parse_array(x, depth - 1, rank, f"{where}[{i}]", row) for i, x in enumerate(obj))


def _parse_counts(row: list, where: str) -> tuple[int, ...]:
    """A row of fusion counts: each an int, not a bool, and nonnegative."""
    if set(map(type, row)) != {int} or min(row) < 0:  # else look at each entry
        for k, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise SchemaError(f"{where}[{k}]: expected a nonnegative integer, got {v!r}")
    return tuple(row)


def parse_category(obj) -> CategoryInput:
    """Parse a JSON object (strict: unknown fields are errors)."""
    if not isinstance(obj, dict):
        raise SchemaError("top level: expected a JSON object")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    kind = obj.get("kind")
    fields = {key: spec for key, spec in _FIELDS.items() if spec[0] == kind}
    if not fields:
        raise SchemaError(f"kind: expected 'modular' or 'fusion_ring', got {kind!r}")
    unknown = sorted(set(obj) - _COMMON_KEYS - set(fields))
    if unknown:
        raise SchemaError(f"unknown fields for kind {kind!r}: {', '.join(unknown)}")
    missing = sorted(
        k for k, (_, required, _) in fields.items() if required and k not in obj
    ) + sorted(k for k in _COMMON_KEYS if k not in obj)
    if missing:
        raise SchemaError(f"missing fields: {', '.join(missing)}")

    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError("name: expected a nonempty string")
    conductor = obj["conductor"]
    if not isinstance(conductor, int) or isinstance(conductor, bool) or conductor < 1:
        raise SchemaError(f"conductor: expected a positive integer, got {conductor!r}")
    if conductor > CONDUCTOR_LIMIT:
        raise CapabilityError(f"conductor {conductor} is past the limit {CONDUCTOR_LIMIT}")
    labels = obj["labels"]
    if (
        not isinstance(labels, list)
        or not labels
        or any(not isinstance(l, str) or not l for l in labels)
    ):
        raise SchemaError("labels: expected a nonempty list of nonempty strings")
    rank = obj["rank"]
    if type(rank) is not int:  # True == 1 and 1.0 == 1, but neither is a rank
        raise SchemaError(f"rank: expected an integer, got {rank!r}")
    if rank != len(labels):
        raise SchemaError(f"rank: {rank!r} does not match {len(labels)} labels")
    if rank > RANK_LIMIT:
        raise CapabilityError(f"rank {rank} is past the limit {RANK_LIMIT}")
    seen = {}  # for _parse_value

    def values(row, where):
        return tuple([_parse_value(v, conductor, f"{where}[{j}]", seen) for j, v in enumerate(row)])

    arrays = {}
    for key, (_, _, depth) in fields.items():
        if key in obj:
            array = _parse_array(obj[key], depth, rank, key,
                                 _parse_counts if key == "fusion" else values)
            arrays[key] = CycloMatrix(array) if depth == 2 else array
    return CategoryInput(name=name, conductor=conductor, labels=tuple(labels), **arrays)


class _JSON:
    """json's default decoder settings, as its C scanner reads them."""

    strict, object_hook, object_pairs_hook, parse_float, parse_int = True, None, None, float, int
    parse_constant = {"-Infinity": -inf, "Infinity": inf, "NaN": nan}.__getitem__


def _decoded(text: str):
    """json.loads(text) through the C scanner that json.loads runs, so that no
    command loads json, re or enum; on a failure json.loads raises its error."""
    from _json import make_scanner

    try:  # the scanner raises its own errors only once json.decoder is loaded
        obj, end = make_scanner(_JSON)(text, len(text) - len(text.lstrip(" \t\n\r")))
    except (StopIteration, SystemError):
        end = -1
    if end != len(text.rstrip(" \t\n\r")):
        import json
        obj = json.loads(text)
    return obj


def load_input(path) -> CategoryInput:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = _decoded(fh.read())
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise SchemaError(f"cannot read {path}: not UTF-8: {e}") from e
    except ValueError as e:  # JSONDecodeError, or an int literal past the digit limit
        raise SchemaError(f"invalid JSON in {path}: {e}") from e
    except RecursionError as e:
        raise SchemaError(f"invalid JSON in {path}: nested too deeply") from e
    return parse_category(obj)


def load_category(path) -> CategoryData:
    return build_category(load_input(path))


def _value_to_json(v: Cyclotomic, conductor: int):
    if v.is_rational():
        return str(v)
    return v.lift(conductor).coeff_strs()


def category_to_input(data: CategoryData, kind: str | None = None) -> CategoryInput:
    """Re-express built data as raw input, optionally forcing the kind.
    Downgrading a modular category to fusion_ring derives the character
    table alpha_ij = s_ij / d_j so the class algebra stays available."""
    kind = kind or data.kind
    if kind == "modular":
        if data.s is None:
            raise CapabilityError("no s-matrix to write")
        return CategoryInput(
            name=data.name,
            conductor=_file_conductor(data, data.s, data.twists or ()),
            labels=data.labels,
            s_matrix=data.s,
            twists=data.twists,
        )
    if kind != "fusion_ring":
        raise ValueError(f"unknown kind {kind!r}")
    table = data.char_table
    if table is None and data.s is not None:  # _mul repeats the weights 1 / d_j for every row
        table = _matrix(data.rank, data.rank,
                        _mul(_Vector, data.s.entries, _Vector([d.inv() for d in data.dims])))
    return CategoryInput(
        name=data.name,
        conductor=_file_conductor(data, table, data.dims),
        labels=data.labels,
        fusion=data.fusion,
        dims=data.dims,
        char_table=table,
    )


def _file_conductor(data: CategoryData, matrix, values) -> int:
    """The lcm of the conductors the irrational entries of matrix (or None)
    and values are shown at."""
    rows = [*(matrix.rows if matrix is not None else ()), values]
    return lcm(*(data.show(v).conductor for row in rows for v in row if not v.is_rational()))


def _array_to_json(array, depth: int, leaf) -> list:
    """array, nested depth levels deep, as nested lists of leaf(entry)."""
    if depth == 1:
        return list(map(leaf, array))
    return [_array_to_json(x, depth - 1, leaf) for x in array]


def input_to_json(inp: CategoryInput) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "name": inp.name,
        "kind": inp.kind,
        "conductor": inp.conductor,
        "rank": inp.rank,
        "labels": list(inp.labels),
    }
    n = inp.conductor
    for key, (kind, _, depth) in _FIELDS.items():
        array = getattr(inp, key)
        if kind == inp.kind and array is not None:
            out[key] = _array_to_json(array.rows if depth == 2 else array, depth,
                                      int if key == "fusion" else lambda v: _value_to_json(v, n))
    return out


def save_category(data: CategoryData, path, kind: str | None = None) -> None:
    import json

    obj = input_to_json(category_to_input(data, kind))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
