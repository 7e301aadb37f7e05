"""The class algebra of a pivotal fusion category, exactly.

Two companion commutative algebras are modelled by coefficient vectors,
each a cyclotomic._Vector, stored flat: one conductor n, one denominator and
phi(n) integer numerators per coordinate, kept canonical as a Cyclotomic is.
Sums, the coordinatewise product, the antipode (a permutation), both Fourier
maps (the duality permutation, then a weight vector built once per algebra)
and the products with the fusion rules work on those integers, through the
row routines of cyclotomic; Cyclotomic coordinates are built only when
.coeffs is read.  The two algebras are:

* class functions, with basis the irreducible characters chi_0..chi_m and
  fusion product chi_i chi_j = sum_k N_ij^k chi_k;
* central elements, with basis the primitive idempotents E_0..E_m acting
  diagonally, so multiplication is pointwise and the unit is u = sum_j E_j.

They pair by <chi_i, E_j> = delta_ij d_i, and talk to each other through

* the trace  tau(f) = f_0  induced by the two-sided integral E_0,
* the cointegral  lambda = (1/dim C) sum_i d_{i*} chi_i  (tau-normalized),
* the Fourier transform  F(E_i) = (d_i / dim C) chi_{i*}  with inverse
  F^{-1}(chi_j) = (dim C / d_j) E_{j*},
* and, when an s-matrix is present, the Drinfeld map
  drinfeld(chi_i) = sum_j (s_ij / d_j) E_j, an algebra homomorphism.

Conjugacy class data is the second basis of class functions: the primitive
idempotents F_0..F_m of the class algebra itself, their preimages
cbar_j = F^{-1}(F_j) (the class sums), class sizes |C^j| = dim(C) tau(F_j)
and multiplicities n_j = dim(C)/|C^j|.  One formula serves both kinds of
input: alpha_ij is s_ij / d_j or the supplied character table (dimension
column first, class 0), F_j = (1/f_j) sum_i alpha_{i*j} chi_i with the formal
codegree f_j = sum_k alpha_kj alpha_{k*j}, n_j = f_j and F_0 = lambda.
conjugacy() certifies the result by the character law of alpha's columns
and F alpha = I, with no inverse taken.

One integer routine, category._law_witness, checks each fusion law
sum_k N_ij^k x_k = x_i x_j not already proved: in validation on a character
table and on the dimensions; in conjugacy() on alpha's rows, unless
validation's certificate, CategoryData.certified, names the rules; and in the
identity suite on drinfeld(chi_i) and on y_l only when the family differs
from the rows conjugacy() proved the law for.

identity_suite runs every exact identity the machinery promises and reports
one Check per identity; on modular input all of them must pass.  One matmul
gives drinfeld(F_j) for every j.  Identities with a class size |C^j| in a
denominator are multiplied through by it (it is dim C / f_j, nonzero).
The class-sum law cbar_i cbar_j = sum_l c_ij^l cbar_l is d_i d_j times the
fusion law of y_l = cbar_l / d_l.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import lcm

from .category import CategoryData, Check, _law_witness, _witness, verdict
from .cyclotomic import (
    Cyclotomic, CycloMatrix, _chunks, _family, _Frozen, _make, _mul, _permuted, _products,
    _stacked, _sums, _transposed, _unstacked, _Vector, euler_phi, matmul_nums, rational,
)
from .errors import CapabilityError, InternalConsistencyError

__all__ = [
    "ClassFunction",
    "CentralElement",
    "ConjugacyData",
    "ClassSumProduct",
    "CharacterAlgebra",
]


_CLASS_CHECKS = (
    "idempotent-orthogonality", "idempotent-complete", "class-size-pairing",
    "dual-bases-exchange", "char-table-class-pairing", "class-sum-expansion",
    "second-orthogonality",
)
_MODULAR_CHECKS = (
    "integral-image", "char-table-symmetry", "drinfeld-class-sum", "counit-dimension",
    "transparent-cointegral-unit", "class-size-dim-square", "class-sum-algebra",
    "drinfeld-multiplicative", "drinfeld-idempotent-match",
)


def _first_pair(xs, ys):
    """The first (i, j) in row-major order where coordinate j of xs[i] and of
    ys[i] differ, or None: flat numerator rows over one denominator."""
    n, _, rows = _family([*xs, *ys])
    for i, (x, y) in enumerate(zip(rows, rows[len(xs):])):
        if x != y:
            return i, next(k for k, (a, b) in enumerate(zip(x, y)) if a != b) // euler_phi(n)
    return None


class ClassFunction(_Vector):
    """Coefficients over the irreducible characters chi_i."""

    __slots__ = ()


class CentralElement(_Vector):
    """Coefficients over the primitive central idempotents E_j."""

    __slots__ = ()


class ConjugacyData(_Frozen):
    __slots__ = (
        "alpha",  # row i: alpha_ij = chi_i on the class of j, the rows the law was proved for
        "idempotents",  # F_j
        "class_sums",  # cbar_j = F^{-1}(F_j)
        "sizes",  # |C^j| = dim(C) tau(F_j) = dim(C) / f_j
        "multiplicities",  # n_j = f_j, formal codegree
        "column_order",  # table column behind class j
    )


class ClassSumProduct(_Frozen):
    """cbar_i cbar_j = sum_l c_ij^l cbar_l with c_ij^l = (d_i d_j / d_l) N_ij^l."""

    __slots__ = ("constants",)

    @property
    def rational_flags(self) -> tuple[bool, ...]:
        return tuple(c.is_rational() for c in self.constants)

    @property
    def all_rational(self) -> bool:
        return all(self.rational_flags)


class CharacterAlgebra:
    """All class-algebra computations for one category, with shared caches."""

    def __init__(self, data: CategoryData):
        self.data = data
        self.rank = data.rank
        self.dims = data.dims
        self.dual = data.dual
        self.dim = data.dim
        self.dim_inv = data.dim.inv()
        self._dims_inv = tuple(d.inv() for d in self.dims)
        # the d_i d_{i*} as a _family, one row each, which subset_dim sums
        self._dim_terms = _family([d * self.dims[k] for d, k in zip(self.dims, self.dual)])
        self.n = lcm(*(d.conductor for d in self.dims))
        # weights of the pairing, fourier and fourier_inv, built once
        self._dims_vec = _Vector(self.dims)
        self._codims = _permuted(_Vector, self._dims_vec, self.dual)  # d_{j*}
        self._fourier_weights = self._codims.scaled(self.dim_inv)
        inv_codims = _permuted(_Vector, _Vector(self._dims_inv), self.dual)  # 1 / d_{k*}
        self._fourier_inv_weights = inv_codims.scaled(self.dim)

    # -- basis vectors ------------------------------------------------------

    def _basis(self, cls, ones):
        """The cls with coordinate 1 at the indices in ones, else 0."""
        phi = euler_phi(self.n)
        nums = [0] * (self.rank * phi)
        for k in ones:
            nums[k * phi] = 1
        return _make(self.n, nums, cls=cls)

    def cf_zero(self) -> ClassFunction:
        return self._basis(ClassFunction, ())

    def ce_zero(self) -> CentralElement:
        return self._basis(CentralElement, ())

    def _object(self, i: int) -> int:
        """i, if it is the index of a simple object; else KeyError."""
        if not 0 <= i < self.rank:
            raise KeyError(f"no simple object with index {i}")
        return i

    def character(self, i: int) -> ClassFunction:
        return self._basis(ClassFunction, (self._object(i),))

    def idempotent(self, i: int) -> CentralElement:
        return self._basis(CentralElement, (self._object(i),))

    def unit_central(self) -> CentralElement:
        return self._basis(CentralElement, range(self.rank))

    def integral(self) -> CentralElement:
        """The two-sided integral is the idempotent of the unit block."""
        return self.idempotent(0)

    # -- products, pairing, trace, antipode ----------------------------------

    def cf_mul(self, f: ClassFunction, g: ClassFunction) -> ClassFunction:
        """fg = sum_k (sum_i f_i w_ki) chi_k, one matmul_nums, with the integer
        weight rows w_ki = sum_j N_ij^k g_j."""
        n, den, (x, y) = _family((f, g))
        phi = euler_phi(n)
        w = [[0] * len(x) for _ in range(self.rank)]
        for i, row in enumerate(self.data.nonzero):
            at = slice(i * phi, (i + 1) * phi)
            for gj, pairs in zip(_chunks(y, phi), row):
                for k, t in pairs:
                    w[k][at] = [a + t * c for a, c in zip(w[k][at], gj)]
        return _make(n, matmul_nums(n, [x], w)[0], den * den, ClassFunction)

    def ce_mul(self, a: CentralElement, b: CentralElement) -> CentralElement:
        return _mul(CentralElement, a, b)

    def pairing(self, f: ClassFunction, a: CentralElement) -> Cyclotomic:
        return self.pairings([f], [a])[0].coeffs[0]

    def pairings(self, fs, elements) -> list[_Vector]:
        """Row r is the vector of <fs[r], a> = sum_k f_k a_k d_k over elements."""
        weighted = [_mul(_Vector, a, self._dims_vec) for a in elements]
        return _products(_Vector, fs, weighted)

    def trace(self, f: ClassFunction) -> Cyclotomic:
        return f.coeffs[0]

    def antipode(self, x):
        """Duality on either carrier: chi_i -> chi_{i*}, E_j -> E_{j*}."""
        return _permuted(type(x), x, self.dual)

    def act_arrow(self, f: ClassFunction, a: CentralElement) -> ClassFunction:
        """Right action of central elements on class functions; in these bases
        chi_i <- E_j = delta_ij chi_i, so the action is coefficientwise."""
        return _mul(ClassFunction, f, a)

    # -- cointegrals ----------------------------------------------------------

    def subset_dim(self, members) -> Cyclotomic:
        n, den, (terms,) = _sums(self._dim_terms, [members])
        return _make(n, terms, den)

    def cointegral(self, members=None) -> ClassFunction:
        """tau-normalized cointegral of the full category, or of the fusion
        subcategory spanned by a dual-closed member set."""
        members = sorted(set(range(self.rank) if members is None else members))
        dim_d = self.subset_dim(members)
        if dim_d.is_zero():
            raise InternalConsistencyError("subcategory dimension is zero")
        return self._codim_sums([members])[0].scaled(dim_d.inv())

    def _codim_sums(self, subsets) -> list:
        """sum_{i in D} d_{i*} chi_i = lambda_D dim D for each member set D,
        from one _sums over the rows d_{i*} chi_i."""
        n, den, sums = _sums(self._codim_characters, subsets)
        return [_make(n, row, den, ClassFunction) for row in sums]

    @cached_property
    def _codim_characters(self) -> tuple:
        """The _family rows d_{i*} chi_i: block i of the d_{j*}, zero elsewhere."""
        n, den, (row,) = _family([self._codims])
        phi, zero = euler_phi(n), [0] * len(row)
        return n, den, [zero[:k] + row[k:k + phi] + zero[k + phi:] for k in range(0, len(row), phi)]

    # -- Fourier transform ----------------------------------------------------

    def fourier(self, a: CentralElement) -> ClassFunction:
        """F(a) = lambda <- S(a); on the basis F(E_i) = (d_i / dim C) chi_{i*}:
        the antipode, then the weights d_{j*} / dim C."""
        return _mul(ClassFunction, self.antipode(a), self._fourier_weights)

    def fourier_inv(self, f: ClassFunction) -> CentralElement:
        """F^{-1}(chi_j) = (dim C / d_j) E_{j*}: the antipode, then the
        weights dim C / d_{k*}."""
        return _mul(CentralElement, self.antipode(f), self._fourier_inv_weights)

    # -- s-matrix dependent maps -----------------------------------------------

    def require_s(self) -> CycloMatrix:
        """The s-matrix; CapabilityError when the category is a plain fusion ring."""
        if self.data.s is None:
            raise CapabilityError(
                f"{self.data.name}: this computation needs an s-matrix, "
                "but the category was given as a plain fusion ring"
            )
        return self.data.s

    def drinfeld(self, f: ClassFunction) -> CentralElement:
        """drinfeld(chi_i) = sum_j (s_ij / d_j) E_j, extended linearly."""
        return _products(CentralElement, [f], self._drinfeld_columns)[0]

    @cached_property
    def _drinfeld_characters(self) -> tuple[CentralElement, ...]:
        """drinfeld(chi_i) for every i: row i of s over the d_j, one _mul of the entries."""
        stack = _mul(_Vector, self.require_s().entries, _Vector(self._dims_inv))
        return _unstacked(CentralElement, stack, self.rank)

    @cached_property
    def _drinfeld_columns(self) -> list[_Vector]:
        return _transposed(self._drinfeld_characters)

    @cached_property
    def _degenerate_masks(self) -> tuple[int, ...]:
        """Per column j, the bits i with s_ij = d_i d_j."""
        s, d = self.require_s(), self.dims
        return tuple(
            sum(1 << i for i in range(self.rank) if s.rows[i][j] == d[i] * d[j])
            for j in range(self.rank)
        )

    def s_centralizer(self, members) -> tuple[int, ...]:
        """Objects j with s_ij = d_i d_j for every i in members."""
        want = sum(1 << i for i in set(members))
        return tuple(j for j, mask in enumerate(self._degenerate_masks) if mask & want == want)

    def transparent_members(self) -> tuple[int, ...]:
        """The centralizer of the whole category (the Mueger center)."""
        return self.s_centralizer(range(self.rank))

    # -- conjugacy class data ----------------------------------------------------

    def conjugacy(self) -> ConjugacyData:
        """Class data from alpha (module docstring): F_l = (1/f_l) sum_i
        alpha_{i*l} chi_i, |C^l| = dim C / f_l, n_l = f_l.  Certified, each
        part raising InternalConsistencyError: N_ij = N_ji; sum_k N_ij^k
        alpha_kl = alpha_il alpha_jl for j >= i, so for all i, j (or proved by
        validation, CategoryData.certified, as the law holds column by column
        and columns are only reordered); f_l != 0; F alpha = I.  Then alpha is
        invertible and phi(chi_i) = row i of alpha is an algebra isomorphism
        onto C^rank, unital as the law at (0, j), alpha_jl = alpha_0l
        alpha_jl, on a nonzero column makes alpha_0l = 1.
        phi(F_j) = row j of F alpha = e_j, so the F_j are the primitive
        idempotents, summing to chi_0, with tau(F_l) = alpha_0l / f_l = 1 / f_l.
        Column 0 holds the d_i (s is symmetric), so f_0 = dim C, F_0 = lambda.
        """
        return self._conjugacy

    @cached_property
    def _conjugacy(self) -> ConjugacyData:
        rank, dual, data = self.rank, self.dual, self.data
        if self.data.s is not None:
            rows = self._drinfeld_characters
            column_order = tuple(range(rank))
        else:
            table = self.data.char_table
            if table is None:
                raise CapabilityError(
                    f"{self.data.name}: conjugacy data needs an s-matrix or a "
                    "character table"
                )
            dim_cols = [j for j, col in enumerate(zip(*table.rows)) if col == self.dims]
            if len(dim_cols) != 1:
                raise InternalConsistencyError(
                    f"character table must have exactly one dimension column, "
                    f"found {dim_cols}"
                )
            column_order = (dim_cols[0], *(j for j in range(rank) if j != dim_cols[0]))
            rows = _unstacked(_Vector, _permuted(_Vector, table.entries, column_order), rank)

        if data.noncommuting is not None:
            raise InternalConsistencyError(f"fusion rules do not commute at {data.noncommuting}")
        if data.certified is not data.fusion:
            bad = _law_witness(data.nonzero, *_family(rows))
            if bad is not None:
                i, j, l = bad
                raise InternalConsistencyError(f"class {l} is not a character at ({i}, {j})")

        columns = _transposed(rows)  # f_l = sum_k alpha_kl alpha_{k*l}
        codegrees = [_products(_Vector, [c], [_permuted(_Vector, c, dual)])[0].coeffs[0]
                     for c in columns]
        if any(f.is_zero() for f in codegrees):
            raise InternalConsistencyError("zero formal codegree")
        invs = [f.inv() for f in codegrees]
        idempotents = tuple(  # F_l on chi_i is alpha_{i*l} / f_l
            _permuted(ClassFunction, c, dual).scaled(inv) for c, inv in zip(columns, invs)
        )
        values = _products(_Vector, idempotents, columns)  # F_j on class l
        bad = _first_pair(values, [self._basis(_Vector, (j,)) for j in range(rank)])
        if bad is not None:
            raise InternalConsistencyError(f"class idempotents do not invert alpha at {bad}")

        return ConjugacyData(
            alpha=rows,
            idempotents=idempotents,
            class_sums=tuple(self.fourier_inv(f) for f in idempotents),
            sizes=tuple(self.dim * z for z in invs),
            multiplicities=tuple(codegrees),
            column_order=column_order,
        )

    @cached_property
    def _scaled_class_sums(self) -> tuple[CentralElement, ...]:
        """y_l = cbar_l / d_l.  For c_ij^l = d_i d_j N_ij^l / d_l,
        sum_l c_ij^l cbar_l = d_i d_j sum_l N_ij^l y_l and cbar_i cbar_j =
        d_i d_j (y_i y_j).  Every d_i is nonzero (__init__ inverts each one),
        so the class-sum law and the fusion law of the y_l fail at exactly
        the same pairs."""
        conj = self.conjugacy()
        return tuple(c.scaled(d) for c, d in zip(conj.class_sums, self._dims_inv))

    def class_sum_product(self, i: int, j: int) -> ClassSumProduct:
        """Structure constants of the class sums, verified against ce_mul
        through the fusion law of the y_l (one routine with the suite)."""
        i, j = self._object(i), self._object(j)
        if _law_witness(self.data.nonzero, *_family(self._scaled_class_sums), [(i, j)]):
            raise InternalConsistencyError(
                f"class sum product ({i}, {j}) does not match its expansion"
            )
        constants = [rational(0)] * self.rank
        dij = self.dims[i] * self.dims[j]
        for l, n in self.data.nonzero[i][j]:
            constants[l] = dij * self._dims_inv[l] * n
        return ClassSumProduct(tuple(constants))

    # -- identity suite -----------------------------------------------------------

    def identity_suite(self) -> list[Check]:
        """Run every promised exact identity; one Check per identity."""
        rank, lam = self.rank, self.cointegral()
        # every basis vector at once, as the maps act on each block of a stack
        basis = [self._basis(_Vector, (i,)) for i in range(rank)]
        e, chi = (_stacked(cls, basis) for cls in (CentralElement, ClassFunction))
        fe = self.fourier(e)
        checks = [
            verdict("cointegral-normalized", self.pairing(lam, self.unit_central()) == 1),
            verdict("fourier-roundtrip", self.fourier_inv(fe) == e
                    and self.fourier(self.fourier_inv(chi)) == chi),
            verdict("fourier-action-consistency", fe == self.act_arrow(lam, self.antipode(e))),
        ]
        no_s = [Check(cid, "skip", "needs an s-matrix") for cid in _MODULAR_CHECKS]
        try:
            conj = self.conjugacy()
        except CapabilityError as e:
            return checks + [Check(cid, "skip", str(e)) for cid in _CLASS_CHECKS] + no_s

        arows, acols = conj.alpha, _transposed(conj.alpha)
        exchange = _products(  # sum_i F_i[a] (n_i F_i[b])
            _Vector,
            _transposed(conj.idempotents),
            _transposed([f.scaled(n) for n, f in zip(conj.multiplicities, conj.idempotents)]),
        )
        # sum_j alpha_ji alpha_{j* l} is 0 off the diagonal and dim C / |C^i| on
        # it, where it is multiplied through by |C^i|
        gram = _products(_Vector, acols, _transposed([arows[k] for k in self.dual]))
        ones, sizes = self._basis(_Vector, range(rank)), _Vector(conj.sizes)
        dims_inv = _Vector(self._dims_inv)
        checks += [  # orthogonality and completeness were certified in conjugacy()
            verdict("idempotent-orthogonality", True),
            verdict("idempotent-complete", True),
            _witness("class-size-pairing", _first_pair(
                self.pairings(conj.idempotents, conj.class_sums),
                [e.scaled(size) for e, size in zip(basis, conj.sizes)],
            ), "<F_i, cbar_j> wrong at {}"),
            _witness("dual-bases-exchange", _first_pair(exchange, [basis[k] for k in self.dual]),
                     "sum_i n_i F_i (x) F_i wrong at {}"),
            _witness("char-table-class-pairing", _first_pair(  # times |C^j|
                [_mul(_Vector, a, sizes) for a in arows],
                [c.scaled(d) for c, d in zip(_transposed(conj.class_sums), self.dims)],
            ), "alpha_ij != <chi_i, cbar_j>/|C^j| at {}"),
            _witness("class-sum-expansion", _first_pair(conj.class_sums, [  # |C^i| alpha_ji / d_j
                _mul(_Vector, a, dims_inv).scaled(size) for a, size in zip(acols, conj.sizes)
            ]), "cbar_i expansion wrong at {}"),
            _witness("second-orthogonality", _first_pair(
                [_mul(_Vector, g, ones + e.scaled(size - 1))
                 for g, e, size in zip(gram, basis, conj.sizes)],
                [e.scaled(self.dim) for e in basis],
            ), "column orthogonality wrong at {}"),
        ]
        if self.data.s is None:
            return checks + no_s

        fq, nonzero = self._drinfeld_characters, self.data.nonzero
        images = _products(CentralElement, conj.idempotents, self._drinfeld_columns)
        transparent = self.transparent_members()
        # Each family is certified when it equals the rows conjugacy() proved the
        # character law for: y_l = drinfeld(chi_l) follows from drinfeld-class-sum
        # and class-size-dim-square.  Else the law runs; conjugacy() certified
        # N_ij = N_ji, so a law fails at (i, j) iff at (j, i), and its first
        # failing pair in row-major order has j >= i.
        sums = self._scaled_class_sums
        bad_sums = None if sums == arows else _law_witness(nonzero, *_family(sums))
        bad = None if fq == arows else _law_witness(nonzero, *_family(fq))
        if bad_sums is not None:
            detail = f"class sum product {bad_sums[:2]} does not match its expansion"
        elif all(d.is_rational() for d in self.dims) or all(
            (self.dims[i] * self.dims[j] * self._dims_inv[l]).is_rational()
            for i, j in product(range(rank), repeat=2)
            for l, _ in nonzero[i][j]
        ):
            detail = "all structure constants rational"
        else:
            detail = "verified; some constants irrational"
        return checks + [
            verdict("integral-image", images[0] == self.idempotent(0)),
            _witness("char-table-symmetry", _first_pair(
                [_mul(_Vector, a, self._dims_vec) for a in arows],
                [a.scaled(d) for a, d in zip(acols, self.dims)],
            ), "d_j alpha_ij != d_i alpha_ji at {}"),
            _witness("drinfeld-class-sum", next((  # times |C^i|
                i for i in range(rank)
                if fq[i].scaled(conj.sizes[i]) != conj.class_sums[i].scaled(self.dims[i])
            ), None), "drinfeld(chi_i) != (d_i/|C^i|) cbar_i at i={}"),
            verdict("counit-dimension", all(fq[i].coeffs[0] == self.dims[i] for i in range(rank))),
            verdict(
                "transparent-cointegral-unit",
                self.drinfeld(self.cointegral(transparent)) == self.unit_central(),
                f"transparent objects: {list(transparent)}",
            ),
            _witness("class-size-dim-square", [
                j for j in range(rank) if conj.sizes[j] != self.dims[j] * self.dims[j]
            ], "|C^j| != d_j^2 at {}"),
            verdict("class-sum-algebra", bad_sums is None, detail),
            _witness("drinfeld-multiplicative", bad and bad[:2],
                     "drinfeld map not multiplicative at {}"),
            _witness("drinfeld-idempotent-match", [
                j for j in range(rank) if images[j] != self.idempotent(j)
            ], "drinfeld(F_j) != E_j at {}"),
        ]
