"""The class algebra of a pivotal fusion category, exactly.

Two companion commutative algebras are modelled by coefficient vectors:

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

identity_suite runs every exact identity the machinery promises and reports
one Check per identity; on modular input all of them must pass.  One matmul
gives drinfeld(F_j) for every j.  Identities with a class size |C^j| in a
denominator are multiplied through by it (it is dim C / f_j, nonzero).
The class-sum law cbar_i cbar_j = sum_l c_ij^l cbar_l is d_i d_j times the
fusion law of y_l = cbar_l / d_l, checked in one pass with drinfeld's.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby, product
from operator import itemgetter

from .category import CategoryData, Check, _character_law_witness, _Frozen, verdict
from .cyclotomic import Cyclotomic, CycloMatrix, bilinear, matmul, rational
from .errors import CapabilityError, InternalConsistencyError

__all__ = [
    "ClassFunction",
    "CentralElement",
    "ConjugacyData",
    "ClassSumProduct",
    "CharacterAlgebra",
]


def _first_pair(rank: int, wrong):
    """The first (i, j) in row-major order with wrong(i, j), or None."""
    return next(
        ((i, j) for i in range(rank) for j in range(rank) if wrong(i, j)), None
    )


class _Vector(_Frozen):
    """Coefficient vector over a basis; the subclass names the basis, and
    vectors over different bases never compare equal.  Unhashable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Cyclotomic, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __repr__(self):
        return f"{type(self).__name__}(coeffs={self.coeffs!r})"

    def __add__(self, other):
        return type(self)(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return type(self)(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scaled(self, c):
        return type(self)(tuple(c * a for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            x == y for x, y in zip(self.coeffs, other.coeffs)
        )


class ClassFunction(_Vector):
    """Coefficients over the irreducible characters chi_i."""

    __slots__ = ()


class CentralElement(_Vector):
    """Coefficients over the primitive central idempotents E_j."""

    __slots__ = ()


class ConjugacyData(_Frozen):
    __slots__ = ("alpha", "idempotents", "class_sums", "sizes", "multiplicities", "column_order")

    def __init__(self, alpha: CycloMatrix, idempotents: tuple[ClassFunction, ...],
                 class_sums: tuple[CentralElement, ...], sizes: tuple[Cyclotomic, ...],
                 multiplicities: tuple[Cyclotomic, ...], column_order: tuple[int, ...]):
        object.__setattr__(self, "alpha", alpha)  # alpha_ij = chi_i on the class of j
        object.__setattr__(self, "idempotents", idempotents)  # F_j
        object.__setattr__(self, "class_sums", class_sums)  # cbar_j = F^{-1}(F_j)
        object.__setattr__(self, "sizes", sizes)  # |C^j| = dim(C) tau(F_j) = dim(C) / f_j
        object.__setattr__(self, "multiplicities", multiplicities)  # n_j = f_j, formal codegree
        object.__setattr__(self, "column_order", column_order)  # table column behind class j


class ClassSumProduct(_Frozen):
    """cbar_i cbar_j = sum_l c_ij^l cbar_l with c_ij^l = (d_i d_j / d_l) N_ij^l."""

    __slots__ = ("constants", "rational_flags")

    def __init__(self, constants: tuple[Cyclotomic, ...], rational_flags: tuple[bool, ...]):
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "rational_flags", rational_flags)

    @property
    def all_rational(self) -> bool:
        return all(self.rational_flags)


class CharacterAlgebra:
    """All class-algebra computations for one category, with shared caches."""

    def __init__(self, data: CategoryData):
        self.data = data
        self.rank = data.rank
        self.dims = data.dims
        self.dual = data.ring.dual
        self.dim = data.dim
        self.dim_inv = data.dim.inv()
        self._dims_inv = tuple(d.inv() for d in self.dims)
        self._conjugacy: ConjugacyData | None = None

    # -- basis vectors ------------------------------------------------------

    def cf_zero(self) -> ClassFunction:
        return ClassFunction(tuple(rational(0) for _ in range(self.rank)))

    def ce_zero(self) -> CentralElement:
        return CentralElement(tuple(rational(0) for _ in range(self.rank)))

    def character(self, i: int) -> ClassFunction:
        return ClassFunction(
            tuple(rational(1 if j == i else 0) for j in range(self.rank))
        )

    def idempotent(self, i: int) -> CentralElement:
        return CentralElement(
            tuple(rational(1 if j == i else 0) for j in range(self.rank))
        )

    def unit_central(self) -> CentralElement:
        return CentralElement(tuple(rational(1) for _ in range(self.rank)))

    def integral(self) -> CentralElement:
        """The two-sided integral is the idempotent of the unit block."""
        return self.idempotent(0)

    # -- products, pairing, trace, antipode ----------------------------------

    def cf_mul(self, f: ClassFunction, g: ClassFunction) -> ClassFunction:
        return ClassFunction(tuple(bilinear(f.coeffs, g.coeffs, self.data.ring.nonzero)))

    def ce_mul(self, a: CentralElement, b: CentralElement) -> CentralElement:
        return CentralElement(tuple(x * y for x, y in zip(a.coeffs, b.coeffs)))

    def pairing(self, f: ClassFunction, a: CentralElement) -> Cyclotomic:
        return self.pairings([f], [a])[0][0]

    def pairings(self, fs, elements) -> list[list[Cyclotomic]]:
        """The matrix of <f, a> = sum_k f_k a_k d_k over fs and elements, as one matmul."""
        return matmul(
            [f.coeffs for f in fs],
            [[a.coeffs[k] * d for a in elements] for k, d in enumerate(self.dims)],
        )

    def trace(self, f: ClassFunction) -> Cyclotomic:
        return f.coeffs[0]

    def antipode(self, x):
        """Duality on either carrier: chi_i -> chi_{i*}, E_j -> E_{j*}."""
        coeffs = tuple(x.coeffs[self.dual[i]] for i in range(self.rank))
        return type(x)(coeffs)

    def act_arrow(self, f: ClassFunction, a: CentralElement) -> ClassFunction:
        """Right action of central elements on class functions; in these bases
        chi_i <- E_j = delta_ij chi_i, so the action is coefficientwise."""
        return ClassFunction(tuple(x * y for x, y in zip(f.coeffs, a.coeffs)))

    # -- cointegrals ----------------------------------------------------------

    def subset_dim(self, members) -> Cyclotomic:
        return sum((self.dims[i] * self.dims[self.dual[i]] for i in members), rational(0))

    def cointegral(self, members=None) -> ClassFunction:
        """tau-normalized cointegral of the full category, or of the fusion
        subcategory spanned by a dual-closed member set."""
        if members is None:
            members = range(self.rank)
        members = sorted(set(members))
        dim_d = self.subset_dim(members)
        if dim_d.is_zero():
            raise InternalConsistencyError("subcategory dimension is zero")
        scale = dim_d.inv()
        coeffs = [rational(0) for _ in range(self.rank)]
        for i in members:
            coeffs[i] = self.dims[self.dual[i]] * scale
        return ClassFunction(tuple(coeffs))

    # -- Fourier transform ----------------------------------------------------

    def fourier(self, a: CentralElement) -> ClassFunction:
        """F(a) = lambda <- S(a); on the basis F(E_i) = (d_i / dim C) chi_{i*}."""
        out = []
        for j in range(self.rank):
            js = self.dual[j]
            out.append(a.coeffs[js] * self.dims[js] * self.dim_inv)
        return ClassFunction(tuple(out))

    def fourier_inv(self, f: ClassFunction) -> CentralElement:
        """F^{-1}(chi_j) = (dim C / d_j) E_{j*}."""
        out = []
        for k in range(self.rank):
            ks = self.dual[k]
            out.append(f.coeffs[ks] * self._dims_inv[ks] * self.dim)
        return CentralElement(tuple(out))

    # -- s-matrix dependent maps -----------------------------------------------

    def require_s(self) -> CycloMatrix:
        """The s-matrix; CapabilityError when the category is a plain fusion ring."""
        if self.data.modular is None:
            raise CapabilityError(
                f"{self.data.name}: this computation needs an s-matrix, "
                "but the category was given as a plain fusion ring"
            )
        return self.data.modular.s

    def drinfeld(self, f: ClassFunction) -> CentralElement:
        """drinfeld(chi_i) = sum_j (s_ij / d_j) E_j, extended linearly: one matmul."""
        (image,) = matmul([f.coeffs], [e.coeffs for e in self._drinfeld_characters])
        return CentralElement(tuple(image))

    @cached_property
    def _drinfeld_characters(self) -> tuple[CentralElement, ...]:
        """drinfeld(chi_i) for every i: row i of s with column j divided by d_j."""
        return tuple(
            CentralElement(tuple(v * d for v, d in zip(row, self._dims_inv)))
            for row in self.require_s().rows
        )

    def s_centralizer(self, members) -> tuple[int, ...]:
        """Objects j with s_ij = d_i d_j for every i in members."""
        s = self.require_s()
        return tuple(
            j
            for j in range(self.rank)
            if all(s.rows[i][j] == self.dims[i] * self.dims[j] for i in members)
        )

    def transparent_members(self) -> tuple[int, ...]:
        """The centralizer of the whole category (the Mueger center)."""
        return self.s_centralizer(range(self.rank))

    # -- conjugacy class data ----------------------------------------------------

    def conjugacy(self) -> ConjugacyData:
        """Class data from alpha (module docstring): F_l = (1/f_l) sum_i
        alpha_{i*l} chi_i, |C^l| = dim C / f_l, n_l = f_l.  Certified, each
        part raising InternalConsistencyError: N_ij = N_ji; sum_k N_ij^k
        alpha_kl = alpha_il alpha_jl for j >= i, so for all i, j; f_l != 0;
        F alpha = I.  Then alpha is invertible and phi(chi_i) = row i of alpha
        is an algebra isomorphism onto C^rank, unital as the law at (0, j),
        alpha_jl = alpha_0l alpha_jl, on a nonzero column makes alpha_0l = 1.
        phi(F_j) = row j of F alpha = e_j, so the F_j are the primitive
        idempotents, summing to chi_0, with tau(F_l) = alpha_0l / f_l = 1 / f_l.
        Column 0 holds the d_i (s is symmetric), so f_0 = dim C, F_0 = lambda.
        """
        if self._conjugacy is not None:
            return self._conjugacy
        rank, dual, ring = self.rank, self.dual, self.data.ring
        if self.data.modular is not None:
            alpha = CycloMatrix([e.coeffs for e in self._drinfeld_characters])
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
            alpha = CycloMatrix([[row[c] for c in column_order] for row in table.rows])
        rows = alpha.rows

        bad = _first_pair(rank, lambda i, j: ring.fusion[i][j] != ring.fusion[j][i])
        if bad is not None:
            raise InternalConsistencyError(f"fusion rules do not commute at {bad}")
        bad = _character_law_witness(ring.nonzero, rows)
        if bad is not None:
            i, j, l = bad
            raise InternalConsistencyError(f"class {l} is not a character at ({i}, {j})")

        codegrees = tuple(
            sum((rows[k][l] * rows[dual[k]][l] for k in range(rank)), rational(0))
            for l in range(rank)
        )
        if any(f.is_zero() for f in codegrees):
            raise InternalConsistencyError("zero formal codegree")
        invs = [f.inv() for f in codegrees]
        idempotents = tuple(
            ClassFunction(tuple(rows[dual[i]][l] * invs[l] for i in range(rank)))
            for l in range(rank)
        )
        values = matmul([f.coeffs for f in idempotents], rows)  # F_j on class l
        bad = _first_pair(rank, lambda j, l: values[j][l] != int(j == l))
        if bad is not None:
            raise InternalConsistencyError(f"class idempotents do not invert alpha at {bad}")

        self._conjugacy = ConjugacyData(
            alpha=alpha,
            idempotents=idempotents,
            class_sums=tuple(self.fourier_inv(f) for f in idempotents),
            sizes=tuple(self.dim * z for z in invs),
            multiplicities=codegrees,
            column_order=column_order,
        )
        return self._conjugacy

    def _fusion_law(self, families, pairs) -> list[tuple[int, int] | None]:
        """For each family x of central elements, the first (i, j) of `pairs`
        (in row-major order) with sum_k N_ij^k x_k != x_i x_j, or None.  A
        family is read only at i, j and the k with N_ij^k != 0.  Per i, one
        matmul of the fusion rows N_ij over those k against the rows of all
        families side by side; it stops once every family has failed."""
        rank, ring = self.rank, self.data.ring
        first = [None] * len(families)
        for i, group in groupby(pairs, key=itemgetter(0)):
            js = [j for _, j in group]
            ks = sorted({k for j in js for k, _ in ring.nonzero[i][j]})
            sums = matmul(
                [[rational(ring.fusion[i][j][k]) for k in ks] for j in js],
                [[c for x in families for c in x[k].coeffs] for k in ks],
            )
            for j, row in zip(js, sums):
                for f, x in enumerate(families):
                    lhs = CentralElement(tuple(row[f * rank:(f + 1) * rank]))
                    if first[f] is None and lhs != self.ce_mul(x[i], x[j]):
                        first[f] = (i, j)
            if None not in first:
                break
        return first

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
        if self._fusion_law((self._scaled_class_sums,), [(i, j)]) != [None]:
            raise InternalConsistencyError(
                f"class sum product ({i}, {j}) does not match its expansion"
            )
        constants = [rational(0)] * self.rank
        dij = self.dims[i] * self.dims[j]
        for l, n in self.data.ring.nonzero[i][j]:
            constants[l] = dij * self._dims_inv[l] * n
        return ClassSumProduct(tuple(constants), tuple(c.is_rational() for c in constants))

    # -- identity suite -----------------------------------------------------------

    def identity_suite(self) -> list[Check]:
        """Run every promised exact identity; one Check per identity."""
        checks: list[Check] = []
        rank = self.rank
        modular = self.data.modular is not None

        checks.append(verdict(
            "cointegral-normalized",
            self.pairing(self.cointegral(), self.unit_central()) == 1,
        ))

        ok = all(
            self.fourier_inv(self.fourier(self.idempotent(i))) == self.idempotent(i)
            and self.fourier(self.fourier_inv(self.character(i))) == self.character(i)
            for i in range(rank)
        )
        checks.append(verdict("fourier-roundtrip", ok))

        lam = self.cointegral()
        ok = all(
            self.fourier(self.idempotent(i))
            == self.act_arrow(lam, self.antipode(self.idempotent(i)))
            for i in range(rank)
        )
        checks.append(verdict("fourier-action-consistency", ok))

        try:
            conj = self.conjugacy()
        except CapabilityError as e:
            for cid in (
                "idempotent-orthogonality",
                "idempotent-complete",
                "class-size-pairing",
                "dual-bases-exchange",
                "char-table-class-pairing",
                "class-sum-expansion",
                "second-orthogonality",
            ):
                checks.append(Check(cid, "skip", str(e)))
            conj = None
        if conj is not None:
            # Orthogonality and completeness were certified in conjugacy().
            checks.append(verdict("idempotent-orthogonality", True))
            checks.append(verdict("idempotent-complete", True))

            pairs = self.pairings(conj.idempotents, conj.class_sums)
            bad = _first_pair(
                rank,
                lambda i, j: pairs[i][j] != (conj.sizes[i] if i == j else rational(0)),
            )
            checks.append(verdict(
                "class-size-pairing",
                bad is None,
                "" if bad is None else f"<F_i, cbar_j> wrong at {bad}",
            ))

            exchange = matmul(  # sum_i F_i[a] (n_i F_i[b])
                list(zip(*(f.coeffs for f in conj.idempotents))),
                [f.scaled(n).coeffs for n, f in zip(conj.multiplicities, conj.idempotents)],
            )
            bad = _first_pair(
                rank,
                lambda a, b: exchange[a][b] != rational(1 if b == self.dual[a] else 0),
            )
            checks.append(verdict(
                "dual-bases-exchange",
                bad is None,
                "" if bad is None else f"sum_i n_i F_i (x) F_i wrong at {bad}",
            ))

            bad = _first_pair(  # alpha_ij = <chi_i, cbar_j> / |C^j|, times |C^j|
                rank,
                lambda i, j: conj.alpha.rows[i][j] * conj.sizes[j]
                != conj.class_sums[j].coeffs[i] * self.dims[i],
            )
            checks.append(verdict(
                "char-table-class-pairing",
                bad is None,
                "" if bad is None else f"alpha_ij != <chi_i, cbar_j>/|C^j| at {bad}",
            ))

            def wrong(i, j):
                want = conj.sizes[i] * conj.alpha.rows[j][i] * self._dims_inv[j]
                return conj.class_sums[i].coeffs[j] != want

            bad = _first_pair(rank, wrong)
            checks.append(verdict(
                "class-sum-expansion",
                bad is None,
                "" if bad is None else f"cbar_i expansion wrong at {bad}",
            ))

            rows = conj.alpha.rows  # sum_j alpha_ji alpha_{j* l}
            columns = matmul(list(zip(*rows)), [rows[self.dual[j]] for j in range(rank)])

            def wrong(i, l):  # the diagonal dim C / |C^i|, times |C^i|
                if i == l:
                    return columns[i][i] * conj.sizes[i] != self.dim
                return not columns[i][l].is_zero()

            bad = _first_pair(rank, wrong)
            checks.append(verdict(
                "second-orthogonality",
                bad is None,
                "" if bad is None else f"column orthogonality wrong at {bad}",
            ))

        modular_checks = (
            "integral-image",
            "char-table-symmetry",
            "drinfeld-class-sum",
            "counit-dimension",
            "transparent-cointegral-unit",
            "class-size-dim-square",
            "class-sum-algebra",
            "drinfeld-multiplicative",
            "drinfeld-idempotent-match",
        )
        if not modular:
            for cid in modular_checks:
                checks.append(Check(cid, "skip", "needs an s-matrix"))
            return checks

        fq = self._drinfeld_characters
        conj = self.conjugacy()
        images = [  # row j is drinfeld(F_j)
            CentralElement(tuple(row))
            for row in matmul([f.coeffs for f in conj.idempotents], [e.coeffs for e in fq])
        ]

        checks.append(verdict("integral-image", images[0] == self.idempotent(0)))

        bad = _first_pair(
            rank,
            lambda i, j: conj.alpha.rows[i][j] * self.dims[j]
            != self.dims[i] * conj.alpha.rows[j][i],
        )
        checks.append(verdict(
            "char-table-symmetry",
            bad is None,
            "" if bad is None else f"d_j alpha_ij != d_i alpha_ji at {bad}",
        ))

        def wrong(i):  # drinfeld(chi_i) = (d_i / |C^i|) cbar_i, times |C^i|
            return fq[i].scaled(conj.sizes[i]) != conj.class_sums[i].scaled(self.dims[i])

        bad = next(filter(wrong, range(rank)), None)
        checks.append(verdict(
            "drinfeld-class-sum",
            bad is None,
            "" if bad is None else f"drinfeld(chi_i) != (d_i/|C^i|) cbar_i at i={bad}",
        ))

        checks.append(verdict(
            "counit-dimension",
            all(fq[i].coeffs[0] == self.dims[i] for i in range(rank)),
        ))

        transparent = self.transparent_members()
        checks.append(verdict(
            "transparent-cointegral-unit",
            self.drinfeld(self.cointegral(transparent)) == self.unit_central(),
            f"transparent objects: {list(transparent)}",
        ))

        bad = [
            j
            for j in range(rank)
            if conj.sizes[j] != self.dims[j] * self.dims[j]
        ]
        checks.append(verdict(
            "class-size-dim-square",
            not bad,
            "" if not bad else f"|C^j| != d_j^2 at {bad}",
        ))

        bad_sums, bad = self._fusion_law(
            (self._scaled_class_sums, fq), product(range(rank), repeat=2)
        )
        if bad_sums is not None:
            detail = f"class sum product {bad_sums} does not match its expansion"
        elif all(
            (self.dims[i] * self.dims[j] * self._dims_inv[l]).is_rational()
            for i, j in product(range(rank), repeat=2)
            for l, _ in self.data.ring.nonzero[i][j]
        ):
            detail = "all structure constants rational"
        else:
            detail = "verified; some constants irrational"
        checks.append(verdict("class-sum-algebra", bad_sums is None, detail))
        checks.append(verdict(
            "drinfeld-multiplicative",
            bad is None,
            "" if bad is None else f"drinfeld map not multiplicative at {bad}",
        ))

        bad = [j for j in range(rank) if images[j] != self.idempotent(j)]
        checks.append(verdict(
            "drinfeld-idempotent-match",
            not bad,
            "" if not bad else f"drinfeld(F_j) != E_j at {bad}",
        ))

        return checks
