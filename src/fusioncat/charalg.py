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
idempotents F_0..F_m of the class algebra itself, with F_0 = lambda, their
preimages cbar_j = F^{-1}(F_j) (the class sums), class sizes
|C^j| = dim(C) tau(F_j) and multiplicities n_j = dim(C)/|C^j|.  For modular
data the F_j are labelled by simple objects through the closed form
F_j = (d_j / dim C) sum_i s_{i* j} chi_i, which makes drinfeld(F_j) = E_j; for a
plain fusion ring they come from exact inversion of a supplied character
table, with the column equal to the dimension vector moved to slot 0.

identity_suite runs every exact identity the machinery promises and reports
one Check per identity; on modular input all of them must pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import CategoryData, Check, verdict
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


@dataclass(frozen=True)
class _Vector:
    """Coefficient vector over a basis; the subclass names the basis, and
    vectors over different bases never compare equal."""

    coeffs: tuple[Cyclotomic, ...]

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


class CentralElement(_Vector):
    """Coefficients over the primitive central idempotents E_j."""


@dataclass(frozen=True)
class ConjugacyData:
    alpha: CycloMatrix  # alpha_ij = value of chi_i on the class of j
    idempotents: tuple[ClassFunction, ...]  # F_j
    class_sums: tuple[CentralElement, ...]  # cbar_j = F^{-1}(F_j)
    sizes: tuple[Cyclotomic, ...]  # |C^j| = dim(C) tau(F_j)
    multiplicities: tuple[Cyclotomic, ...]  # n_j = dim(C) / |C^j|
    column_order: tuple[int, ...]  # original columns behind each class index


@dataclass(frozen=True)
class ClassSumProduct:
    """cbar_i cbar_j = sum_l c_ij^l cbar_l with c_ij^l = (d_i d_j / d_l) N_ij^l."""

    constants: tuple[Cyclotomic, ...]
    rational_flags: tuple[bool, ...]

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
        self._drinfeld_basis: tuple[CentralElement, ...] | None = None

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
        (image,) = matmul([f.coeffs], [e.coeffs for e in self._drinfeld_characters()])
        return CentralElement(tuple(image))

    def _drinfeld_characters(self) -> tuple[CentralElement, ...]:
        """drinfeld(chi_i) for every i: row i of s with column j divided by d_j."""
        if self._drinfeld_basis is None:
            self._drinfeld_basis = tuple(
                CentralElement(tuple(v * d for v, d in zip(row, self._dims_inv)))
                for row in self.require_s().rows
            )
        return self._drinfeld_basis

    def transparent_members(self) -> tuple[int, ...]:
        """Objects j with s_ij = d_i d_j for every i (the Mueger center)."""
        s = self.require_s()
        out = []
        for j in range(self.rank):
            if all(
                s.rows[i][j] == self.dims[i] * self.dims[j] for i in range(self.rank)
            ):
                out.append(j)
        return tuple(out)

    # -- character table --------------------------------------------------------

    def alpha(self) -> CycloMatrix:
        return self.conjugacy().alpha

    # -- conjugacy class data ----------------------------------------------------

    def conjugacy(self) -> ConjugacyData:
        if self._conjugacy is not None:
            return self._conjugacy
        rank = self.rank
        if self.data.modular is not None:
            s = self.data.modular.s
            alpha = CycloMatrix([e.coeffs for e in self._drinfeld_characters()])
            column_order = tuple(range(rank))
            idempotents = []
            for j in range(rank):
                scale = self.dims[j] * self.dim_inv
                idempotents.append(
                    ClassFunction(
                        tuple(
                            scale * s.rows[self.dual[i]][j] for i in range(rank)
                        )
                    )
                )
        else:
            table = self.data.char_table
            if table is None:
                raise CapabilityError(
                    f"{self.data.name}: conjugacy data needs an s-matrix or a "
                    "character table"
                )
            dim_cols = [
                j
                for j in range(rank)
                if all(table.rows[i][j] == self.dims[i] for i in range(rank))
            ]
            if len(dim_cols) != 1:
                raise InternalConsistencyError(
                    f"character table must have exactly one dimension column, "
                    f"found {dim_cols}"
                )
            column_order = (dim_cols[0],) + tuple(
                j for j in range(rank) if j != dim_cols[0]
            )
            alpha = CycloMatrix(
                [
                    [table.rows[i][c] for c in column_order]
                    for i in range(rank)
                ]
            )
            inv = alpha.inverse()
            idempotents = [
                ClassFunction(tuple(inv.rows[j][i] for i in range(rank)))
                for j in range(rank)
            ]

        # Exact certification: orthogonal, complete, F_0 = cointegral.
        for j in range(rank):
            for k in range(j, rank):
                prod = self.cf_mul(idempotents[j], idempotents[k])
                want = idempotents[j] if j == k else self.cf_zero()
                if prod != want:
                    raise InternalConsistencyError(
                        f"class idempotents are not orthogonal at ({j}, {k})"
                    )
        total = self.cf_zero()
        for f in idempotents:
            total = total + f
        if total != self.character(0):
            raise InternalConsistencyError("class idempotents do not sum to chi_0")
        if idempotents[0] != self.cointegral():
            raise InternalConsistencyError("F_0 is not the cointegral")

        sizes = tuple(self.dim * f.coeffs[0] for f in idempotents)
        if any(z.is_zero() for z in sizes):
            raise InternalConsistencyError("zero class size")
        mults = tuple(self.dim * z.inv() for z in sizes)
        class_sums = tuple(self.fourier_inv(f) for f in idempotents)

        self._conjugacy = ConjugacyData(
            alpha=alpha,
            idempotents=tuple(idempotents),
            class_sums=class_sums,
            sizes=sizes,
            multiplicities=mults,
            column_order=column_order,
        )
        return self._conjugacy

    def class_sum_product(self, i: int, j: int) -> ClassSumProduct:
        """Structure constants of the class sums, verified against ce_mul."""
        conj = self.conjugacy()
        constants = [rational(0)] * self.rank
        lhs = self.ce_mul(conj.class_sums[i], conj.class_sums[j])
        dij = self.dims[i] * self.dims[j]
        terms = self.data.ring.nonzero[i][j]
        for l, n in terms:
            constants[l] = dij * self._dims_inv[l] * n
        (acc,) = matmul(
            [[constants[l] for l, _ in terms]], [conj.class_sums[l].coeffs for l, _ in terms]
        )
        if lhs != CentralElement(tuple(acc)):
            raise InternalConsistencyError(
                f"class sum product ({i}, {j}) does not match its expansion"
            )
        return ClassSumProduct(
            constants=tuple(constants),
            rational_flags=tuple(c.is_rational() for c in constants),
        )

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

            def wrong(i, j):
                val = conj.class_sums[j].coeffs[i] * self.dims[i] * conj.sizes[j].inv()
                return conj.alpha.rows[i][j] != val

            bad = _first_pair(rank, wrong)
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
            bad = _first_pair(
                rank,
                lambda i, l: columns[i][l]
                != (self.dim * conj.sizes[i].inv() if i == l else rational(0)),
            )
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

        fq = self._drinfeld_characters()
        conj = self.conjugacy()

        checks.append(verdict(
            "integral-image", self.drinfeld(conj.idempotents[0]) == self.idempotent(0)
        ))

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

        def wrong(i):
            want = conj.class_sums[i].scaled(self.dims[i] * conj.sizes[i].inv())
            return fq[i] != want

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

        flags = []
        try:
            for i in range(rank):
                for j in range(rank):
                    flags.append(self.class_sum_product(i, j).all_rational)
            checks.append(verdict(
                "class-sum-algebra",
                True,
                "all structure constants rational"
                if all(flags)
                else "verified; some constants irrational",
            ))
        except InternalConsistencyError as e:
            checks.append(verdict("class-sum-algebra", False, str(e)))

        fq_rows = [e.coeffs for e in fq]
        bad = next(  # one matmul per i; row j is sum_k N_ij^k fq[k]
            (
                (i, j)
                for i, cells in enumerate(self.data.ring.fusion)
                for j, lhs in enumerate(matmul([[rational(n) for n in c] for c in cells], fq_rows))
                if CentralElement(tuple(lhs)) != self.ce_mul(fq[i], fq[j])
            ),
            None,
        )
        checks.append(verdict(
            "drinfeld-multiplicative",
            bad is None,
            "" if bad is None else f"drinfeld map not multiplicative at {bad}",
        ))

        bad = [
            j
            for j in range(rank)
            if self.drinfeld(conj.idempotents[j]) != self.idempotent(j)
        ]
        checks.append(verdict(
            "drinfeld-idempotent-match",
            not bad,
            "" if not bad else f"drinfeld(F_j) != E_j at {bad}",
        ))

        return checks
