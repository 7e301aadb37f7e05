"""Fusion subcategories: generation, enumeration, invariants, grading.

A fusion subcategory is recorded by the sorted index set of its simple
objects; the set always contains the unit and is closed under duals and
under taking constituents of tensor products.  Inside this module a set
of objects is an int mask, bit i for object i, and P[a][b] the mask of
the constituents of a b and b a.  Enumeration joins the principal
subcategories <i> (stopped past SUBCATEGORY_LIMIT) in exact order of
dimension; its record keeps the masks, the atoms <i> and the join table
D v <i> by index, on which the lattice laws are decided.  Ganter's
NextClosure lists every closed mask, at most rank - 1 runs each of the
closure routine _close, as lattice_suite's independent oracle.  That
record, dimensions, invariants, grading and product supports of an
algebra are memoized in this module, keyed weakly.

In a commutative fusion ring the join of closed sets D and E is the
product set D E, the constituents of x y for x in D and y in E.  Proof:
D E lies in D v E and holds D and E, as both hold the unit.  It is closed
under products, (x y)(x' y') = (x x')(y y') with x x' in D and y y' in E,
as the support of a product of nonnegative combinations is the union of
the supports of the pairwise products.  It is closed under duals, as
(x y)* = y* x* = x* y*.  So D E is closed and equals D v E.

Every subcategory D owns a small bundle of invariants:

    dim D       sum of d_i d_{i*} over members,
    lambda_D    its cointegral, a class function supported on D,
    ell_D       its integral (dim C / dim D) sum_{i in D} E_i,
    support     the classes j with <F_j, ell_D> != 0, equivalently
                lambda_D = sum over the support of the F_j,
    index       dim C / dim D, also the counit of ell_D and the class
                sizes summed over the support.

The lattice laws tie these together: cointegrals multiply along joins, and
the support map is an inclusion-reversing bijection onto its image.  As
lattice_suite proves, both are decided on int masks, on the joins D v <i>.

The universal grading comes from the adjoint subcategory (generated by all
i (x) i*): its components partition the simples and multiply like a finite
group.  For integral categories the index-p subcategories, p the smallest
prime dividing dim C, are exactly the preimages of index-p (automatically
normal) subgroups of that group, and all of them contain the adjoint; the
prime_index_check report exhibits the bijection (subgroups from G/G'G^p).
"""

from __future__ import annotations

import weakref
from functools import cmp_to_key, reduce, wraps
from itertools import compress, count, product
from math import isqrt
from operator import mul, or_

from .category import Check, verdict
from .charalg import CentralElement, CharacterAlgebra, ClassFunction
from .cyclotomic import (
    Cyclotomic, _chunks, _family, _Frozen, _make, _mul, _sums, _transposed, _Vector, euler_phi,
)
from .errors import CapabilityError, InternalConsistencyError

__all__ = [
    "FusionSubcategory",
    "SubcatInvariants",
    "Grading",
    "PrimeIndexReport",
    "generate_subcat",
    "enumerate_subcats",
    "subcat_invariants",
    "meet",
    "join",
    "kernel_of_object",
    "grading",
    "prime_index_check",
    "lattice_suite",
]

# Enumeration stops past this many subcategories.  Without the bound, the
# 29,212 of toric_code^3 (x) semion (rank 128) cost one verify about 31 s and
# 616 MB in process on a 2-vCPU machine: enumeration 5.0 s, lattice_suite
# 18.7 s (13.3 s of it the oracle) and centralizer_suite 6.1 s.
SUBCATEGORY_LIMIT = 4096


class FusionSubcategory(_Frozen):
    """Sorted simple-object indices; unit-, dual- and fusion-closed; equal by members."""

    __slots__ = ("members",)

    def __eq__(self, other):
        return type(other) is FusionSubcategory and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __len__(self) -> int:
        return len(self.members)


class SubcatInvariants(_Frozen):
    __slots__ = ("subcat", "dim", "index", "cointegral", "integral", "support")


class Grading(_Frozen):
    # components: the partition, 0 holding the unit; table: the universal grading group
    __slots__ = ("adjoint", "pointed", "components", "table")


class PrimeIndexReport(_Frozen):
    # the index-p subcategories and normal subgroups; pairs: (subgroup, members of its preimage)
    __slots__ = ("applicable", "reason", "prime", "subcategories", "subgroups", "pairs", "checks")


_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memoized(fn):
    """fn(alg, *args), memoized in _MEMOS[alg], which dies with alg.  Only
    return values are kept: an exception propagates and is not cached."""
    @wraps(fn)
    def cached(alg, *args):
        memo, key = _MEMOS.get(alg) or _MEMOS.setdefault(alg, {}), (fn.__name__, *args)
        if key not in memo:
            memo[key] = fn(alg, *args)
        return memo[key]
    return cached


def _product_masks(nonzero, dual) -> tuple[tuple[int, ...], ...]:
    """P[a][b]: bit c set iff chi_c is a constituent of L_a L_b or L_b L_a,
    for nonzero[a][b] = ((c, N_ab^c), ...); P[a][a] also holds bit dual[a]."""
    rank = len(nonzero)
    bits = [[sum(1 << c for c, _ in row) for row in rows] for rows in nonzero]
    for a in range(rank):
        bits[a][a] |= 1 << dual[a]
    return tuple(tuple(bits[a][b] | bits[b][a] for b in range(rank)) for a in range(rank))


@_memoized
def _ring_masks(alg: CharacterAlgebra) -> tuple[tuple[int, ...], ...]:
    return _product_masks(alg.data.nonzero, alg.data.dual)


def _close(masks, closed: int, new: int, stop: int = 0) -> int:
    """The smallest closed mask holding the closed mask `closed` (bit 0 set)
    and the bits of `new`; `closed` itself when new adds no bit.  One worklist
    pass: each new member a is multiplied with itself and the members taken
    before it, by masks[a][b].  Once a bit of `stop` is due, it returns a
    mask inside the closure that holds that bit."""
    todo = new & ~closed
    if not todo:
        return closed
    members = [b for b, bit in enumerate(bin(closed)[:1:-1]) if bit == "1"]
    while todo:
        if todo & stop:
            return closed | todo
        a = (todo & -todo).bit_length() - 1
        closed |= 1 << a
        members.append(a)
        row = masks[a]
        for b in members:
            todo |= row[b]
        todo &= ~closed
    return closed


def _is_closed(alg: CharacterAlgebra, mask: int) -> bool:
    """Whether mask is closed: one of the masks of the lattice record once
    that is built for alg, as it holds all of them; else by one closure."""
    if isinstance(_MEMOS.get(alg, {}).get(("_lattice",)), tuple):
        return mask in _closed_set(alg)
    return _close(_ring_masks(alg), 1, mask) == mask


@_memoized
def _closed_set(alg: CharacterAlgebra) -> frozenset:
    return frozenset(_lattice(alg)[1])


def _members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _closed_masks(masks, rank: int) -> list[int]:
    """Every closed mask, once each, in lectic order (Ganter's NextClosure),
    with at most rank - 1 closures per mask; proof in lattice_suite.  A
    closure stops at the first bit below i outside A, which rejects i."""
    closed = [1]
    while closed[-1] != (1 << rank) - 1:
        a = closed[-1]
        for i in range(rank - 1, 0, -1):
            low = (1 << i) - 1
            if not a >> i & 1:
                b = _close(masks, 1, a & low | 1 << i, low & ~a)
                if not (a ^ b) & low:
                    break
        closed.append(b)
    return closed


def generate_subcat(alg: CharacterAlgebra, generators) -> FusionSubcategory:
    """Smallest fusion subcategory containing the given simple indices."""
    new = 0
    for i in generators:
        new |= 1 << alg._object(i)
    return FusionSubcategory(_members(_close(_ring_masks(alg), 1, new)))


def enumerate_subcats(alg: CharacterAlgebra) -> tuple[FusionSubcategory, ...]:
    """All fusion subcategories, sorted by (dimension, members).

    These are the joins of the principal subcategories <i> generated by one
    simple object.  Proof: for i in D, <i> lies in D, so the join J of the <i>
    over i in D lies in D; each i in D lies in <i>, so D lies in J.  So D = J.
    Past SUBCATEGORY_LIMIT it raises a copy of the lattice record's error.
    """
    record = _lattice(alg)
    if isinstance(record, CapabilityError):
        raise CapabilityError(*record.args)
    return record[0]


@_memoized
def _lattice(alg: CharacterAlgebra) -> tuple | CapabilityError:
    """(subcats, masks, atoms, joins) in subcategory order: the member masks,
    the indices of the distinct principal subcategories <i>, and joins[a][k],
    the index of D_a v D_{atoms[k]}.  <i> is the fixed point of A -> A A from
    {0, i}: each A lies in <i>, and A A = A is closed (P[a][a] holds a*).  Each
    subcategory found is joined with every atom: where N_ij = N_ji (read
    here, as subcats reaches this without conjugacy()), D v <k> is the OR of
    Q[d][k] = (P[d][a] OR-ed over a in <k>) over d in D (module docstring),
    with Q[d] packed into one int; else one closure.  Past SUBCATEGORY_LIMIT
    the record is the CapabilityError that names it."""
    products, rank = _ring_masks(alg), alg.rank
    atoms = []
    for i in range(rank):
        atom, grown = 0, 1 | 1 << i
        while grown != atom:
            atom, part = grown, _members(grown)
            grown = reduce(or_, (products[x][y] for x in part for y in part))
        atoms += [atom] * (atom not in atoms)
    if alg.data.noncommuting is None:
        shifts, full = range(0, rank * len(atoms), rank), (1 << rank) - 1
        parts = [_members(atom) for atom in atoms]
        packed = [sum(reduce(or_, map(row.__getitem__, p)) << x for p, x in zip(parts, shifts))
                  for row in products]

        def joined(closed):
            row = reduce(or_, map(packed.__getitem__, _members(closed)))
            return [row >> x & full for x in shifts]
    else:
        def joined(closed):
            return [_close(products, closed, atom) for atom in atoms]
    rows, todo = dict.fromkeys(atoms), list(atoms)
    while todo:
        closed = todo.pop()
        rows[closed] = row = joined(closed)
        for mask in row:
            if mask not in rows:
                rows[mask] = None
                todo.append(mask)
                if len(rows) > SUBCATEGORY_LIMIT:
                    return CapabilityError(f"subcategory enumeration stopped past "
                                           f"SUBCATEGORY_LIMIT = {SUBCATEGORY_LIMIT} subcategories")
    mask_of = {_members(m): m for m in rows}
    dims = {m: _dim(alg, m) for m in mask_of}
    keys = {m: _rounded(v) for m, v in dims.items()}

    def by_dim(a, b):
        # |x - dim D| < bound, so a gap past both bounds orders a pair
        (x, e), (y, f) = keys[a], keys[b]
        if abs(x - y) > e + f:
            return 1 if x > y else -1
        if dims[a] == dims[b]:
            return (a > b) - (a < b)
        x, bound = _rounded(dims[a] - dims[b])
        if abs(x) > bound:
            return 1 if x > 0 else -1
        raise InternalConsistencyError(
            f"cannot order subcategories {a} and {b}: their dimensions "
            f"differ by {x:.3g}, within the rounding bound {bound:.3g}"
        )

    order = sorted(set(mask_of), key=cmp_to_key(by_dim))
    masks = [mask_of[m] for m in order]
    index = {m: x for x, m in enumerate(masks)}
    by_atom = sorted(range(len(atoms)), key=lambda k: index[atoms[k]])
    return (tuple(map(FusionSubcategory, order)), tuple(masks),
            tuple(index[atoms[k]] for k in by_atom),
            tuple(tuple(index[rows[m][k]] for k in by_atom) for m in masks))


@_memoized
def _dim(alg: CharacterAlgebra, members: tuple[int, ...]) -> Cyclotomic:
    return alg.subset_dim(members)  # once per subcategory


def _rounded(v: Cyclotomic) -> tuple[float, float]:
    """(x, bound) with |x - Re v| < bound: each of the phi(n) terms c_k zeta^k
    and each addition rounds by a few units of 2^-53 times sum |c_k|."""
    return v.embed().real, 2.0**-40 * len(v.nums) * sum(map(abs, v.nums)) / v.den


def subcat_invariants(alg: CharacterAlgebra, subcat: FusionSubcategory) -> SubcatInvariants:
    """Invariant bundle for one subcategory: _invariants on [subcat]."""
    return _invariants(alg, [subcat])[0]


def _invariants(alg: CharacterAlgebra, subcats) -> list[SubcatInvariants]:
    """The invariant bundles of subcats, memoized, from one pass over flat
    integer rows; the first failing check in list order raises.  As
    fourier_inv is a permutation times a weight per coordinate, ell_D =
    fourier_inv(lambda_D) = u 1_D / dim D for u = fourier_inv(sum_i d_{i*}
    chi_i), which is index 1_D iff u_k = dim C on D; then <F_j, ell_D> =
    index <F_j d, 1_D>.  That, sum_{j in supp D} of F_j and of |C^j|, and
    lambda_D dim D = sum_{i in D} d_{i*} chi_i are products of 0/1 indicator
    matrices with flat rows (_sums), for every D; the rows do not depend on
    D, so _invariant_rows and the algebra build them once."""
    memo = _MEMOS.setdefault(alg, {})
    todo = [d for d in subcats if ("subcat_invariants", d) not in memo]
    if todo:
        good, weighted, idempotents, class_sizes = _invariant_rows(alg)
        members = [d.members for d in todo]
        n, _, pairs = _sums(weighted, members)
        supports = [tuple(compress(count(), map(any, _chunks(r, euler_phi(n))))) for r in pairs]
        n, den, lams = _sums(idempotents, supports)
        m, den_m, sizes = _sums(class_sizes, supports)
        codims = alg._codim_sums(members)
        for d, support, lam_sum, size_sum, codim in zip(todo, supports, lams, sizes, codims):
            dim_d = _dim(alg, d.members)
            dim_inv = dim_d.inv()  # a zero dimension raises here, first
            index = alg.dim * dim_inv
            if sum(1 << i for i in d.members) & ~good:
                raise InternalConsistencyError(
                    "integral of the subcategory disagrees with its closed form"
                )
            lam = codim.scaled(dim_inv)
            if _make(n, lam_sum, den, ClassFunction) != lam:
                raise InternalConsistencyError(
                    "cointegral is not the sum of the idempotents in its support"
                )
            if 0 not in d or _make(m, size_sum, den_m) != index:
                raise InternalConsistencyError(
                    "index, counit of the integral and class sizes over the support disagree"
                )
            memo["subcat_invariants", d] = SubcatInvariants(
                d, dim_d, index, lam, alg._basis(CentralElement, d.members).scaled(index), support)
    return [memo["subcat_invariants", d] for d in subcats]


@_memoized
def _invariant_rows(alg: CharacterAlgebra) -> tuple:
    """(good, weighted, idempotents, sizes): the mask of the k with u_k = dim
    C, and as _family rows the transpose of the F_j d, the F_j and the |C^j|."""
    conj = alg.conjugacy()
    u = alg.fourier_inv(alg._codims).coeffs
    good = sum(1 << k for k in range(alg.rank) if u[k] == alg.dim)
    weighted = _transposed([_mul(_Vector, f, alg._dims_vec) for f in conj.idempotents])
    return good, *(_family(v) for v in (weighted, conj.idempotents, conj.sizes))


def meet(alg: CharacterAlgebra, a: FusionSubcategory, b: FusionSubcategory) -> FusionSubcategory:
    common = tuple(sorted(set(a.members) & set(b.members)))
    closed = generate_subcat(alg, common)
    if closed.members != common:
        raise InternalConsistencyError("intersection of subcategories is not closed")
    return FusionSubcategory(common)


def join(alg: CharacterAlgebra, a: FusionSubcategory, b: FusionSubcategory) -> FusionSubcategory:
    return generate_subcat(alg, a.members + b.members)


def kernel_of_object(alg: CharacterAlgebra, i: int) -> tuple[int, ...]:
    """Classes on which chi_i takes its maximal value d_i."""
    row = alg.conjugacy().alpha[alg._object(i)].coeffs
    return tuple(j for j in range(alg.rank) if row[j] == alg.dims[i])


@_memoized
def grading(alg: CharacterAlgebra) -> Grading:
    nonzero, dual, rank = alg.data.nonzero, alg.data.dual, alg.rank
    seed = {k for i in range(rank) for k, _ in nonzero[i][dual[i]]}
    adjoint = generate_subcat(alg, seed)

    assigned, components = {}, []  # object: its component
    for j in range(rank):
        if j in assigned:
            continue
        comp = tuple(sorted({i for k in adjoint.members for i, _ in nonzero[k][j]}))
        if j not in comp or any(i in assigned for i in comp):
            raise InternalConsistencyError(
                "adjoint translates do not partition the simple objects"
            )
        assigned.update(dict.fromkeys(comp, len(components)))
        components.append(comp)

    order = len(components)
    if components[0] != adjoint.members:
        raise InternalConsistencyError("unit component differs from the adjoint")

    table = []
    for p, comp_p in enumerate(components):
        row = []
        for q, comp_q in enumerate(components):
            targets = {
                assigned[k] for i in comp_p for j in comp_q for k, _ in nonzero[i][j]
            }
            if len(targets) != 1:
                raise InternalConsistencyError(
                    f"component product ({p}, {q}) is not a single component; "
                    "the grading is ill-defined"
                )
            row.append(targets.pop())
        table.append(tuple(row))
    table = tuple(table)

    for p in range(order):
        if table[0][p] != p or table[p][0] != p:
            raise InternalConsistencyError("grading group has no identity")
        if sorted(table[p]) != list(range(order)):
            raise InternalConsistencyError("grading group row is not a permutation")
        for q in range(order):
            for r in range(order):
                if table[table[p][q]][r] != table[p][table[q][r]]:
                    raise InternalConsistencyError("grading group is not associative")

    pointed_members = tuple(i for i in range(rank) if alg.dims[i] == 1)
    if generate_subcat(alg, pointed_members).members != pointed_members:
        raise InternalConsistencyError(
            "dimension-one objects do not form a fusion subcategory"
        )

    return Grading(
        adjoint=adjoint, pointed=FusionSubcategory(pointed_members),
        components=tuple(components), table=table,
    )


def _subgroups_of_index(table, p: int) -> list[tuple[int, ...]]:
    """Index-p normal subgroups of the group with this multiplication table
    (identity 0), sorted: the kernels of the nonzero functionals on G/N,
    N = G'G^p, one functional per line (proof in prime_index_check)."""
    order = len(table)
    if order % p:
        return []
    inv, powers = [row.index(0) for row in table], list(range(order))
    for _ in range(p - 1):
        powers = [table[x][g] for g, x in enumerate(powers)]
    new = {table[table[g][h]][table[inv[g]][inv[h]]] for g in range(order) for h in range(order)}
    # N closes as in the fusion ring with N_ab^c = 1 iff c = ab
    masks = _product_masks([[((c, 1),) for c in row] for row in table], inv)
    coords = dict.fromkeys(_members(_close(masks, 1, sum(1 << x for x in new.union(powers)))), ())
    for b in range(order):  # a greedy basis b_1..b_r: g in N b_1^c_1 ... b_r^c_r has coords c
        if b not in coords:  # G/N is abelian of exponent p: p cosets of the span so far
            layer = list(coords.items())
            coords = {g: (*c, 0) for g, c in layer}
            for k in range(1, p):
                layer = [(table[g][b], c) for g, c in layer]
                coords.update((g, (*c, k)) for g, c in layer)
    lines = (f for f in product(range(p), repeat=len(coords[0])) if next(filter(None, f), 0) == 1)
    return sorted(tuple(g for g in range(order) if not sum(map(mul, f, coords[g])) % p)
                  for f in lines)


def prime_index_check(alg: CharacterAlgebra) -> PrimeIndexReport:
    """For integral categories: index-p subcategories, p the smallest prime
    dividing dim C, against index-p normal subgroups of the grading group G.

    The index-p normal subgroups H are the kernels of the nonzero F_p-linear
    functionals on G/N, N = G'G^p generated by the commutators and p-th
    powers, one kernel per line of functionals.  Proof: H normal of index p
    makes G/H of order p, so Z/p, abelian of exponent p: N <= H.  Conversely
    H >= N >= G' is normal, as g h g^-1 = [g, h] h.  G/N is abelian of
    exponent p, an F_p-space whose subgroups are its subspaces, so the H
    are the preimages of the hyperplanes, each the kernel of one line.
    """

    def na(reason):
        return PrimeIndexReport(
            applicable=False, reason=reason, prime=None, subcategories=(), subgroups=(),
            pairs=(), checks=(Check("prime-index", "skip", reason),),
        )

    if not alg.data.is_integral:
        return na("not applicable: category has non-integral dimensions")
    dim_c = alg.dim.nums[0]  # integral, so dim C is an integer
    if dim_c <= 1:
        return na("not applicable: global dimension 1 has no prime factor")

    p = next((q for q in range(2, isqrt(dim_c) + 1) if not dim_c % q), dim_c)  # least prime factor
    target = dim_c // p
    subcats = tuple(d for d in enumerate_subcats(alg) if _dim(alg, d.members) == target)

    grade = grading(alg)
    subgroups = tuple(_subgroups_of_index(grade.table, p))
    by_subgroup = [tuple(sorted(i for g in sub for i in grade.components[g])) for sub in subgroups]

    bijection = sorted(by_subgroup) == sorted(d.members for d in subcats)
    adjoint = all(set(grade.adjoint.members) <= set(d.members) for d in subcats)
    checks = [
        verdict("prime-index-count", len(subcats) == len(subgroups),
                f"{len(subcats)} index-{p} subcategories, "
                f"{len(subgroups)} index-{p} normal subgroups"),
        verdict("prime-index-bijection", bijection,
                f"subgroup preimages {'match' if bijection else 'differ from'} the subcategories"),
        verdict("prime-index-adjoint", adjoint, "every such subcategory contains the adjoint"
                if adjoint else "an index-p subcategory misses the adjoint"),
    ]

    pairs = tuple(zip(subgroups, by_subgroup))
    return PrimeIndexReport(
        applicable=True, reason=f"dim C = {dim_c}, smallest prime {p}", prime=p,
        subcategories=subcats, subgroups=subgroups, pairs=pairs, checks=tuple(checks),
    )


def _antitone_witness(masks, supports):
    """The first (a, b), row-major, where D_a >= D_b and s(D_a) <= s(D_b) disagree, or None."""
    rows = list(enumerate(zip(masks, supports)))
    return next(((a, b) for a, (ma, sa) in rows for b, (mb, sb) in rows
                 if (ma & mb == mb) != (sa & sb == sa)), None)


def lattice_suite(alg: CharacterAlgebra) -> list[Check]:
    """Exact lattice and grading laws over the subcategory lattice.

    The oracle is Ganter's NextClosure (1984).  Order masks lectically:
    A < B when the lowest bit where they differ is in B.  From bit 0 alone,
    the least closed mask, the successor of a closed A is A + i =
    cl((A below i) | i) for the largest i not in A whose A + i adds no bit
    below i.  Proof: let B be the least closed mask above A (the full mask
    is one) and i the lowest bit where they differ.  As B is closed,
    A below i <= A + i <= B as sets, so A + i agrees with A below i, holds i
    and lies inside B: A < A + i <= B, so A + i = B.  A larger such j would
    give A < A + j < B, as A + j lacks i.  So L closed masks cost at most
    L (rank - 1) closures, not 2^(rank-1).  Once it matches, nothing is closed
    here: the lattice record holds D v A for every D and atom A = <i>.

    The laws run on int masks of members and supports.  The join law lambda_D
    lambda_E = lambda_{D v E} holds iff s(D v E) = s(D) & s(E), s the support
    map.  Proof: conjugacy() certifies F alpha = I, so the F_j are orthogonal
    idempotents, F_j F_k = delta_jk F_j, and linearly independent; _invariants
    checks lambda_D = sum_{j in s(D)} F_j.  So lambda_D lambda_E = sum_{j in
    s(D) & s(E)} F_j, and two indicator sums of independent F_j are equal iff
    their index sets are.  For any map s, it holds on all pairs iff on every
    (D, A): the law at (D, <0>) gives s(D) <= s(<0>), and folded along
    E = <0> v A_1 v ... v A_k, A_i = <i> for i in E, it gives s(D v E) =
    s(D) & S and s(E) = s(<0>) & S for S = s(A_1) & ... & s(A_k), so
    s(D v E) = s(D) & s(E).  With distinct supports it gives support-antitone,
    D >= E iff s(D) <= s(E): D >= E gives s(D) = s(D v E) = s(D) & s(E), and
    s(D) <= s(E) gives s(D v E) = s(D), so D v E = D.  So the antitone scan
    runs only when either fails, to find its first failing pair.  Each law
    reports its first failure row-major, the join law's a (D, A) with atoms
    in subcategory order.  The meet law (ell_D dim D)(ell_E dim E) = dim C
    ell_{D ^ E} dim(D ^ E) is not checked, as it cannot fail once _invariants
    passes: that certifies ell_D dim D = dim C 1_D, so both sides are
    dim C^2 1_{D & E}, and D & E is closed, as closed sets of a closure are
    closed under intersection.
    """
    checks: list[Check] = []

    try:
        subcats = enumerate_subcats(alg)
    except CapabilityError as e:
        return [Check("enumeration", "skip", str(e))]

    # The independent oracle: every closed set, by NextClosure.
    by_subsets = set(_closed_masks(_ring_masks(alg), alg.rank))
    _, masks, atoms, joins = _lattice(alg)
    match = by_subsets == set(masks)
    checks.append(verdict(
        "enumeration-generator-match",
        match,
        f"{len(by_subsets)} subcategories"
        if match
        else f"join closure finds {len(subcats)}, subset closure {len(by_subsets)}",
    ))
    if not match:
        return checks

    try:
        invs = _invariants(alg, subcats)
        checks.append(verdict("subcat-invariants", True, "closed forms and supports agree"))
    except CapabilityError as e:
        checks.append(Check("subcat-invariants", "skip", str(e)))
        return checks
    except InternalConsistencyError as e:
        checks.append(verdict("subcat-invariants", False, str(e)))
        return checks

    supports = [sum(1 << j for j in inv.support) for inv in invs]
    join_at = next(((a, atoms[k]) for a, row in enumerate(joins) for k, j in enumerate(row)
                    if supports[j] != supports[a] & supports[atoms[k]]), None)
    certified = join_at is None and len(set(supports)) == len(supports)
    antitone_at = None if certified else _antitone_witness(masks, supports)
    for law, at in (("join-cointegral", join_at), ("support-antitone", antitone_at)):
        detail = "" if at is None else f"failed at {tuple(subcats[x].members for x in at)}"
        checks.append(verdict(law, at is None, detail))

    try:
        grade = grading(alg)
        conj = alg.conjugacy()
        adj_support = set(invs[subcats.index(grade.adjoint)].support)
        size_one = {j for j in range(alg.rank) if conj.sizes[j] == 1}
        checks.append(verdict(
            "adjoint-support",
            adj_support == size_one,
            f"support {sorted(adj_support)}, size-one classes {sorted(size_one)}",
        ))
        if alg.data.s is not None:
            checks.append(verdict(
                "pointed-class-match",
                size_one == set(grade.pointed.members),
                f"pointed {list(grade.pointed.members)}",
            ))
        else:
            checks.append(Check("pointed-class-match", "skip", "needs an s-matrix"))
        checks.extend(prime_index_check(alg).checks)
    except InternalConsistencyError as e:  # from grading(), which prime_index_check reads too
        checks += [verdict(cid, False, str(e)) for cid in ("adjoint-support", "prime-index")]
    return checks
