"""Fusion subcategories: generation, enumeration, invariants, grading.

A fusion subcategory is recorded by the sorted index set of its simple
objects; the set always contains the unit and is closed under duals and
under taking constituents of tensor products.  Enumeration is the join
closure of the principal subcategories <i> (guarded at rank 16); closing all
2^(rank-1) index subsets is kept only as lattice_suite's independent oracle.

Every subcategory D owns a small bundle of invariants:

    dim D       sum of d_i d_{i*} over members,
    lambda_D    its cointegral, a class function supported on D,
    ell_D       its integral (dim C / dim D) sum_{i in D} E_i,
    support     the classes j with <F_j, ell_D> != 0, equivalently
                lambda_D = sum over the support of the F_j,
    index       dim C / dim D, also the counit of ell_D and the class
                sizes summed over the support.

The lattice laws tie these together: cointegrals multiply along joins,
integrals multiply along meets up to the dimension scalar, and the
support map is an inclusion-reversing bijection onto its image.

The universal grading comes from the adjoint subcategory (generated by all
i (x) i*): its components partition the simples and multiply like a finite
group.  For integral categories the index-p subcategories, p the smallest
prime dividing dim C, are exactly the preimages of index-p (automatically
normal) subgroups of that group, and all of them contain the adjoint; the
prime_index_check report exhibits the bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .category import Check, verdict
from .charalg import CentralElement, CharacterAlgebra, ClassFunction
from .cyclotomic import Cyclotomic, rational
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

ENUMERATION_RANK_LIMIT = 16


@dataclass(frozen=True)
class FusionSubcategory:
    """Sorted simple-object indices; unit-, dual- and fusion-closed."""

    members: tuple[int, ...]

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SubcatInvariants:
    subcat: FusionSubcategory
    dim: Cyclotomic
    index: Cyclotomic
    cointegral: ClassFunction
    integral: CentralElement
    support: tuple[int, ...]


@dataclass(frozen=True)
class Grading:
    adjoint: FusionSubcategory
    pointed: FusionSubcategory
    components: tuple[tuple[int, ...], ...]  # partition; component 0 holds the unit
    table: tuple[tuple[int, ...], ...]  # universal grading group


@dataclass(frozen=True)
class PrimeIndexReport:
    applicable: bool
    reason: str
    prime: int | None
    subcategories: tuple[FusionSubcategory, ...]  # index-p subcategories
    subgroups: tuple[tuple[int, ...], ...]  # index-p normal subgroups
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (subgroup, members)
    checks: tuple[Check, ...]


def _close(nonzero, dual, seed) -> tuple[int, ...]:
    """Smallest set holding 0 and seed, closed under dual and the products
    nonzero[a][b] = ((c, N_ab^c), ...).  One worklist pass: each new member is
    multiplied both ways with itself and the members taken before it."""
    seen = {0, *seed}
    todo = list(seen)
    members = []
    while todo:
        a = todo.pop()
        members.append(a)
        products = [(dual[a], 1)]
        for b in members:
            products += nonzero[a][b] + nonzero[b][a]
        for c, _ in products:
            if c not in seen:
                seen.add(c)
                todo.append(c)
    return tuple(sorted(members))


def _joins(atoms, close) -> set[tuple[int, ...]]:
    """Every join (close of the union) of one or more sets in atoms: each set
    found is joined with every atom, reaching a join of k atoms from k - 1."""
    found = set(atoms)
    todo = list(found)
    while todo:
        joined = todo.pop()
        for atom in atoms:
            j = close(joined + atom)
            if j not in found:
                found.add(j)
                todo.append(j)
    return found


def generate_subcat(alg: CharacterAlgebra, generators) -> FusionSubcategory:
    """Smallest fusion subcategory containing the given simple indices."""
    ring = alg.data.ring
    for i in generators:
        if not 0 <= i < alg.rank:
            raise KeyError(f"no simple object with index {i}")
    return FusionSubcategory(_close(ring.nonzero, ring.dual, generators))


def enumerate_subcats(alg: CharacterAlgebra) -> tuple[FusionSubcategory, ...]:
    """All fusion subcategories, sorted by (dimension, members).

    These are the joins of the principal subcategories <i> generated by one
    simple object.  Proof: for i in D, <i> lies in D, so the join J of the <i>
    over i in D lies in D; each i in D lies in <i>, so D lies in J.  So D = J.
    """
    if alg._subcats is not None:
        return alg._subcats
    rank = alg.rank
    if rank > ENUMERATION_RANK_LIMIT:
        raise CapabilityError(
            f"subcategory enumeration is exhaustive and limited to rank "
            f"{ENUMERATION_RANK_LIMIT}; this category has rank {rank}"
        )
    ring = alg.data.ring
    close = partial(_close, ring.nonzero, ring.dual)
    found = _joins({close((i,)) for i in range(rank)}, close)
    ordered = sorted(
        found, key=lambda m: (alg.subset_dim(m).embed().real, m)
    )
    alg._subcats = tuple(FusionSubcategory(m) for m in ordered)
    return alg._subcats


def subcat_invariants(alg: CharacterAlgebra, subcat: FusionSubcategory) -> SubcatInvariants:
    """Invariant bundle for one subcategory, exactly cross-checked."""
    cached = alg._subcat_cache.get(subcat.members)
    if cached is not None:
        return cached
    members = subcat.members
    dim_d = alg.subset_dim(members)
    index = alg.dim * dim_d.inv()
    lam = alg.cointegral(members)
    ell = alg.fourier_inv(lam)

    direct = [rational(0) for _ in range(alg.rank)]
    for i in members:
        direct[i] = index
    if ell != CentralElement(tuple(direct)):
        raise InternalConsistencyError(
            "integral of the subcategory disagrees with its closed form"
        )

    conj = alg.conjugacy()
    support = tuple(
        j
        for j in range(alg.rank)
        if not alg.pairing(conj.idempotents[j], ell).is_zero()
    )
    total = alg.cf_zero()
    for j in support:
        total = total + conj.idempotents[j]
    if total != lam:
        raise InternalConsistencyError(
            "cointegral is not the sum of the idempotents in its support"
        )
    size_sum = rational(0)
    for j in support:
        size_sum = size_sum + conj.sizes[j]
    if ell.coeffs[0] != index or size_sum != index:
        raise InternalConsistencyError(
            "index, counit of the integral and class sizes over the support disagree"
        )

    inv = SubcatInvariants(
        subcat=subcat,
        dim=dim_d,
        index=index,
        cointegral=lam,
        integral=ell,
        support=support,
    )
    alg._subcat_cache[subcat.members] = inv
    return inv


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
    alpha = alg.alpha()
    return tuple(
        j for j in range(alg.rank) if alpha.rows[i][j] == alg.dims[i]
    )


def grading(alg: CharacterAlgebra) -> Grading:
    if alg._grading is not None:
        return alg._grading
    ring = alg.data.ring
    nonzero = ring.nonzero
    rank = alg.rank
    seed = {k for i in range(rank) for k, _ in nonzero[i][ring.dual[i]]}
    adjoint = generate_subcat(alg, seed)

    assigned = {}
    components = []
    for j in range(rank):
        if j in assigned:
            continue
        comp = tuple(sorted({i for k in adjoint.members for i, _ in nonzero[k][j]}))
        if j not in comp or any(i in assigned for i in comp):
            raise InternalConsistencyError(
                "adjoint translates do not partition the simple objects"
            )
        idx = len(components)
        components.append(comp)
        for i in comp:
            assigned[i] = idx

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

    alg._grading = Grading(
        adjoint=adjoint,
        pointed=FusionSubcategory(pointed_members),
        components=tuple(components),
        table=table,
    )
    return alg._grading


def _smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _subgroups_of_index(table, p: int) -> list[tuple[int, ...]]:
    """Index-p normal subgroups of the group with this multiplication table
    (identity 0).  As for subcategories, the subgroups are the joins of the
    cyclic <g>, closed as in the fusion ring with N_ab^c = 1 iff c = ab."""
    order = len(table)
    if order % p:
        return []
    inv = [row.index(0) for row in table]
    nonzero = [[((c, 1),) for c in row] for row in table]
    close = partial(_close, nonzero, inv)
    subgroups = _joins({close((g,)) for g in range(order)}, close)
    return [
        sub
        for sub in sorted(subgroups)
        if len(sub) == order // p
        and all(table[g][table[h][inv[g]]] in sub for g in range(order) for h in sub)
    ]


def prime_index_check(alg: CharacterAlgebra) -> PrimeIndexReport:
    """For integral categories: index-p subcategories, p the smallest prime
    dividing dim C, against index-p normal subgroups of the grading group."""

    def na(reason):
        return PrimeIndexReport(
            applicable=False,
            reason=reason,
            prime=None,
            subcategories=(),
            subgroups=(),
            pairs=(),
            checks=(Check("prime-index", "skip", reason),),
        )

    if not alg.data.is_integral:
        return na("not applicable: category has non-integral dimensions")
    dim_c = int(alg.dim.rational_value)
    if dim_c <= 1:
        return na("not applicable: global dimension 1 has no prime factor")

    p = _smallest_prime_factor(dim_c)
    target = dim_c // p
    subcats = tuple(
        d
        for d in enumerate_subcats(alg)
        if alg.subset_dim(d.members) == target
    )

    grade = grading(alg)
    subgroups = tuple(_subgroups_of_index(grade.table, p))
    by_subgroup = []
    for sub in subgroups:
        members = []
        for g in sub:
            members.extend(grade.components[g])
        by_subgroup.append(tuple(sorted(members)))

    checks = []
    count_ok = len(subcats) == len(subgroups)
    checks.append(
        verdict(
            "prime-index-count",
            count_ok,
            f"{len(subcats)} index-{p} subcategories, "
            f"{len(subgroups)} index-{p} normal subgroups",
        )
    )
    bij_ok = sorted(by_subgroup) == sorted(d.members for d in subcats)
    checks.append(
        verdict(
            "prime-index-bijection",
            bij_ok,
            "subgroup preimages match the subcategories"
            if bij_ok
            else "subgroup preimages differ from the subcategories",
        )
    )
    adj_ok = all(set(grade.adjoint.members) <= set(d.members) for d in subcats)
    checks.append(
        verdict(
            "prime-index-adjoint",
            adj_ok,
            "every such subcategory contains the adjoint"
            if adj_ok
            else "an index-p subcategory misses the adjoint",
        )
    )

    pairs = tuple(zip(subgroups, by_subgroup))
    return PrimeIndexReport(
        applicable=True,
        reason=f"dim C = {dim_c}, smallest prime {p}",
        prime=p,
        subcategories=subcats,
        subgroups=subgroups,
        pairs=pairs,
        checks=tuple(checks),
    )


def lattice_suite(alg: CharacterAlgebra) -> list[Check]:
    """Exact lattice and grading laws over every pair of subcategories."""
    checks: list[Check] = []

    try:
        subcats = enumerate_subcats(alg)
    except CapabilityError as e:
        return [Check("enumeration", "skip", str(e))]

    # The independent oracle: close every subset of the non-unit objects.
    close = partial(_close, alg.data.ring.nonzero, alg.data.ring.dual)
    others = range(1, alg.rank)
    by_subsets = {
        close([i for b, i in enumerate(others) if mask >> b & 1])
        for mask in range(1 << len(others))
    }
    match = by_subsets == {d.members for d in subcats}
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
        invs = {d.members: subcat_invariants(alg, d) for d in subcats}
        checks.append(
            verdict("subcat-invariants", True, "closed forms and supports agree")
        )
    except CapabilityError as e:
        checks.append(Check("subcat-invariants", "skip", str(e)))
        return checks
    except InternalConsistencyError as e:
        checks.append(verdict("subcat-invariants", False, str(e)))
        return checks

    # Every law is checked over every pair; each keeps its own first witness.
    first = dict.fromkeys(
        ("join-cointegral", "meet-integral-scaling", "support-antitone")
    )
    for d in subcats:
        for e in subcats:
            di, ei = invs[d.members], invs[e.members]
            m = meet(alg, d, e)
            j = join(alg, d, e)
            mi, ji = invs[m.members], invs[j.members]
            pair = (d.members, e.members)
            if first["join-cointegral"] is None and (
                alg.cf_mul(di.cointegral, ei.cointegral) != ji.cointegral
            ):
                first["join-cointegral"] = pair
            if first["meet-integral-scaling"] is None and (
                alg.ce_mul(di.integral, ei.integral).scaled(di.dim * ei.dim)
                != mi.integral.scaled(mi.dim * alg.dim)
            ):
                first["meet-integral-scaling"] = pair
            if first["support-antitone"] is None and (
                (set(d.members) >= set(e.members))
                != (set(di.support) <= set(ei.support))
            ):
                first["support-antitone"] = pair
    for law, pair in first.items():
        checks.append(
            verdict(law, pair is None, "" if pair is None else f"failed at {pair}")
        )

    bad = [
        d.members
        for d in subcats
        if invs[d.members].integral.coeffs[0] != invs[d.members].index
    ]
    checks.append(
        verdict("index-support-sum", not bad, "" if not bad else f"failed at {bad}")
    )

    try:
        grade = grading(alg)
        conj = alg.conjugacy()
        adj_support = set(invs[grade.adjoint.members].support)
        size_one = {j for j in range(alg.rank) if conj.sizes[j] == 1}
        checks.append(verdict(
            "adjoint-support",
            adj_support == size_one,
            f"support {sorted(adj_support)}, size-one classes {sorted(size_one)}",
        ))
        if alg.data.modular is not None:
            checks.append(verdict(
                "pointed-class-match",
                size_one == set(grade.pointed.members),
                f"pointed {list(grade.pointed.members)}",
            ))
        else:
            checks.append(Check("pointed-class-match", "skip", "needs an s-matrix"))
    except InternalConsistencyError as e:
        checks.append(verdict("adjoint-support", False, str(e)))

    checks.extend(prime_index_check(alg).checks)
    return checks
