"""Fusion subcategories: generation, enumeration, invariants, grading.

A fusion subcategory is recorded by the sorted index set of its simple
objects; the set always contains the unit and is closed under duals and
under taking constituents of tensor products.  Enumeration is exhaustive
closure of all index subsets, which is exact and cheap at the ranks this
package targets (guarded at rank 16).

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


def _close(fusion, dual, seed) -> tuple[int, ...]:
    members = set(seed)
    members.add(0)
    while True:
        new = {dual[i] for i in members}
        for i in members:
            for j in members:
                row = fusion[i][j]
                new.update(k for k, n in enumerate(row) if n)
        if new <= members:
            return tuple(sorted(members))
        members |= new


def generate_subcat(alg: CharacterAlgebra, generators) -> FusionSubcategory:
    """Smallest fusion subcategory containing the given simple indices."""
    ring = alg.data.ring
    for i in generators:
        if not 0 <= i < alg.rank:
            raise KeyError(f"no simple object with index {i}")
    return FusionSubcategory(_close(ring.fusion, ring.dual, generators))


def enumerate_subcats(alg: CharacterAlgebra) -> tuple[FusionSubcategory, ...]:
    """All fusion subcategories, sorted by (dimension, members)."""
    if alg._subcats is not None:
        return alg._subcats
    rank = alg.rank
    if rank > ENUMERATION_RANK_LIMIT:
        raise CapabilityError(
            f"subcategory enumeration is exhaustive and limited to rank "
            f"{ENUMERATION_RANK_LIMIT}; this category has rank {rank}"
        )
    ring = alg.data.ring
    found = set()
    others = [i for i in range(rank) if i != 0]
    for mask in range(1 << len(others)):
        seed = [others[b] for b in range(len(others)) if mask >> b & 1]
        found.add(_close(ring.fusion, ring.dual, seed))
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
    rank = alg.rank
    seed = set()
    for i in range(rank):
        row = ring.fusion[i][ring.dual[i]]
        seed.update(k for k, n in enumerate(row) if n)
    adjoint = generate_subcat(alg, seed)

    assigned = {}
    components = []
    for j in range(rank):
        if j in assigned:
            continue
        comp = set()
        for k in adjoint.members:
            comp.update(i for i, n in enumerate(ring.fusion[k][j]) if n)
        comp = tuple(sorted(comp))
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
            targets = set()
            for i in comp_p:
                for j in comp_q:
                    targets.update(
                        assigned[k] for k, n in enumerate(ring.fusion[i][j]) if n
                    )
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
    """Index-p subgroups of the group given by its multiplication table,
    by exhaustive closure (the group order here is tiny)."""
    order = len(table)
    if order % p:
        return []
    target = order // p
    inverse = [row.index(0) for row in table]
    found = set()
    elements = list(range(1, order))
    for mask in range(1 << len(elements)):
        seed = {0} | {elements[b] for b in range(len(elements)) if mask >> b & 1}
        if len(seed) > target:
            continue
        closed = set(seed)
        while True:
            new = {inverse[a] for a in closed}
            new |= {table[a][b] for a in closed for b in closed}
            if new <= closed:
                break
            closed |= new
        if len(closed) == target:
            found.add(tuple(sorted(closed)))
    normal = []
    for sub in sorted(found):
        ok = all(
            table[g][table[h][inverse[g]]] in sub for g in range(order) for h in sub
        )
        if ok:
            normal.append(sub)
    return normal


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
    dim_c = int(alg.dim.coeffs[0])
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

    by_singletons = {generate_subcat(alg, [i]).members for i in range(alg.rank)}
    while True:
        new = {
            join(alg, FusionSubcategory(a), FusionSubcategory(b)).members
            for a in by_singletons
            for b in by_singletons
        }
        if new <= by_singletons:
            break
        by_singletons |= new
    by_subsets = {d.members for d in subcats}
    checks.append(verdict(
        "enumeration-generator-match",
        by_singletons == by_subsets,
        f"{len(by_subsets)} subcategories",
    ))

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
