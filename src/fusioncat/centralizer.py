"""Centralizers of fusion subcategories in a modular category, two ways.

Route one reads the centralizer straight off the s-matrix:

    D' = { j : s_ij = d_i d_j for every i in D }.

Route two runs the cointegral of D through the Drinfeld map.  The image
drinfeld(lambda_D) must come out as a sum of distinct primitive idempotents,
i.e. its coefficient vector lies in {0, 1}^rank; the support is exactly D'.
Both routes are computed independently and compared, and the transform
route is tied back to class-function land by the main identity

    fourier(drinfeld(lambda_D)) = (dim D' / dim C) * lambda_{D'}

together with its companions: the integral transfer
ell_{D'} = (dim C / dim D') drinfeld(lambda_D), the support law
support(D') = members(D), the duality (D')' = D and dim D * dim D' = dim C.

centralizer_suite is one pass: drinfeld(lambda_D) for every D is one
matmul, both routes are int masks looked up among the closed masks of the
lattice record, and _laws decides each law over the lattice at once;
centralizer and verify_main_identity run the same code on one subcategory,
with one closure per route.
"""

from __future__ import annotations

from .category import Check, verdict
from .charalg import CentralElement, CharacterAlgebra, _first_pair
from .cyclotomic import _chunks, _Frozen, _mul, _products, _stacked, _Vector, euler_phi
from .errors import CapabilityError, InternalConsistencyError, NotRibbonConsistentError
from .lattice import FusionSubcategory, _invariants, _is_closed, enumerate_subcats

__all__ = [
    "CentralizerResult",
    "centralizer_smatrix",
    "centralizer_theorem",
    "centralizer",
    "verify_main_identity",
    "centralizer_suite",
]


class CentralizerResult(_Frozen):
    # image is drinfeld(lambda_D)
    __slots__ = ("subcat", "smatrix_route", "transform_route", "image")

    @property
    def agreed(self) -> bool:
        return self.smatrix_route.members == self.transform_route.members

    @property
    def members(self) -> tuple[int, ...]:
        return self.smatrix_route.members


def _route(alg: CharacterAlgebra, members: tuple[int, ...], what: str) -> FusionSubcategory:
    if not _is_closed(alg, sum(1 << i for i in members)):
        raise NotRibbonConsistentError(f"{what} is not fusion-closed")
    return FusionSubcategory(members)


def centralizer_smatrix(alg: CharacterAlgebra, subcat: FusionSubcategory) -> FusionSubcategory:
    """Objects whose s-matrix pairing with all of D degenerates to d_i d_j."""
    return _route(alg, alg.s_centralizer(subcat.members), "s-matrix centralizer")


def centralizer_theorem(alg: CharacterAlgebra, subcat: FusionSubcategory):
    """Centralizer via the Drinfeld image of the cointegral: the subcategory
    and the idempotent image drinfeld(lambda_D), computed from D alone."""
    image = alg.drinfeld(alg.cointegral(subcat.members))
    return _transform_route(alg, image), image


def _transform_route(alg: CharacterAlgebra, image) -> FusionSubcategory:
    """D' read off the 0/1 flat numerators of image = drinfeld(lambda_D)."""
    chunks = _chunks(image.nums, euler_phi(image.conductor))
    one, support = (image.den,) + (0,) * (len(chunks[0]) - 1), []
    for j, x in enumerate(chunks):
        if x == one:
            support.append(j)
        elif any(x):
            raise NotRibbonConsistentError(
                f"transform of the cointegral has coefficient "
                f"{alg.data.show(image.coeffs[j])} at {j}; "
                "expected a 0/1 vector"
            )
    return _route(alg, tuple(support), "support of the transformed cointegral")


def _results(alg: CharacterAlgebra, subcats) -> list:
    """Per subcategory D, its CentralizerResult or the NotRibbonConsistentError
    a route raises; drinfeld(lambda_D) for every D is one matmul."""
    columns = alg._drinfeld_columns  # CapabilityError first without an s-matrix
    lams = [inv.cointegral for inv in _invariants(alg, subcats)]
    results = []
    for d, image in zip(subcats, _products(CentralElement, lams, columns)):
        try:
            by_s = centralizer_smatrix(alg, d)
            results.append(CentralizerResult(d, by_s, _transform_route(alg, image), image))
        except NotRibbonConsistentError as e:
            e.image = image  # centralizer-idempotent reads every D's image
            results.append(e)
    return results


def centralizer(alg: CharacterAlgebra, subcat: FusionSubcategory) -> CentralizerResult:
    result = _results(alg, [subcat])[0]
    if isinstance(result, NotRibbonConsistentError):
        raise result
    return result


def verify_main_identity(alg: CharacterAlgebra, subcat: FusionSubcategory) -> list[Check]:
    """All exact centralizer laws for one subcategory, from _results on it."""
    laws = _laws(alg, [subcat], _results(alg, [subcat]))
    return [verdict(law, at is None, detail(0)) for law, at, detail in laws]


_LAWS = (
    "centralizer-route-agreement",
    "main-identity",
    "integral-transfer",
    "centralizer-idempotent",
    "centralizer-support",
    "double-centralizer",
    "dim-product",
)


def _laws(alg: CharacterAlgebra, subcats, results) -> list:
    """(law, at, detail) per law of _LAWS that applies: at is the first index
    of subcats where the law fails, None where it holds for all, and
    detail(x) its detail at index x.  One pass over the lattice per law.
    Route agreement fails where a route raised; the other laws apply only
    when some D's routes both returned, idempotence on every D's image and
    the rest where both routes returned.  D'' is read from the row of D' in
    results, or taken by the s-matrix route when D' has none; where that
    route raises, double-centralizer fails with its message."""
    ok = [x for x, r in enumerate(results) if isinstance(r, CentralizerResult)]

    def agreement(x):
        r = results[x]
        if not isinstance(r, CentralizerResult):
            return str(r)
        if r.agreed:
            return f"D' = {list(r.members)}"
        return (f"s-route {list(r.smatrix_route.members)} != "
                f"transform route {list(r.transform_route.members)}")

    laws = [("centralizer-route-agreement", next((
        x for x, r in enumerate(results) if not (isinstance(r, CentralizerResult) and r.agreed)
    ), None), agreement)]
    if not ok:
        return laws
    primes = dict(zip(ok, _invariants(alg, [results[x].transform_route for x in ok])))
    invs, rows, doubles = _invariants(alg, subcats), dict(zip(subcats, results)), {}
    for x in ok:  # (members of D'', None) or (None, the route's error)
        prime = results[x].transform_route
        row = rows.get(prime)
        try:
            double = (row.smatrix_route if isinstance(row, CentralizerResult)
                      else centralizer_smatrix(alg, prime)).members
            doubles[x] = double, None
        except NotRibbonConsistentError as e:
            doubles[x] = None, str(e)

    def first(holds):
        return next((x for x in ok if not holds(x)), None)

    def first_block(xs, ys, f=lambda v: v):
        # the first x in ok where f(xs[x]) != ys[x]: f maps a stack block by
        # block, so it runs once, and one comparison of flat rows decides all
        bad = _first_pair([f(_stacked(_Vector, xs))], [_stacked(_Vector, ys)])
        return None if bad is None else ok[bad[1] // alg.rank]

    show, images = alg.data.show, [results[x].image for x in ok]
    stack = _stacked(_Vector, [r.image for r in results])
    bad = _first_pair([_mul(_Vector, stack, stack)], [stack])  # c^2 = c exactly on {0, 1}
    at, j = divmod(bad[1], alg.rank) if bad else (None, None)
    return laws + [
        ("main-identity", first_block(images, [
            primes[x].cointegral.scaled(primes[x].dim * alg.dim_inv) for x in ok], alg.fourier),
         lambda x: "fourier(drinfeld(lambda_D)) = (dim D'/dim C) lambda_D'"),
        ("integral-transfer", first_block([primes[x].integral for x in ok], [
            image.scaled(primes[x].index) for x, image in zip(ok, images)]),
         lambda x: "ell_D' = (dim C/dim D') drinfeld(lambda_D)"),
        ("centralizer-idempotent", at, lambda x: "" if at is None else
         f"drinfeld(lambda_D) has coefficient {show(results[x].image.coeffs[j])} at {j}"),
        ("centralizer-support", first(lambda x: primes[x].support == subcats[x].members),
         lambda x: f"support(D') = {list(primes[x].support)}, "
                   f"members(D) = {list(subcats[x].members)}"),
        ("double-centralizer", first(lambda x: doubles[x][0] == subcats[x].members),
         lambda x: doubles[x][1] or f"(D')' = {list(doubles[x][0])}"),
        ("dim-product", first(lambda x: invs[x].dim * primes[x].dim == alg.dim),
         lambda x: f"dim D = {show(invs[x].dim)}, dim D' = {show(primes[x].dim)}"),
    ]


def centralizer_suite(alg: CharacterAlgebra) -> list[Check]:
    """Centralizer laws over every fusion subcategory, each decided in one
    pass; a failing law names its first subcategory."""
    if alg.data.s is None:
        return [Check(cid, "skip", "needs an s-matrix") for cid in _LAWS]
    try:
        subcats = enumerate_subcats(alg)
        results = _results(alg, subcats)
    except CapabilityError as e:
        return [Check(cid, "skip", str(e)) for cid in _LAWS]
    except InternalConsistencyError as e:
        return [verdict(cid, False, str(e)) for cid in _LAWS]
    return [
        Check(law, "pass", f"all {len(subcats)} subcategories") if at is None
        else Check(law, "fail", f"D = {list(subcats[at].members)}: {detail(at)}")
        for law, at, detail in _laws(alg, subcats, results)
    ]
