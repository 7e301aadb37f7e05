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
matmul and both routes are int masks; centralizer and verify_main_identity
run the same code on one subcategory.
"""

from __future__ import annotations

from .category import Check, _Frozen, verdict
from .charalg import CentralElement, CharacterAlgebra, _products
from .cyclotomic import _chunks, euler_phi
from .errors import CapabilityError, InternalConsistencyError, NotRibbonConsistentError
from .lattice import (
    FusionSubcategory, _close, _invariants, _ring_masks, enumerate_subcats, subcat_invariants,
)

__all__ = [
    "CentralizerResult",
    "centralizer_smatrix",
    "centralizer_theorem",
    "centralizer",
    "verify_main_identity",
    "centralizer_suite",
]


class CentralizerResult(_Frozen):
    __slots__ = ("subcat", "smatrix_route", "transform_route", "image")

    def __init__(self, subcat: FusionSubcategory, smatrix_route: FusionSubcategory,
                 transform_route: FusionSubcategory, image: CentralElement):
        object.__setattr__(self, "subcat", subcat)
        object.__setattr__(self, "smatrix_route", smatrix_route)
        object.__setattr__(self, "transform_route", transform_route)
        object.__setattr__(self, "image", image)  # drinfeld(lambda_D)

    @property
    def agreed(self) -> bool:
        return self.smatrix_route.members == self.transform_route.members

    @property
    def members(self) -> tuple[int, ...]:
        return self.smatrix_route.members


def _route(alg: CharacterAlgebra, members: tuple[int, ...], what: str) -> FusionSubcategory:
    mask = sum(1 << i for i in members)
    if _close(_ring_masks(alg), 1, mask) != mask:
        raise NotRibbonConsistentError(f"{what} is not fusion-closed")
    return FusionSubcategory(members)


def centralizer_smatrix(
    alg: CharacterAlgebra, subcat: FusionSubcategory
) -> FusionSubcategory:
    """Objects whose s-matrix pairing with all of D degenerates to d_i d_j."""
    return _route(alg, alg.s_centralizer(subcat.members), "s-matrix centralizer")


def centralizer_theorem(alg: CharacterAlgebra, subcat: FusionSubcategory, image=None):
    """Centralizer via the Drinfeld image of the cointegral, read off its
    flat numerators; returns the subcategory and the idempotent image
    drinfeld(lambda_D), computed when not given."""
    if image is None:
        image = alg.drinfeld(alg.cointegral(subcat.members))
    chunks = _chunks(image.nums, euler_phi(image.n))
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
    return _route(alg, tuple(support), "support of the transformed cointegral"), image


def _results(alg: CharacterAlgebra, subcats) -> list:
    """Per subcategory D, its CentralizerResult or the NotRibbonConsistentError
    a route raises; drinfeld(lambda_D) for every D is one matmul."""
    columns = alg._drinfeld_columns  # CapabilityError first without an s-matrix
    lams = [inv.cointegral for inv in _invariants(alg, subcats)]
    results = []
    for d, image in zip(subcats, _products(CentralElement, lams, columns)):
        try:
            by_s = centralizer_smatrix(alg, d)
            results.append(CentralizerResult(d, by_s, *centralizer_theorem(alg, d, image)))
        except NotRibbonConsistentError as e:
            results.append(e)
    return results


def centralizer(alg: CharacterAlgebra, subcat: FusionSubcategory) -> CentralizerResult:
    result = _results(alg, [subcat])[0]
    if isinstance(result, NotRibbonConsistentError):
        raise result
    return result


def verify_main_identity(
    alg: CharacterAlgebra, subcat: FusionSubcategory, result=None
) -> list[Check]:
    """All exact centralizer laws for one subcategory, from its entry of
    _results (computed when not given)."""
    result = result or _results(alg, [subcat])[0]
    if isinstance(result, NotRibbonConsistentError):
        return [verdict("centralizer-route-agreement", False, str(result))]

    checks = [verdict(
        "centralizer-route-agreement",
        result.agreed,
        f"D' = {list(result.members)}"
        if result.agreed
        else f"s-route {list(result.smatrix_route.members)} != "
        f"transform route {list(result.transform_route.members)}",
    )]
    prime = result.transform_route
    prime_inv = subcat_invariants(alg, prime)

    lhs = alg.fourier(result.image)
    rhs = prime_inv.cointegral.scaled(prime_inv.dim * alg.dim_inv)
    checks.append(verdict(
        "main-identity",
        lhs == rhs,
        "fourier(drinfeld(lambda_D)) = (dim D'/dim C) lambda_D'",
    ))

    checks.append(verdict(
        "integral-transfer",
        prime_inv.integral == result.image.scaled(prime_inv.index),
        "ell_D' = (dim C/dim D') drinfeld(lambda_D)",
    ))

    # centralizer_theorem lets only a 0/1 image through, and c^2 = c on {0, 1}
    checks.append(verdict("centralizer-idempotent", True))

    checks.append(verdict(
        "centralizer-support",
        prime_inv.support == subcat.members,
        f"support(D') = {list(prime_inv.support)}, members(D) = {list(subcat.members)}",
    ))

    double = centralizer_smatrix(alg, prime)
    checks.append(verdict(
        "double-centralizer",
        double.members == subcat.members,
        f"(D')' = {list(double.members)}",
    ))

    d_inv, show = subcat_invariants(alg, subcat), alg.data.show
    checks.append(verdict(
        "dim-product",
        d_inv.dim * prime_inv.dim == alg.dim,
        f"dim D = {show(d_inv.dim)}, dim D' = {show(prime_inv.dim)}",
    ))

    return checks


_LAWS = (
    "centralizer-route-agreement",
    "main-identity",
    "integral-transfer",
    "centralizer-idempotent",
    "centralizer-support",
    "double-centralizer",
    "dim-product",
)


def centralizer_suite(alg: CharacterAlgebra) -> list[Check]:
    """Centralizer laws over every fusion subcategory, folded per law."""
    if alg.data.modular is None:
        return [Check(cid, "skip", "needs an s-matrix") for cid in _LAWS]
    try:
        subcats = enumerate_subcats(alg)
        results = _results(alg, subcats)
    except CapabilityError as e:
        return [Check(cid, "skip", str(e)) for cid in _LAWS]
    except InternalConsistencyError as e:
        return [verdict(cid, False, str(e)) for cid in _LAWS]

    merged: dict[str, Check] = {}
    for d, result in zip(subcats, results):
        for c in verify_main_identity(alg, d, result):
            prev = merged.get(c.check_id)
            if prev is None or (prev.status != "fail" and c.status == "fail"):
                detail = ""
                if c.status == "fail":
                    detail = f"D = {list(d.members)}: {c.detail}"
                merged[c.check_id] = Check(c.check_id, c.status, detail)
    return [
        Check(c.check_id, c.status, c.detail or f"all {len(subcats)} subcategories")
        for c in merged.values()
    ]
