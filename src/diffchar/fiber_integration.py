"""Fiber integration of characters along staircase product projections.

Integration over a closed fiber chain lowers the degree by the fiber
dimension; at the critical degree the result degenerates to an integral
degree-0 class, below it to zero.  Fibers with boundary produce both an
absolute character integrated over the boundary and a relative character on
the cone of the identity whose covariant part integrates the curvature.
"""

from __future__ import annotations

from diffchar.simplicial import (
    ProductComplex,
    compose_maps,
    ez,
    fundamental_cycle,
    staircase_product,
    validate_fundamental_chain,
)
from diffchar.cochain import pullback as pullback_cochain, slant_fiber, zero_cochain
from diffchar.characters import NotClosed, _derived, iota, pullback
from diffchar.relative import cov_inverse


class EndpointMismatch(ValueError):
    """The prism map does not restrict to the claimed endpoint maps."""


class TransferData:
    """A staircase product together with the fiber chain to integrate over."""

    __slots__ = ("base", "fiber", "total", "fiber_chain")

    def __init__(self, total, fiber_chain):
        if not isinstance(total, ProductComplex):
            raise TypeError("transfer data needs a ProductComplex total space")
        if fiber_chain.complex != total.right:
            raise ValueError("fiber chain must live on the right factor")
        self.base = total.left
        self.fiber = total.right
        self.total = total
        self.fiber_chain = fiber_chain

    @property
    def fiber_degree(self):
        return self.fiber_chain.degree

    def boundary_transfer(self):
        return TransferData(self.total, self.fiber_chain.boundary())

    def __repr__(self):
        return f"TransferData(fiber deg {self.fiber_degree} on {self.total!r})"


def product_transfer(base, fiber, fiber_chain=None, total=None):
    """Transfer data for base x fiber; defaults to the fundamental chain."""
    if total is None:
        total = staircase_product(base, fiber)
    elif total.left != base or total.right != fiber:
        raise ValueError("total space factors do not match")
    if fiber_chain is None:
        fiber_chain = fundamental_cycle(fiber)
    return TransferData(total, fiber_chain)


def combined_transfer(left_transfer, right_transfer):
    """Transfer for the product of two product bundles, with its comparison.

    The product bundle has base (X x X') and fiber (F x F'); its fiber chain
    is the shuffle image of the two fiber chains.  The returned simplicial
    map re-brackets the four coordinates onto the product of the two total
    spaces, so characters there can be pulled back and integrated here.
    """
    base = staircase_product(left_transfer.base, right_transfer.base)
    fiber = staircase_product(left_transfer.fiber, right_transfer.fiber)
    total = staircase_product(base, fiber)
    chain = ez(left_transfer.fiber_chain, right_transfer.fiber_chain, fiber)
    target = staircase_product(left_transfer.total, right_transfer.total)

    def image(bb, ff):
        (x, x2), (f, f2) = base.decode(bb), fiber.decode(ff)
        return target.encode(left_transfer.total.encode(x, f), right_transfer.total.encode(x2, f2))

    return TransferData(total, chain), total._map_of(target, image)


def rebracket_map(flat_total, nested_total):
    """Isomorphism staircase(X, F1 x F2) -> staircase(X x F1, F2).

    Both complexes triangulate the triple product with the same vertex
    poset; the map re-encodes (x, (f1, f2)) as ((x, f1), f2).  Integrating
    a pullback along it over the shuffle image of the two fiber chains is
    the composite of the two single integrations; the test suite checks
    this functoriality statement.
    """
    X, FF = flat_total.left, flat_total.right
    XF1, F2 = nested_total.left, nested_total.right
    if XF1.left != X or XF1.right != FF.left or FF.right != F2:
        raise ValueError("the two totals do not bracket the same factors")

    def image(x, ff):
        f1, f2 = FF.decode(ff)
        return nested_total.encode(XF1.encode(x, f1), f2)

    return flat_total._map_of(nested_total, image)


def fiber_integrate(h, transfer):
    """Integrate a character on the total space over a closed fiber chain.

    Degree drops by the fiber degree; the critical case returns the
    degree-0 class of the integrated integral cocycle, lower cases zero.
    Characters of degree <= 0 fall into these two cases.  Over a closed
    fiber chain the slant commutes with the coboundary, so the result's
    integral cocycle is the slant of h's.
    """
    if h.complex != transfer.total:
        raise ValueError("character does not live on the total space")
    if not transfer.fiber_chain.is_cycle():
        raise NotClosed(
            "fiber chain has a boundary; use boundary_fiber_integrate"
        )
    cF, total = transfer.fiber_chain, transfer.total
    n = transfer.fiber_degree
    base = transfer.base
    k = h.degree
    if k > n:
        return _derived(*(slant_fiber(c, cF, total) for c in (h.curvature, h.lift, h.mu)))
    mu = slant_fiber(h.mu, cF, total) if k == n else zero_cochain(base, k - n)
    return _derived(mu, zero_cochain(base, k - n - 1), mu)


class BoundaryIntegration:
    """Both outputs of integrating over a fiber with boundary.

    `over_boundary` integrates over the boundary of the fiber chain;
    `relative` is the relative character on the cone of the identity of the
    base whose covariant part is `cov`, the signed curvature integral.  The
    projection of `relative` is iota(cov), matching `over_boundary`.
    """

    __slots__ = ("over_boundary", "cov", "relative")

    def __init__(self, over_boundary, cov, relative):
        self.over_boundary = over_boundary
        self.cov = cov
        self.relative = relative


def boundary_fiber_integrate(h, transfer):
    """Integrate over a fundamental fiber chain with boundary."""
    if h.complex != transfer.total:
        raise ValueError("character does not live on the total space")
    validate_fundamental_chain(transfer.fiber_chain)
    k = h.degree
    n = transfer.fiber_degree
    over_boundary = fiber_integrate(h, transfer.boundary_transfer())
    sign = -1 if (k - n) % 2 else 1
    cov = slant_fiber(h.curvature, transfer.fiber_chain, transfer.total).scale(sign)
    relative = cov_inverse(cov)
    return BoundaryIntegration(over_boundary, cov, relative)


def homotopy_defect(h, f0, f1, H):
    """Difference of the endpoint pullbacks minus the curvature transgression.

    H is a map on a staircase product of the source with an interval-like
    complex; f0 and f1 must equal H composed with the inclusions at the two
    boundary vertices of the interval's fundamental chain.  The result is a
    character on the source; the defect formula says it is always zero,
    which the test suite checks rather than assumes.
    """
    prism = H.source
    if not isinstance(prism, ProductComplex):
        raise TypeError("homotopy must be defined on a staircase product")
    interval_chain = fundamental_cycle(prism.right)
    if interval_chain.degree != 1:
        raise ValueError("interval chain must have degree 1")
    ends = interval_chain.boundary()
    plus = [v for (v,), c in ends.coeffs.items() if c == 1]
    minus = [v for (v,), c in ends.coeffs.items() if c == -1]
    if len(plus) != 1 or len(minus) != 1 or len(ends.coeffs) != 2:
        raise ValueError("interval chain must have exactly two endpoints")
    j0 = prism.include_at_right(minus[0])
    j1 = prism.include_at_right(plus[0])
    if compose_maps(H, j0) != f0:
        raise EndpointMismatch("H restricted to the start is not f0")
    if compose_maps(H, j1) != f1:
        raise EndpointMismatch("H restricted to the end is not f1")
    k = h.degree
    transgression = slant_fiber(pullback_cochain(H, h.curvature), interval_chain)
    eps = -1 if (k - 1) % 2 else 1
    return pullback(f1, h) - pullback(f0, h) - iota(transgression.scale(eps))
