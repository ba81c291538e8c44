"""Ring structure on differential characters.

The internal product pairs a character with a character on the same complex;
the external product works on the staircase product of two complexes and is
the internal product of the two pullbacks.  A Kunneth splitting of product
cycles (kunneth_split, kunneth_decompose) drives an evaluation formula for
external products that never touches the product character's lift, giving an
independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from diffchar.exact_linalg import InvariantViolation
from diffchar.simplicial import (
    ProductComplex,
    TensorChain,
    alexander_whitney,
    eilenberg_zilber,
    staircase_product,
)
from diffchar.cochain import coboundary, cup, pair, pullback as pullback_cochain
from diffchar.characters import NotACycle, _derived, _mod1, evaluate, pullback, torsion_filling


def internal_product(h, f):
    """Product character on a common complex.

    Curvature is the cup product of curvatures; the lift mixes the first
    lift with the second curvature and the first integral cocycle with the
    second lift.  The integral cocycle of the result is the cup product of
    the integral cocycles, on the nose; it is computed here as
    curvature - d(lift) all the same, so that checks comparing it with the
    cup of the factors' cocycles compare two computations.  The same formula
    covers degree <= 0 factors: their lifts, and all their cochains below
    degree 0, are zero.
    """
    if h.complex != f.complex:
        raise ValueError("internal product needs characters on one complex")
    k = h.degree
    curv = cup(h.curvature, f.curvature)
    lift = cup(h.lift, f.curvature) + cup(h.mu, f.lift).scale(-1 if k % 2 else 1)
    mu = curv - coboundary(lift)
    if not mu.is_integer_valued():
        raise InvariantViolation("the product's curvature - d(lift) must be integral")
    return _derived(curv, lift, mu)


def external_product(h, f, product=None):
    """Product character on the staircase product of the two complexes."""
    if product is None:
        product = staircase_product(h.complex, f.complex)
    else:
        if product.left != h.complex or product.right != f.complex:
            raise ValueError("given product has the wrong factors")
    p = product.projection_left()
    q = product.projection_right()
    return internal_product(pullback(p, h), pullback(q, f))


def _projected_simplex(K, s):
    """The projection onto cycles of the elementary chain on simplex s."""
    n = len(s) - 1
    split = K.splitting(n)
    e = [0] * len(K.simplices(n))
    e[K.index_of(s)] = 1
    return K.chain_from_vector(n, split.combine(split.coordinates(e)))


def _projected_terms(z):
    """One (coefficient, left cycle, right cycle) per front/back term of z."""
    P = z.complex
    terms = []
    for (s, t), c in alexander_whitney(z).coeffs.items():
        ys, yt = _projected_simplex(P.left, s), _projected_simplex(P.right, t)
        if not (ys.is_zero() or yt.is_zero()):
            terms.append((c, ys, yt))
    return terms


def _tensor_of(P, terms):
    """The sum of c * (left cycle) x (right cycle) over the terms, in one dict."""
    coeffs = {}
    for c, ys, yt in terms:
        for s, a in ys.coeffs.items():
            for t, b in yt.coeffs.items():
                coeffs[(s, t)] = coeffs.get((s, t), 0) + c * a * b
    return TensorChain._of(P.left, P.right, coeffs)


def kunneth_split(z):
    """Chain-level Kunneth splitting of a cycle on a staircase product.

    Sends the cycle through the front/back decomposition and projects both
    tensor legs onto cycles.  The include map is eilenberg_zilber, and
    include-then-split is the identity on tensors of cycles, so splitting a
    cycle captures its class up to a torsion remainder.
    """
    return _tensor_of(z.complex, _projected_terms(z))


def kunneth_decompose(z):
    """Split a product cycle into included tensor terms plus a filling.

    Returns a KunnethDecomposition with the elementary tensor terms of the
    split, the included projection, the remainder cycle, the order N of its
    class, and a chain filling N times the remainder.
    """
    if not z.is_cycle():
        raise NotACycle("Kunneth decomposition needs a cycle")
    P = z.complex
    m = z.degree
    terms = _projected_terms(z)
    split = _tensor_of(P, terms)
    projected = eilenberg_zilber(split, P) if split.coeffs else P.chain(m, {})
    remainder = z - projected
    order, filling = torsion_filling(remainder)
    if order == 0:
        raise InvariantViolation("remainder class should always be torsion")
    return KunnethDecomposition(terms, projected, remainder, order, filling)


class KunnethDecomposition:
    __slots__ = ("terms", "projected", "remainder", "order", "filling")

    def __init__(self, terms, projected, remainder, order, filling):
        self.terms = terms
        self.projected = projected
        self.remainder = remainder
        self.order = order
        self.filling = filling


def bb_evaluate(h, f, z, product=None):
    """External product evaluation that bypasses the product lift.

    Splits the cycle into shuffle images of tensors of cycles plus a torsion
    remainder.  Tensor terms evaluate through the factors alone; the
    remainder evaluates through a filling of a multiple, using only the
    product curvature and integral cocycle.  `product`, when given, must be
    the cycle's own complex.
    """
    if product is None:
        product = z.complex
    elif z.complex != product:
        raise ValueError("cycle does not live on the given product")
    if not isinstance(product, ProductComplex):
        raise TypeError("bb_evaluate needs a cycle on a ProductComplex")
    if product.left != h.complex or product.right != f.complex:
        raise ValueError("cycle does not live on the product of the factors")
    if z.degree != h.degree + f.degree - 1:
        raise ValueError("cycle degree does not match the product degree")
    dec = kunneth_decompose(z)
    k, l = h.degree, f.degree
    total = Fraction(0)
    for c, y_left, y_right in dec.terms:
        p, q = y_left.degree, y_right.degree
        if (p, q) == (k - 1, l):
            weight = pair(f.mu, y_right)
            if weight:
                total += c * weight * evaluate(h, y_left)
        elif (p, q) == (k, l - 1):
            weight = pair(h.mu, y_left)
            if weight:
                sign = -1 if k % 2 else 1
                total += c * sign * weight * evaluate(f, y_right)
    pl = product.projection_left()
    pr = product.projection_right()
    curv = cup(pullback_cochain(pl, h.curvature), pullback_cochain(pr, f.curvature))
    mu = cup(pullback_cochain(pl, h.mu), pullback_cochain(pr, f.mu))
    total += Fraction(pair(curv, dec.filling) - pair(mu, dec.filling), dec.order)
    return _mod1(total)
