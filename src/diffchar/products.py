"""Ring structure on differential characters.

The internal product pairs a character with a character on the same complex;
the external product works on the staircase product of two complexes and is
the internal product of the two pullbacks.  A Kunneth splitting of product
cycles drives an evaluation formula for external products that never touches
the product character's lift, giving an independent cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from diffchar.exact_linalg import InvariantViolation, solve_integer
from diffchar.simplicial import (
    ProductComplex,
    TensorChain,
    alexander_whitney,
    eilenberg_zilber,
    staircase_product,
    tensor,
)
from diffchar.cochain import cup, pair, pullback as pullback_cochain
from diffchar.characters import (
    NotACycle,
    NotTorsion,
    _mod1,
    character,
    evaluate,
    pullback,
)


def internal_product(h, f):
    """Product character on a common complex.

    Curvature is the cup product of curvatures; the lift mixes the first
    lift with the second curvature and the first integral cocycle with the
    second lift.  The integral cocycle of the result is the cup product of
    the integral cocycles, on the nose.  The same formula covers degree <= 0
    factors: their lifts, and all their cochains below degree 0, are zero.
    """
    if h.complex != f.complex:
        raise ValueError("internal product needs characters on one complex")
    k = h.degree
    curv = cup(h.curvature, f.curvature)
    lift = cup(h.lift, f.curvature) + cup(h.mu, f.lift).scale(-1 if k % 2 else 1)
    return character(curv, lift)


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


class KunnethSplitting:
    """Chain-level splitting of cycles on a staircase product.

    The split map sends a cycle through the front/back decomposition and then
    projects both tensor legs onto cycles; the include map is the shuffle
    map.  Include-then-split is the identity on tensors of cycles, so
    splitting a cycle captures its class up to a torsion remainder.
    """

    def __init__(self, product):
        if not isinstance(product, ProductComplex):
            raise TypeError("KunnethSplitting needs a ProductComplex")
        self.product = product

    def _projected_terms(self, z):
        """One (coefficient, left cycle, right cycle) per front/back term."""
        left, right = self.product.left, self.product.right
        terms = []
        for (s, t), c in alexander_whitney(z).coeffs.items():
            ys, yt = _projected_simplex(left, s), _projected_simplex(right, t)
            if ys.is_zero() or yt.is_zero():
                continue
            terms.append((c, ys, yt))
        return terms

    def _tensor_of(self, terms):
        out = TensorChain(self.product.left, self.product.right, {})
        for c, ys, yt in terms:
            out = out + tensor(ys.scale(c), yt)
        return out

    def split(self, z):
        """Tensor of cycles: both legs of every front/back term projected."""
        return self._tensor_of(self._projected_terms(z))

    def include(self, tensor_chain):
        return eilenberg_zilber(tensor_chain, self.product)

    def decompose(self, z):
        """Split a product cycle into included tensor terms plus a filling.

        Returns a KunnethDecomposition with the elementary tensor terms of
        the split, the included projection, the remainder cycle, the order N
        of its class, and a chain filling N times the remainder.
        """
        if not z.is_cycle():
            raise NotACycle("Kunneth decomposition needs a cycle")
        terms = self._projected_terms(z)
        split = self._tensor_of(terms)
        if split.coeffs:
            projected = self.include(split)
        else:
            projected = self.product.chain(z.degree, {})
        remainder = z - projected
        m = z.degree
        order = self.product.homology(m).class_order(remainder.to_vector())
        if order == 0:
            raise NotTorsion("remainder class should always be torsion")
        scaled = [order * x for x in remainder.to_vector()]
        fill_vec = solve_integer(self.product.boundary_snf(m + 1), scaled)
        if fill_vec is None:
            raise InvariantViolation("a multiple of the torsion remainder must bound")
        filling = self.product.chain_from_vector(m + 1, fill_vec)
        return KunnethDecomposition(z, terms, projected, remainder, order, filling)


class KunnethDecomposition:
    __slots__ = ("cycle", "terms", "projected", "remainder", "order", "filling")

    def __init__(self, cycle, terms, projected, remainder, order, filling):
        self.cycle = cycle
        self.terms = terms
        self.projected = projected
        self.remainder = remainder
        self.order = order
        self.filling = filling


def kunneth_splitting(product):
    return KunnethSplitting(product)


def bb_evaluate(h, f, z, product=None, splitting=None):
    """External product evaluation that bypasses the product lift.

    Splits the cycle into shuffle images of tensors of cycles plus a torsion
    remainder.  Tensor terms evaluate through the factors alone; the
    remainder evaluates through a filling of a multiple, using only the
    product curvature and integral cocycle.
    """
    if product is None:
        product = z.complex
    if not isinstance(product, ProductComplex):
        raise TypeError("bb_evaluate needs a cycle on a ProductComplex")
    if product.left != h.complex or product.right != f.complex:
        raise ValueError("cycle does not live on the product of the factors")
    if z.degree != h.degree + f.degree - 1:
        raise ValueError("cycle degree does not match the product degree")
    if splitting is None:
        splitting = KunnethSplitting(product)
    dec = splitting.decompose(z)
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
