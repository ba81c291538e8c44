"""Values the library derives from checked ones pass the checks they skip.

Chains and cochains built by library operations skip the constructor's
check, and characters derived from checked characters carry their integral
cocycle mu instead of recomputing it.  These properties rebuild each such
value through the public, checking constructor and compare, on random flag
complexes, monotone maps and a circle-fiber product transfer.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from diffchar import fixtures
from diffchar.characters import character, from_curvature, pullback, random_character
from diffchar.cochain import (
    Cochain,
    coboundary,
    cup,
    cup_1,
    is_closed,
    pullback as pullback_cochain,
    slant_fiber,
    zero_cochain,
)
from diffchar.fiber_integration import fiber_integrate, product_transfer
from diffchar.products import internal_product
from diffchar.simplicial import (
    Chain,
    TensorChain,
    alexander_whitney,
    ez,
    fundamental_cycle,
    staircase_product,
    tensor,
)
from test_cochain import monotone_maps
from test_exact_linalg import flag_complexes


def _rng(data):
    return random.Random(data.draw(st.integers(0, 2**32 - 1)))


def _check_cochain(c):
    assert all(x != 0 for x in c.coeffs.values())
    assert all(type(x) is Fraction for x in c.coeffs.values())
    assert Cochain(c.complex, c.degree, c.coeffs) == c


def _check_chain(z):
    assert all(type(c) is int and c != 0 for c in z.coeffs.values())
    if isinstance(z, TensorChain):
        assert TensorChain(z.left, z.right, z.coeffs) == z
    else:
        assert Chain(z.complex, z.degree, z.coeffs) == z


def _check_character(h):
    for c in (h.curvature, h.lift, h.mu):
        _check_cochain(c)
    assert h.mu == h.curvature - coboundary(h.lift)
    assert h.mu.is_integer_valued()
    assert is_closed(h.curvature)
    rebuilt = character(h.curvature, h.lift)
    assert type(rebuilt) is type(h)
    assert rebuilt == h
    assert rebuilt.mu == h.mu


def _draw_character(data, K, rng):
    return random_character(K, data.draw(st.integers(1, K.dim + 1)), rng)


@settings(max_examples=40, deadline=None)
@given(flag_complexes(max_vertices=6), st.data())
def test_group_operations_carry_mu(K, data):
    rng = _rng(data)
    h = _draw_character(data, K, rng)
    f = random_character(K, h.degree, rng)
    n = data.draw(st.integers(-3, 3))
    for out in (h, h + f, h - f, -h, h.scale(n), from_curvature(h.curvature)):
        _check_character(out)


@settings(max_examples=40, deadline=None)
@given(flag_complexes(max_vertices=5), st.data())
def test_internal_products_carry_mu(K, data):
    rng = _rng(data)
    h, f = _draw_character(data, K, rng), _draw_character(data, K, rng)
    _check_character(internal_product(h, f))


@settings(max_examples=40, deadline=None)
@given(monotone_maps(), st.data())
def test_pullbacks_carry_mu(phi, data):
    h = _draw_character(data, phi.target, _rng(data))
    _check_character(pullback(phi, h))


@settings(max_examples=15, deadline=None)
@given(flag_complexes(max_vertices=4), st.data())
def test_fiber_integration_over_the_circle_carries_mu(K, data):
    tr = product_transfer(K, fixtures.circle())
    h = random_character(tr.total, data.draw(st.integers(1, 3)), _rng(data))
    _check_character(fiber_integrate(h, tr))


@settings(max_examples=40, deadline=None)
@given(monotone_maps(), st.data())
def test_library_chains_and_cochains_match_their_checked_rebuilds(phi, data):
    K = phi.target
    rng = _rng(data)
    p = data.draw(st.integers(0, K.dim))
    q = data.draw(st.integers(0, K.dim - p))
    a, a2 = random_character(K, p + 1, rng).lift, random_character(K, p + 1, rng).lift
    b = random_character(K, q + 1, rng).lift
    ints = [rng.randint(-3, 3) for _ in K.simplices(p)]
    n = data.draw(st.integers(-3, 3))
    for c in (a + a2, a - a, -a, a.scale(Fraction(n, 2)), coboundary(a), cup(a, b),
              cup_1(a, b), pullback_cochain(phi, a), zero_cochain(K, p),
              Cochain.from_vector(K, p, ints)):
        _check_cochain(c)
    z = phi.source.chain_from_vector(p, [rng.randint(-3, 3) for _ in phi.source.simplices(p)])
    y = K.chain_from_vector(q, [rng.randint(-3, 3) for _ in K.simplices(q)])
    w = K.chain_from_vector(p, ints)
    for c in (z, z.boundary(), phi.push_chain(z), w + w.scale(n), -w, w - w,
              tensor(w, y), tensor(w, y).boundary()):
        _check_chain(c)
    S1 = fixtures.circle()
    P = staircase_product(K, S1)
    cF = fundamental_cycle(S1)
    for c in (cF, ez(w, cF, P), alexander_whitney(ez(w, cF, P))):
        _check_chain(c)
    big = random_character(P, p + 2, rng).lift
    _check_cochain(slant_fiber(big, cF))
