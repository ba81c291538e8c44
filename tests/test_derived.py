"""Values the library derives from checked ones pass the checks they skip.

Chains and cochains built by library operations skip the constructor's
check, characters and relative characters derived from checked ones carry
their integral cocycles instead of recomputing them, and the maps the
library builds from valid data skip the image check.  These properties
rebuild each such value through the public, checking constructor and
compare, on random flag complexes, monotone maps, mapping cones and
product transfers over a circle or an interval fiber.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from diffchar import fixtures
from diffchar.characters import (
    FlatClass,
    character,
    flat_holonomy_class,
    fractional_torsion_class,
    from_curvature,
    iota,
    pullback,
    random_character,
    random_flat_character,
)
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
from diffchar.fiber_integration import (
    boundary_fiber_integrate,
    combined_transfer,
    fiber_integrate,
    product_transfer,
    rebracket_map,
)
from diffchar.products import internal_product
from diffchar.relative import (
    RelChar,
    cov_inverse,
    descend_kernel,
    find_section,
    incl_flat,
)
from diffchar.simplicial import (
    Chain,
    ConeChain,
    SimplicialMap,
    TensorChain,
    alexander_whitney,
    compose_maps,
    ez,
    fundamental_cycle,
    identity_map,
    mapping_cone,
    staircase_product,
    tensor,
    transpose_map,
)
from test_cochain import monotone_maps
from test_exact_linalg import flag_complexes
from test_presentations import mapping_cones


def _rng(data):
    return random.Random(data.draw(st.integers(0, 2**32 - 1)))


def _check_cochain(c):
    assert all(x != 0 for x in c.coeffs.values())
    assert all(type(x) in (int, Fraction) for x in c.coeffs.values())
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


def _check_relative(f):
    """The checking constructor accepts f's data and finds the same parts,
    its integral cocycles mu_x and mu_a included."""
    for c in (getattr(f, name) for name in RelChar._parts):
        _check_cochain(c)
    rebuilt = RelChar(f.cone, f.curvature, f.cov, f.lift_x, f.lift_a)
    assert rebuilt.degree == f.degree
    assert [getattr(rebuilt, name) for name in RelChar._parts] == [
        getattr(f, name) for name in RelChar._parts
    ]
    assert rebuilt == f


def _check_map(f):
    assert type(f.vertex_map) is tuple
    assert SimplicialMap(f.source, f.target, f.vertex_map) == f


def _check_relative_algebra(cone, k, rng, n):
    """Library-built relative characters of degree k on the cone, and what
    descend_kernel makes of those in the kernel of the projection.

    Besides incl_flat of a character on A and a section of a random
    character on X, the draws are the sections of two characters on X whose
    class is zero, one the other plus iota of an integer cocycle c: their
    difference has zero projection but the X lift -c, whose integral part
    enters the mu of its descent.
    """
    X, A = cone.phi.target, cone.phi.source
    theta = random_character(X, k, rng).lift
    c = random_character(X, k - 1, rng).mu
    s1, s2 = find_section(iota(theta), cone), find_section(iota(theta + c), cone)
    g = incl_flat(random_character(A, k - 1, rng), cone)
    outs = [g, s1, s2, g + s1, g - s1, -g, s1.scale(n), s1 - s2 + g]
    try:
        outs.append(find_section(random_character(X, k, rng), cone))
    except ValueError:
        pass
    for f in outs:
        _check_relative(f)
    if k >= 2:
        _check_character(descend_kernel(g))
        _check_character(descend_kernel(s1 - s2 + g))


@settings(max_examples=40, deadline=None)
@given(mapping_cones(), st.data())
def test_relative_characters_carry_mu(drawn, data):
    cone = drawn[0]
    X, A = cone.phi.target, cone.phi.source
    k = data.draw(st.integers(1, max(X.dim, A.dim + 1, 1)))
    _check_relative_algebra(cone, k, _rng(data), data.draw(st.integers(-3, 3)))


def test_relative_characters_carry_mu_on_identity_cones():
    """The X lifts drawn above have a nonzero integral part on A here, which
    random cones seldom give."""
    rng = random.Random(13)
    for X in (fixtures.circle(), fixtures.torus()):
        cone = mapping_cone(identity_map(X))
        for k in (1, 2, 3):
            _check_relative_algebra(cone, k, rng, 2)


@settings(max_examples=30, deadline=None)
@given(flag_complexes(max_vertices=5), st.data())
def test_cov_inverse_carries_mu(K, data):
    rng = _rng(data)
    theta = _draw_character(data, K, rng).lift
    _check_relative(cov_inverse(theta))
    _check_relative(cov_inverse(theta, mapping_cone(identity_map(K))))


@settings(max_examples=15, deadline=None)
@given(flag_complexes(max_vertices=4), st.data())
def test_boundary_fiber_integration_carries_mu(K, data):
    tr = product_transfer(K, fixtures.interval())
    h = random_character(tr.total, data.draw(st.integers(1, 3)), _rng(data))
    out = boundary_fiber_integrate(h, tr)
    _check_character(out.over_boundary)
    _check_relative(out.relative)


@settings(max_examples=30, deadline=None)
@given(mapping_cones(), st.data())
def test_cone_chains_match_their_checked_rebuilds(drawn, data):
    cone, top = drawn
    k = data.draw(st.integers(0, top))
    size = sum(cone.basis_sizes(k))
    c, c2 = (cone.chain_from_vector(k, [data.draw(st.integers(-3, 3)) for _ in range(size)])
             for _ in range(2))
    n = data.draw(st.integers(-3, 3))
    for z in (c, c.boundary(), c + c2, c - c2, -c, c.scale(n),
              cone.chain(k, c.x_part.coeffs, c.a_part.coeffs)):
        _check_chain(z.x_part)
        _check_chain(z.a_part)
        assert ConeChain(z.cone, z.degree, z.x_part, z.a_part) == z


@settings(max_examples=30, deadline=None)
@given(flag_complexes(max_vertices=5), st.data())
def test_flat_classes_match_their_checked_rebuilds(K, data):
    rng = _rng(data)
    k = data.draw(st.integers(1, K.dim + 1))
    u, u2 = (flat_holonomy_class(random_flat_character(K, k, rng)) for _ in range(2))
    n = data.draw(st.integers(-3, 3))
    for v in (u, u + u2, u - u2, -u, u.scale(n)):
        _check_cochain(v.cochain)
        rebuilt = FlatClass(v.cochain)
        assert (rebuilt.complex, rebuilt.degree) == (v.complex, v.degree)
        assert rebuilt == v


def test_fractional_torsion_classes_match_their_checked_rebuilds():
    RP2, S1 = fixtures.complex_by_name("RP2_6"), fixtures.complex_by_name("S1_3")
    seen = 0
    for K in (RP2, fixtures.complex_by_name("Klein_K"), staircase_product(S1, RP2)):
        for k in range(K.dim + 1):
            for i, d in enumerate(K.homology(k).torsion):
                for numerator in range(d + 1):
                    u = fractional_torsion_class(K, k, i, numerator)
                    _check_cochain(u.cochain)
                    rebuilt = FlatClass(u.cochain)
                    assert (rebuilt.complex, rebuilt.degree) == (u.complex, u.degree)
                    assert rebuilt == u
                    assert u.is_zero() == (numerator % d == 0)
                    seen += 1
    assert seen == 3 + 3 + 2 * 3


@settings(max_examples=30, deadline=None)
@given(monotone_maps())
def test_identities_and_composites_are_simplicial(phi):
    for f in (identity_map(phi.source), identity_map(phi.target),
              compose_maps(phi, identity_map(phi.source)),
              compose_maps(identity_map(phi.target), phi)):
        _check_map(f)


@settings(max_examples=15, deadline=None)
@given(flag_complexes(max_vertices=3), flag_complexes(max_vertices=3), st.data())
def test_product_maps_are_simplicial(K, L, data):
    P, Q = staircase_product(K, L), staircase_product(L, K)
    u0 = data.draw(st.integers(0, K.num_vertices - 1))
    v0 = data.draw(st.integers(0, L.num_vertices - 1))
    for f in (P.projection_left(), P.projection_right(), P.include_at_right(v0),
              P.include_at_left(u0), transpose_map(P, Q)):
        _check_map(f)
    I = fixtures.interval()
    flat = staircase_product(K, staircase_product(L, I))
    nested = staircase_product(staircase_product(K, L), I)
    _check_map(rebracket_map(flat, nested))


@settings(max_examples=5, deadline=None)
@given(flag_complexes(max_vertices=2), flag_complexes(max_vertices=2))
def test_the_combined_transfer_swap_is_simplicial(K, L):
    I = fixtures.interval()
    _check_map(combined_transfer(product_transfer(K, I), product_transfer(L, I))[1])
