"""Fiber integration: transfers, axioms, boundary fibers, homotopy formula."""

from __future__ import annotations

import random

import pytest

from diffchar import fixtures
from diffchar.cochain import Cochain, slant_fiber
from diffchar.simplicial import (
    SimplicialMap,
    fundamental_cycle,
    identity_map,
    product_map,
    staircase_product,
    ez,
)
from diffchar.characters import (
    LowDegreeChar,
    evaluate,
    iota,
    pullback,
    random_character,
)
from diffchar.products import external_product, internal_product
from diffchar.fiber_integration import (
    EndpointMismatch,
    TransferData,
    boundary_fiber_integrate,
    combined_transfer,
    fiber_integrate,
    homotopy_defect,
    product_transfer,
    rebracket_map,
)
from diffchar.relative import project


def test_point_fiber_is_the_identity_transfer():
    S1 = fixtures.circle()
    pt = fixtures.point()
    E = staircase_product(S1, pt)
    tr = product_transfer(S1, pt, total=E)
    rng = random.Random(3)
    h = random_character(S1, 1, rng)
    pulled = pullback(E.projection_left(), h)
    assert fiber_integrate(pulled, tr) == h


def test_two_point_fiber_doubles():
    S1 = fixtures.circle()
    two = fixtures.two_points()
    E = staircase_product(S1, two)
    tr = product_transfer(S1, two, total=E)
    rng = random.Random(5)
    h = random_character(S1, 1, rng)
    pulled = pullback(E.projection_left(), h)
    assert fiber_integrate(pulled, tr) == h.scale(2)


def test_circle_fiber_on_the_poincare_character():
    T2 = fixtures.torus()
    S1 = fixtures.circle()
    tr = product_transfer(S1, S1, total=T2)
    assert fiber_integrate(fixtures.torus_character(), tr) == fixtures.winding_character()


def test_full_degree_drop_gives_low_degree_character():
    T2 = fixtures.torus()
    S1 = fixtures.circle()
    tr = product_transfer(S1, S1, total=T2)
    rng = random.Random(7)
    h = random_character(T2, 1, rng)
    out = fiber_integrate(h, tr)
    assert isinstance(out, LowDegreeChar)
    assert out.degree == 0
    assert out.cocycle == slant_fiber(h.mu, tr.fiber_chain)


def test_low_degree_characters_integrate_like_any_other():
    S1 = fixtures.circle()
    pt = fixtures.point()
    E = staircase_product(S1, pt)
    tr = product_transfer(S1, pt, total=E)
    g = LowDegreeChar(E, 0, Cochain(E, 0, {v: 2 for v in E.simplices(0)}, "Z"))
    assert fiber_integrate(g, tr) == LowDegreeChar(
        S1, 0, Cochain(S1, 0, {v: 2 for v in S1.simplices(0)}, "Z")
    )
    below = fiber_integrate(LowDegreeChar(E, -1), tr)
    assert below.degree == -1 and below.is_zero()
    T2 = fixtures.torus()
    one = LowDegreeChar(T2, 0, Cochain(T2, 0, {v: 1 for v in T2.simplices(0)}, "Z"))
    over_circle = fiber_integrate(one, product_transfer(S1, S1, total=T2))
    assert over_circle.degree == -1 and over_circle.is_zero()


def test_shuffle_of_a_zero_chain_keeps_its_degree():
    T2 = fixtures.torus()
    S1 = fixtures.circle()
    edge = S1.chain(1, {S1.simplices(1)[0]: 1})
    zero = S1.chain(1, {})
    assert ez(edge, zero, T2).degree == 2
    assert ez(zero, edge, T2).degree == 2
    # Integrating over a zero fiber chain gives the zero cochain a degree down.
    slant = slant_fiber(fixtures.torus_character().curvature, zero)
    assert slant.degree == 1 and slant.is_zero()


def test_closed_fiber_has_zero_boundary_integral():
    T2 = fixtures.torus()
    S1 = fixtures.circle()
    tr = product_transfer(S1, S1, total=T2)
    rng = random.Random(89)
    for k in (1, 2, 3):
        for _ in range(3):
            h = random_character(T2, k, rng)
            out = boundary_fiber_integrate(h, tr)
            assert out.over_boundary.degree == k
            assert out.over_boundary.is_zero()
            assert project(out.relative) == out.over_boundary


def test_orientation_reversal():
    T2 = fixtures.torus()
    S1 = fixtures.circle()
    tr = product_transfer(S1, S1, total=T2)
    rev = product_transfer(S1, S1, fiber_chain=tr.fiber_chain.scale(-1), total=T2)
    rng = random.Random(11)
    h = random_character(T2, 2, rng)
    assert fiber_integrate(h, rev) == -fiber_integrate(h, tr)


def test_naturality_along_a_base_map():
    S1 = fixtures.circle()
    iv = fixtures.interval()
    T2 = fixtures.torus()
    tr = product_transfer(S1, S1, total=T2)
    g = SimplicialMap(iv, S1, [0, 1])
    EY = staircase_product(iv, S1)
    gx = product_map(g, identity_map(S1), EY, T2)
    trY = product_transfer(iv, S1, fiber_chain=tr.fiber_chain, total=EY)
    rng = random.Random(13)
    h = random_character(T2, 2, rng)
    assert fiber_integrate(pullback(gx, h), trY) == pullback(g, fiber_integrate(h, tr))


def test_functoriality_of_iterated_fibers():
    S1 = fixtures.circle()
    pt = fixtures.point()
    XF1 = staircase_product(S1, S1)
    nested = staircase_product(XF1, pt)
    FF = staircase_product(S1, pt)
    flat = staircase_product(S1, FF)
    rb = rebracket_map(flat, nested)
    c1, c2 = fundamental_cycle(S1), fundamental_cycle(pt)
    rng = random.Random(17)
    h = random_character(nested, 2, rng)
    lhs = fiber_integrate(
        fiber_integrate(h, TransferData(nested, c2)), TransferData(XF1, c1)
    )
    rhs = fiber_integrate(pullback(rb, h), TransferData(flat, ez(c1, c2, FF)))
    assert lhs == rhs


def test_mismatched_totals_are_refused():
    S1, pt, iv = fixtures.circle(), fixtures.point(), fixtures.interval()
    flat = staircase_product(S1, staircase_product(S1, pt))
    nested = staircase_product(staircase_product(S1, pt), S1)
    with pytest.raises(ValueError, match="^the two totals do not bracket the same factors$"):
        rebracket_map(flat, nested)
    with pytest.raises(ValueError, match="^total space factors do not match$"):
        product_transfer(S1, iv, total=fixtures.torus())


def test_combined_transfer_shape():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    tr = product_transfer(S1, S1, total=T2)
    comb, swap = combined_transfer(tr, tr)
    assert comb.total.left == staircase_product(S1, S1)
    assert swap.source == comb.total
    assert swap.target == staircase_product(T2, T2)
    assert comb.fiber_chain.degree == 2


def test_boundary_fiber_integration_identity():
    """Integration over the fiber boundary is iota of the curvature integral."""
    S1 = fixtures.circle()
    iv = fixtures.interval()
    E = staircase_product(S1, iv)
    tr = product_transfer(S1, iv, total=E)
    rng = random.Random(19)
    for k in (1, 2):
        h = random_character(E, k, rng)
        out = boundary_fiber_integrate(h, tr)
        sign = (-1) ** (k - 1)
        expected = iota(slant_fiber(h.curvature, tr.fiber_chain).scale(sign))
        assert out.over_boundary == expected
        assert project(out.relative) == out.over_boundary
        assert out.cov == slant_fiber(h.curvature, tr.fiber_chain).scale(sign)


def test_boundary_fiber_degree_one_is_an_endpoint_quotient():
    S1 = fixtures.circle()
    iv = fixtures.interval()
    E = staircase_product(S1, iv)
    tr = product_transfer(S1, iv, total=E)
    rng = random.Random(23)
    h = random_character(E, 1, rng)
    out = boundary_fiber_integrate(h, tr)
    top = pullback(E.include_at_right(1), h)
    bottom = pullback(E.include_at_right(0), h)
    assert out.over_boundary == top - bottom


def test_rotation_homotopy_defect_vanishes():
    f0, f1, H = fixtures.rotation_homotopy()
    i = fixtures.winding_character()
    # f1 is f0 precomposed with one click of the hexagon
    assert list(f1.vertex_map) == [f0.vertex_map[(u - 1) % 6] for u in range(6)]
    defect = homotopy_defect(i, f0, f1, H)
    assert defect.is_zero()


def test_projection_homotopy_defect_vanishes():
    f0, f1, H = fixtures.projection_homotopy()
    rng = random.Random(29)
    for k in (1, 2):
        h = random_character(fixtures.sphere(), k, rng)
        assert homotopy_defect(h, f0, f1, H).is_zero()


def test_homotopy_endpoint_mismatch_detected():
    f0, f1, H = fixtures.rotation_homotopy()
    i = fixtures.winding_character()
    with pytest.raises(EndpointMismatch):
        homotopy_defect(i, f1, f1, H)


def test_updown_formula_instance():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    tr = product_transfer(S1, S1, total=T2)
    pi = T2.projection_left()
    rng = random.Random(31)
    h = random_character(S1, 1, rng)
    f = random_character(T2, 2, rng)
    lhs = fiber_integrate(internal_product(pullback(pi, h), f), tr)
    rhs = internal_product(h, fiber_integrate(f, tr))
    assert lhs == rhs


def test_fiber_product_formula_instance():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    tr = product_transfer(S1, S1, total=T2)
    comb, swap = combined_transfer(tr, tr)
    rng = random.Random(37)
    k, l = 2, 1
    h = random_character(T2, k, rng)
    f = random_character(T2, l, rng)
    hf = external_product(h, f, swap.target)
    lhs = fiber_integrate(pullback(swap, hf), comb)
    rhs = external_product(fiber_integrate(h, tr), fiber_integrate(f, tr), comb.total.left)
    if (l - 1) % 2:
        rhs = -rhs
    assert lhs == rhs