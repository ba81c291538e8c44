"""Fiber integration: transfers, axioms, boundary fibers, homotopy formula."""

from __future__ import annotations

import random

import pytest

from diffchar import fixtures, verify
from diffchar.cochain import Cochain, pullback as pullback_cochain, slant_fiber, zero_cochain
from diffchar.simplicial import SimplicialMap, fundamental_cycle, staircase_product, ez
from diffchar.characters import DiffChar, pullback, random_character
from diffchar.fiber_integration import (
    EndpointMismatch,
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
    assert isinstance(out, DiffChar)
    assert out.degree == 0
    assert out.curvature == out.mu == slant_fiber(h.mu, tr.fiber_chain)


def test_low_degree_characters_integrate_like_any_other():
    S1 = fixtures.circle()
    pt = fixtures.point()
    E = staircase_product(S1, pt)
    tr = product_transfer(S1, pt, total=E)
    g = DiffChar(Cochain(E, 0, {v: 2 for v in E.simplices(0)}, "Z"), zero_cochain(E, -1))
    assert fiber_integrate(g, tr) == DiffChar(
        Cochain(S1, 0, {v: 2 for v in S1.simplices(0)}, "Z"), zero_cochain(S1, -1)
    )
    below = fiber_integrate(DiffChar(zero_cochain(E, -1), zero_cochain(E, -2)), tr)
    assert below.degree == -1 and below.is_zero()
    T2 = fixtures.torus()
    one = DiffChar(Cochain(T2, 0, {v: 1 for v in T2.simplices(0)}, "Z"), zero_cochain(T2, -1))
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
    tr = product_transfer(fixtures.circle(), fixtures.circle(), total=T2)
    h = random_character(T2, 2, random.Random(11))
    assert verify.violation(verify.orientation_reversal(h, tr)) is None


def test_naturality_along_a_base_map():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    tr = product_transfer(S1, S1, total=T2)
    g = SimplicialMap(fixtures.interval(), S1, [0, 1])
    h = random_character(T2, 2, random.Random(13))
    assert verify.violation(verify.fiber_naturality(g, h, tr)) is None


def test_functoriality_of_iterated_fibers():
    S1 = fixtures.circle()
    nested = staircase_product(staircase_product(S1, S1), fixtures.point())
    h = random_character(nested, 2, random.Random(17))
    assert verify.violation(verify.iterated_fibers(h)) is None


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
    tr = product_transfer(S1, iv)
    rng = random.Random(19)
    for k in (1, 2):
        h = random_character(tr.total, k, rng)
        out = boundary_fiber_integrate(h, tr)
        assert verify.violation(verify.boundary_integral_is_iota(h, tr, out)) is None
        assert verify.violation(verify.boundary_relative_projects(out)) is None
        cov = slant_fiber(h.curvature, tr.fiber_chain).scale((-1) ** (k - 1))
        assert out.cov == cov


def test_boundary_fiber_degree_one_is_an_endpoint_quotient():
    tr = product_transfer(fixtures.circle(), fixtures.interval())
    h = random_character(tr.total, 1, random.Random(23))
    out = boundary_fiber_integrate(h, tr)
    assert verify.violation(verify.endpoint_quotient(h, tr, out)) is None


def test_rotation_homotopy_defect_vanishes():
    f0, f1, H = fixtures.rotation_homotopy()
    i = fixtures.winding_character()
    # f1 is f0 precomposed with one click of the hexagon
    assert list(f1.vertex_map) == [f0.vertex_map[(u - 1) % 6] for u in range(6)]
    defect = homotopy_defect(i, f0, f1, H)
    assert defect.is_zero()


def test_degree_zero_homotopy_defect_vanishes():
    """Homotopy invariance in degree 0, where the transgression slants a
    degree-0 cochain over the interval: the zero cochain of degree -1."""
    f0, f1, H = fixtures.rotation_homotopy()
    S1, prism = H.target, H.source
    c = Cochain(S1, 0, {v: 2 for v in S1.simplices(0)}, "Z")
    defect = homotopy_defect(DiffChar(c, zero_cochain(S1, -1)), f0, f1, H)
    assert defect.degree == 0 and defect.is_zero()
    interval_chain = fundamental_cycle(prism.right)
    pulled = pullback_cochain(H, c)
    assert not pulled.is_zero()
    assert slant_fiber(pulled, interval_chain) == zero_cochain(prism.left, -1)
    below = slant_fiber(zero_cochain(prism, -1), interval_chain)
    assert below == zero_cochain(prism.left, -2) and below.degree == -2


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
    rng = random.Random(31)
    h = random_character(S1, 1, rng)
    f = random_character(T2, 2, rng)
    assert verify.violation(verify.projection_formula(h, f, tr)) is None


def test_fiber_product_formula_instance():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    tr = product_transfer(S1, S1, total=T2)
    rng = random.Random(37)
    h = random_character(T2, 2, rng)
    f = random_character(T2, 1, rng)
    combined = combined_transfer(tr, tr)
    assert verify.violation(verify.fiber_product_formula(h, f, tr, tr, combined)) is None
