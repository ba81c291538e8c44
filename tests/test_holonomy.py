"""Holonomy, transition factors, and the hermitian pairing of fillings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from diffchar import fixtures
from diffchar.simplicial import (
    Complex,
    SimplicialMap,
    fundamental_cycle,
    identity_map,
    product_map,
    staircase_product,
)
from diffchar.cochain import pair
from diffchar.characters import evaluate, iota, random_character
from diffchar.holonomy import (
    BoundaryMismatch,
    DimensionMismatch,
    Filling,
    Phased,
    hermitian_pairing,
    holonomy,
    transition_factor,
)


def _edge_fillings():
    """Three fillings of the vertex pair {0, 1} inside the circle."""
    S1 = fixtures.circle()
    iv = fixtures.interval()
    path2 = fixtures.path_complex(2)
    direct = Filling(SimplicialMap(iv, S1, [0, 1]), fundamental_cycle(iv))
    around = Filling(SimplicialMap(path2, S1, [0, 2, 1]), fundamental_cycle(path2))
    stopover = Filling(SimplicialMap(path2, S1, [0, 1, 1]), fundamental_cycle(path2))
    return direct, around, stopover


def test_phased_arithmetic():
    a = Phased(Fraction(2), Fraction(1, 3))
    b = Phased(Fraction(3, 2), Fraction(5, 6))
    assert a * b == Phased(Fraction(3), Fraction(1, 6))
    assert a.conjugate() == Phased(Fraction(2), Fraction(2, 3))
    assert Phased(0, Fraction(1, 7)).phase == 0
    with pytest.raises(ValueError):
        Phased(Fraction(-1))


def test_phased_takes_only_exact_numbers():
    assert Phased(2, 1) == Phased(Fraction(2), Fraction(0))
    assert type(Phased(3).modulus) is Fraction
    for modulus, phase in ((0.1, 0), (1, 0.25), (1, "1/4"), ("2", 0), (None, 0)):
        with pytest.raises(TypeError, match="int or Fraction"):
            Phased(modulus, phase)
    with pytest.raises(ValueError, match="nonnegative"):
        Phased(-1, Fraction(1, 2))


def test_holonomy_along_torus_factors_vanishes():
    T2 = fixtures.torus()
    hh = fixtures.torus_character()
    z = fixtures.circle_cycle()
    assert holonomy(hh, T2.include_at_right(0), z) == 0
    assert holonomy(hh, T2.include_at_left(0), z) == 0


def test_holonomy_of_a_collapsed_cycle_vanishes():
    T2 = fixtures.torus()
    hh = fixtures.torus_character()
    collapse = SimplicialMap(fixtures.circle(), T2, [T2.encode(0, 0)] * 3)
    assert holonomy(hh, collapse, fixtures.circle_cycle()) == 0


def test_holonomy_adds_over_disjoint_unions():
    T2 = fixtures.torus()
    hh = fixtures.torus_character()
    S1 = fixtures.circle()
    z = fixtures.circle_cycle()
    two = Complex(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], "S1+S1")
    rng = random.Random(41)
    h = random_character(T2, 2, rng)
    rows = [T2.encode(u, 0) for u in (0, 1, 2)] + [T2.encode(u, 1) for u in (0, 1, 2)]
    sheets = SimplicialMap(two, T2, rows)
    part1 = holonomy(h, SimplicialMap(S1, T2, rows[:3]), z)
    part2 = holonomy(h, SimplicialMap(S1, T2, rows[3:]), z)
    assert holonomy(h, sheets, fundamental_cycle(two)) == (part1 + part2) % 1
    both = holonomy(hh, sheets, fundamental_cycle(two))
    assert both == (holonomy(hh, SimplicialMap(S1, T2, rows[:3]), z)
                    + holonomy(hh, SimplicialMap(S1, T2, rows[3:]), z)) % 1


def test_holonomy_degree_guard():
    hh = fixtures.torus_character()
    T2 = fixtures.torus()
    with pytest.raises(DimensionMismatch):
        holonomy(hh, identity_map(T2), fixtures.torus_cycle())


def test_transition_factor_is_the_loop_pairing():
    S1 = fixtures.circle()
    rng = random.Random(43)
    eta = random_character(S1, 2, rng).lift
    h2 = iota(eta)
    direct, around, stopover = _edge_fillings()
    z = fixtures.circle_cycle()
    assert transition_factor(h2, around, direct) == pair(eta, z) % 1
    assert transition_factor(h2, direct, direct) == 0


def test_transition_factors_satisfy_the_cocycle_law():
    S1 = fixtures.circle()
    rng = random.Random(47)
    h2 = iota(random_character(S1, 2, rng).lift)
    direct, around, stopover = _edge_fillings()
    t_ab = transition_factor(h2, direct, around)
    t_bc = transition_factor(h2, around, stopover)
    assert (t_ab + t_bc) % 1 == transition_factor(h2, direct, stopover)


def test_transition_factor_requires_matching_boundaries():
    S1 = fixtures.circle()
    iv = fixtures.interval()
    rng = random.Random(53)
    h2 = iota(random_character(S1, 2, rng).lift)
    direct = Filling(SimplicialMap(iv, S1, [0, 1]), fundamental_cycle(iv))
    other = Filling(SimplicialMap(iv, S1, [1, 2]), fundamental_cycle(iv))
    with pytest.raises(BoundaryMismatch):
        transition_factor(h2, direct, other)
    i = fixtures.winding_character()
    with pytest.raises(DimensionMismatch):
        transition_factor(i, direct, direct)


def test_hermitian_pairing_unit_and_phase():
    S1 = fixtures.circle()
    rng = random.Random(59)
    h2 = iota(random_character(S1, 2, rng).lift)
    direct, around, _ = _edge_fillings()
    one = Phased(Fraction(1))
    unit = hermitian_pairing(h2, direct, one, direct, one)
    assert unit == Phased(Fraction(1), Fraction(0))
    c1 = Phased(Fraction(2), Fraction(1, 3))
    c2 = Phased(Fraction(3, 2), Fraction(1, 4))
    amp = hermitian_pairing(h2, direct, c1, around, c2)
    assert amp.modulus == 3
    expected = (c1.phase - c2.phase + transition_factor(h2, around, direct)) % 1
    assert amp.phase == expected


def test_hermitian_pairing_invariant_under_transport():
    """Moving a filling along its transition factor leaves the pairing fixed."""
    S1 = fixtures.circle()
    rng = random.Random(61)
    h2 = iota(random_character(S1, 2, rng).lift)
    direct, around, _ = _edge_fillings()
    one = Phased(Fraction(1))
    moved = Phased(Fraction(1), transition_factor(h2, around, direct))
    assert hermitian_pairing(h2, around, moved, direct, one) == \
        hermitian_pairing(h2, direct, one, direct, one)


def test_cobordism_flux_formula():
    """The holonomy difference across a cylinder is the curvature flux."""
    S1 = fixtures.circle()
    iv = fixtures.interval()
    T2 = fixtures.torus()
    W = staircase_product(S1, iv)
    Phi = product_map(identity_map(S1), SimplicialMap(iv, S1, [0, 1]), W, T2)
    cW = fundamental_cycle(W)
    ends = Phi.push_chain(cW.boundary())
    z = fixtures.circle_cycle()
    top = T2.include_at_right(1).push_chain(z)
    bottom = T2.include_at_right(0).push_chain(z)
    assert ends in (top - bottom, bottom - top)
    rng = random.Random(67)
    for _ in range(5):
        h = random_character(T2, 2, rng)
        assert evaluate(h, ends) == pair(h.curvature, Phi.push_chain(cW)) % 1