"""Relative characters: validation, exact sequence, sections, descent."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from diffchar import fixtures
from diffchar.simplicial import identity_map, mapping_cone
from diffchar.cochain import Cochain, coboundary, pair, zero_cochain
from diffchar.characters import (
    DiffChar,
    FlatClass,
    LowDegreeChar,
    iota,
    random_character,
    random_flat_character,
)
from diffchar.relative import (
    KernelConditionFailed,
    NoSection,
    NotConeClosed,
    RelChar,
    cov_inverse,
    descend_kernel,
    evaluate_rel,
    find_section,
    flat_class_pulled_back,
    incl_flat,
    project,
    pushforward_injective,
)


def _random_section(cone, k, rng):
    return find_section(random_character(cone.phi.target, k, rng), cone)


def test_constructor_rejects_open_curvature():
    cone = fixtures.equator_cone()
    X, A = cone.phi.target, cone.phi.source
    bad = Cochain(X, 1, {(0, 1): Fraction(1, 2)}, "Q")
    with pytest.raises(NotConeClosed):
        RelChar(cone, bad, zero_cochain(A, 0),
                zero_cochain(X, 0), zero_cochain(A, -1))


def test_constructor_rejects_mismatched_cov():
    cone = fixtures.equator_cone()
    X, A = cone.phi.target, cone.phi.source
    cov = Cochain(A, 0, {(0,): Fraction(1, 5)}, "Q")
    with pytest.raises(NotConeClosed):
        RelChar(cone, zero_cochain(X, 1), cov,
                zero_cochain(X, 0), zero_cochain(A, -1))


def test_constructor_rejects_fractional_residue():
    cone = fixtures.equator_cone()
    X, A = cone.phi.target, cone.phi.source
    from diffchar.characters import NotIntegrallyCompatible

    lift_x = Cochain(X, 0, {(0,): Fraction(1, 2)}, "Q")
    with pytest.raises(NotIntegrallyCompatible):
        RelChar(cone, zero_cochain(X, 1), zero_cochain(A, 0),
                lift_x, zero_cochain(A, -1))


def test_cov_inverse_projects_to_iota():
    S1 = fixtures.circle()
    theta = Cochain(S1, 1, {(0, 1): Fraction(2, 7), (1, 2): Fraction(-1, 3)}, "Q")
    f = cov_inverse(theta)
    assert project(f) == iota(theta)
    assert f.cov == theta
    with pytest.raises(ValueError):
        cov_inverse(theta, fixtures.equator_cone())


def test_evaluation_needs_a_cone_cycle():
    cone = fixtures.equator_cone()
    rng = random.Random(3)
    f = _random_section(cone, 2, rng)
    from diffchar.relative import NotAConeCycle

    open_chain = cone.chain(1, x_coeffs={(0, 1): 1})
    with pytest.raises(NotAConeCycle):
        evaluate_rel(f, open_chain)
    with pytest.raises(ValueError) as raised:
        evaluate_rel(f, cone.chain(0, x_coeffs={(0,): 1}))
    assert str(raised.value) == "a degree-2 character evaluates on cone cycles of degree 1, not 0"


def test_boundary_evaluation_law():
    """On a boundary the value is the curvature-cov pairing of any filling."""
    cone = fixtures.equator_cone()
    rng = random.Random(5)
    for k in (1, 2):
        f = _random_section(cone, k, rng)
        nx, na = cone.basis_sizes(k)
        for _ in range(6):
            vec = [rng.randrange(-2, 3) for _ in range(nx + na)]
            c = cone.chain_from_vector(k, vec)
            expected = pair(f.curvature, c.x_part) + pair(f.cov, c.a_part)
            assert evaluate_rel(f, c.boundary()) == expected % 1


def test_projection_after_inclusion_is_zero():
    rng = random.Random(7)
    for cone in (fixtures.equator_cone(), fixtures.torsion_loop_cone()):
        for k in (1, 2):
            g = random_character(cone.phi.source, k, rng)
            assert project(incl_flat(g, cone)).is_zero()
    g0 = LowDegreeChar(fixtures.circle(), 0)
    f0 = incl_flat(g0, fixtures.equator_cone())
    assert f0.degree == 1 and f0.is_zero()


def test_sections_exist_over_the_named_cones():
    rng = random.Random(11)
    for cone in (fixtures.equator_cone(), fixtures.torsion_loop_cone()):
        for k in (1, 2, 3):
            h = random_character(cone.phi.target, k, rng)
            s = find_section(h, cone)
            assert project(s) == h
            assert s.cov.degree == k - 1


def test_no_section_for_the_torsion_character():
    RP2 = fixtures.projective_plane()
    cone = mapping_cone(identity_map(RP2))
    ju = fixtures.rp2_flat_character()
    with pytest.raises(NoSection) as exc:
        find_section(ju, cone)
    witness = exc.value.witness
    assert witness.representative.value((3, 4, 5)) == -1
    # doubling kills the order-2 obstruction
    s = find_section(ju.scale(2), cone)
    assert project(s) == ju.scale(2)


def test_descend_inverts_inclusion():
    rng = random.Random(13)
    for cone in (fixtures.equator_cone(), fixtures.torsion_loop_cone()):
        for k in (1, 2):
            g = random_character(cone.phi.source, k, rng)
            f = incl_flat(g, cone)
            assert descend_kernel(f) == g
            assert incl_flat(descend_kernel(f), cone) == f


def test_descend_on_a_degree_one_kernel():
    cone = fixtures.equator_cone()
    g0 = LowDegreeChar(fixtures.circle(), 0)
    assert descend_kernel(incl_flat(g0, cone)) == g0


def test_descend_rejects_nonzero_projection():
    cone = fixtures.equator_cone()
    rng = random.Random(17)
    s = _random_section(cone, 2, rng)
    assert not project(s).is_zero()
    with pytest.raises(KernelConditionFailed):
        descend_kernel(s)


def test_sections_with_equal_cov_agree_when_pushforward_injective():
    RP2 = fixtures.projective_plane()
    cone = mapping_cone(identity_map(RP2))
    assert pushforward_injective(identity_map(RP2), 0)
    assert pushforward_injective(identity_map(RP2), 1)
    rng = random.Random(19)
    for k in (2, 3):
        h = iota(random_character(RP2, k, rng).lift)
        s1 = find_section(h, cone)
        g = random_flat_character(RP2, k - 1, rng)
        s2 = s1 + incl_flat(g, cone)
        assert s2.cov == s1.cov
        assert s2 == s1


def test_equal_cov_does_not_force_equality_otherwise():
    """Contrast case: the circle dies in the sphere, so sections can differ."""
    S1 = fixtures.circle()
    cone = fixtures.equator_cone()
    assert not pushforward_injective(cone.phi, 1)
    eta = Cochain(S1, 1, {(0, 1): Fraction(1, 3)}, "Q")
    wobble = incl_flat(DiffChar(zero_cochain(S1, 2), eta), cone)
    assert wobble.cov.is_zero()
    assert not wobble.is_zero()
    rng = random.Random(23)
    s = _random_section(cone, 3, rng)
    assert (s + wobble).cov == s.cov
    assert s + wobble != s


def test_flat_class_pulled_back_detects_torsion():
    S1 = fixtures.circle()
    phi = fixtures.torsion_loop_map()
    third = FlatClass(Cochain(S1, 1, {(0, 1): Fraction(1, 3)}, "Q"))
    half = FlatClass(Cochain(S1, 1, {(0, 1): Fraction(1, 2)}, "Q"))
    assert not flat_class_pulled_back(third, phi)
    assert flat_class_pulled_back(half, phi)
    # against the sphere everything on the circle must die
    eq = fixtures.equator_map()
    assert not flat_class_pulled_back(third, eq)
    assert flat_class_pulled_back(half, eq) is False
    whole = FlatClass(Cochain(S1, 1, {(0, 1): Fraction(1)}, "Q"))
    assert flat_class_pulled_back(whole, eq)


def test_relative_scale_is_integer_only():
    cone = fixtures.equator_cone()
    rng = random.Random(29)
    s = _random_section(cone, 2, rng)
    assert s.scale(3) == s + s + s
    with pytest.raises(TypeError):
        s.scale(Fraction(1, 2))