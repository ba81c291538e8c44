"""Differential characters: construction, evaluation, the classifying maps."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from diffchar import characters, exact_linalg, fixtures, simplicial
from diffchar.cochain import Cochain, coboundary, pair, zero_cochain
from diffchar.exact_linalg import InvariantViolation
from diffchar.simplicial import Complex, SimplicialMap, compose_maps, fundamental_cycle
from diffchar.characters import (
    DiffChar,
    IntegralClass,
    NoTrivialization,
    NotACycle,
    NotClosed,
    NotCocycle,
    NotFlat,
    NotIntegrallyCompatible,
    NotIntegralPeriods,
    NotTorsion,
    _derived,
    char_class,
    evaluate,
    evaluate_torsion,
    flat_character,
    flat_holonomy_class,
    fractional_torsion_class,
    from_curvature,
    integral_decomposition,
    iota,
    pullback,
    random_character,
    random_flat_character,
    torsion_filling,
    trivialization,
)


def test_winding_character_frozen_values():
    i = fixtures.winding_character()
    assert evaluate(i, fixtures.vertex_difference()) == Fraction(1, 3)
    assert i.mu.value((0, 1)) == 0
    assert i.mu.value((1, 2)) == 0
    assert i.mu.value((0, 2)) == -1
    assert pair(i.curvature, fixtures.circle_cycle()) == 1


def test_constructor_validation():
    S2 = fixtures.sphere()
    rng = random.Random(2)
    open_cochain = Cochain(S2, 1, {(0, 1): Fraction(1, 5)})
    with pytest.raises(NotClosed):
        DiffChar(open_cochain, zero_cochain(S2, 0))
    i = fixtures.winding_character()
    S1 = fixtures.circle()
    half_at_v0 = Cochain(S1, 0, {(0,): Fraction(1, 2)})
    with pytest.raises(NotIntegrallyCompatible):
        DiffChar(i.curvature, i.lift + half_at_v0)
    # Degree 0 is an ordinary degree: its lift, of degree -1, is zero.
    assert DiffChar(zero_cochain(S1, 0), zero_cochain(S1, -1)).is_zero()


def test_integral_class_refuses_a_representative_from_elsewhere():
    S1, S2 = fixtures.circle(), fixtures.sphere()
    path = fixtures.path_complex(3)
    # Same lengths as the cochains the classes need, so only the complex or
    # the degree tells them apart.
    on_path = Cochain(path, 1, {(0, 1): 1})
    assert len(path.simplices(1)) == len(S1.simplices(1))
    with pytest.raises(ValueError, match="another complex or degree"):
        IntegralClass(S1, 1, on_path)
    c0 = Cochain(S2, 0, {v: 1 for v in S2.simplices(0)})
    assert len(S2.simplices(0)) == len(S2.simplices(2))
    with pytest.raises(ValueError, match="another complex or degree"):
        IntegralClass(S2, 2, c0)
    with pytest.raises(NotCocycle):
        IntegralClass(S1, 0, Cochain(S1, 0, {(0,): 1}))
    assert IntegralClass(S1, 0, Cochain(S1, 0, {v: 3 for v in S1.simplices(0)})).free == (3,)


def test_evaluate_requires_cycles_one_degree_down():
    i = fixtures.winding_character()
    S1 = fixtures.circle()
    message = "a degree-1 character evaluates on cycles of degree 0, not 1"
    with pytest.raises(ValueError) as raised:
        evaluate(i, fixtures.circle_cycle())
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        evaluate_torsion(i, fixtures.circle_cycle())
    assert str(raised.value) == message
    h = fixtures.rp2_flat_character()
    with pytest.raises(ValueError) as raised:
        evaluate_torsion(h, fixtures.torsion_loop().boundary())
    assert str(raised.value) == "a degree-2 character evaluates on cycles of degree 1, not 0"
    with pytest.raises(NotACycle):
        evaluate(iota(i.curvature), S1.chain(1, {(0, 1): 1}))


def test_equality_ignores_integral_lift_shifts():
    i = fixtures.winding_character()
    S1 = fixtures.circle()
    ints = Cochain(S1, 0, {(0,): 4, (1,): -2, (2,): 7})
    assert DiffChar(i.curvature, i.lift + ints) == i
    # a global half shift changes values on vertices, which are 0-cycles
    half = Cochain(S1, 0, {v: Fraction(1, 2) for v in S1.simplices(0)})
    assert DiffChar(i.curvature, i.lift + half) != i
    assert iota(i.lift) != i  # same lift, different curvature


def test_addition_and_scaling():
    rng = random.Random(5)
    K = fixtures.torus()
    h = random_character(K, 2, rng)
    f = random_character(K, 2, rng)
    assert (h + f) - f == h
    assert h.scale(3) == h + h + h
    assert (h - h).is_zero()
    z = fixtures.circle_cycle()
    g1 = fixtures.gamma_first()
    assert evaluate(h + f, g1) == (evaluate(h, g1) + evaluate(f, g1)) % 1


def test_iota_and_trivialization_round_trip():
    rng = random.Random(7)
    for K in (fixtures.sphere(), fixtures.projective_plane()):
        for k in (1, 2):
            eta = random_character(K, k, rng).lift
            h = iota(eta)
            assert char_class(h).is_zero()
            assert h.curvature == coboundary(eta)
            assert iota(trivialization(h)) == h
    with pytest.raises(NoTrivialization):
        trivialization(fixtures.winding_character())


def test_one_factorization_per_degree(monkeypatch):
    rp2 = fixtures.projective_plane()
    # A fresh copy: the fixture complexes share their memo across tests.
    K = Complex(rp2.num_vertices, rp2.simplices(2))
    original = exact_linalg.smith_normal_form
    factored = []

    def counting(a):
        factored.append(a)
        return original(a)

    for module in (exact_linalg, simplicial):
        monkeypatch.setattr(module, "smith_normal_form", counting)
    n = 2
    K.boundary_snf(n)
    K.splitting(n)
    K.homology(n)
    K.cohomology(n - 1)
    edges = K.simplices(n - 1)
    eta = Cochain.from_vector(K, n - 1, [Fraction(i % 5, 3) for i in range(len(edges))])
    assert iota(trivialization(iota(eta))) == iota(eta)
    K.homology(0)
    K.cohomology(n)
    calls = list(factored)
    # Each call factored N_m, d_m in the cycle coordinates of C_{m-1} (d_0
    # itself, which has no rows), and no degree was factored twice.
    relations = [K.boundary_matrix(0)] + [
        K.splitting(m - 1).relations(K.boundary_matrix(m)) for m in range(1, K.dim + 2)
    ]
    assert factored == calls
    degrees = [[m for m, N in enumerate(relations) if a == N] for a in calls]
    assert all(len(found) == 1 for found in degrees)
    assert sorted(m for (m,) in degrees) == list(range(K.dim + 2))


def test_failed_invariant_is_an_internal_fault(monkeypatch):
    assert not issubclass(InvariantViolation, ValueError)
    eta = random_character(fixtures.sphere(), 2, random.Random(3)).lift
    monkeypatch.setattr(characters, "solve_integer", lambda snf, b: None)
    with pytest.raises(InvariantViolation):
        trivialization(iota(eta))


def test_from_curvature():
    i = fixtures.winding_character()
    assert from_curvature(i.curvature).curvature == i.curvature
    with pytest.raises(NotIntegralPeriods):
        from_curvature(i.curvature.scale(Fraction(1, 2)))
    rng = random.Random(11)
    h = random_character(fixtures.klein_bottle(), 2, rng)
    assert from_curvature(h.curvature).curvature == h.curvature


@pytest.mark.parametrize("values", [[Fraction(1, 2)] * 3, [Fraction(1, 2), 0, 0]])
def test_from_curvature_refuses_degree_zero_first(values):
    # Constant 1/2 is closed with fractional periods, the other not closed:
    # either way the degree is what is wrong.
    omega = Cochain.from_vector(fixtures.circle(), 0, values)
    with pytest.raises(ValueError, match="degree must be at least 1") as caught:
        from_curvature(omega)
    assert type(caught.value) is ValueError


def test_flat_characters_and_their_classes():
    ju = fixtures.rp2_flat_character()
    assert ju.curvature.is_zero()
    u = fractional_torsion_class(fixtures.projective_plane(), 1, 0, 1)
    assert flat_holonomy_class(ju) == u
    assert not ju.is_zero()
    # doubling the order-2 class lands on the zero character
    assert flat_character(u.cochain.scale(2)).is_zero()
    with pytest.raises(NotFlat):
        flat_holonomy_class(fixtures.winding_character())


def test_fractional_torsion_class_refuses_a_missing_factor():
    RP2 = fixtures.projective_plane()
    assert RP2.homology(1).torsion == [2]
    for index in (-1, -2, 1):
        with pytest.raises(IndexError, match="no such torsion factor"):
            fractional_torsion_class(RP2, 1, index)


def test_torsion_filling():
    z = fixtures.torsion_loop()
    order, x = torsion_filling(z)
    assert order == 2
    assert x.degree == 2 and x.boundary() == z.scale(2)
    S1 = fixtures.circle()
    assert torsion_filling(fundamental_cycle(S1)) == (0, None)


def test_flat_evaluation_on_torsion_loop():
    ju = fixtures.rp2_flat_character()
    z = fixtures.torsion_loop()
    assert evaluate(ju, z) == Fraction(1, 2)
    assert evaluate_torsion(ju, z) == Fraction(1, 2)


def test_evaluate_torsion_agrees_where_defined():
    rng = random.Random(13)
    for K in (fixtures.projective_plane(), fixtures.klein_bottle()):
        for k in (1, 2):
            h = random_character(K, k, rng)
            hom = K.homology(k - 1)
            for vec in K.splitting(k - 1).cycle_basis:
                z = K.chain_from_vector(k - 1, vec)
                if hom.class_order(z.to_vector()) > 0:
                    assert evaluate_torsion(h, z) == evaluate(h, z)


def test_evaluate_torsion_refuses_a_cycle_on_another_complex():
    """Klein_K and T2_9 both have 27 edges, so the vectors have the right length."""
    K, T2 = fixtures.klein_bottle(), fixtures.torus()
    assert len(K.simplices(1)) == len(T2.simplices(1))
    h = random_character(K, 2, random.Random(3))
    basis = T2.splitting(1).cycle_basis
    assert len(basis) == 19
    for vec in basis:
        z = T2.chain_from_vector(1, vec)
        with pytest.raises(ValueError, match="different complexes"):
            evaluate(h, z)
        with pytest.raises(ValueError, match="different complexes"):
            evaluate_torsion(h, z)


def test_evaluate_torsion_refuses_infinite_order():
    i = fixtures.winding_character()
    S1 = fixtures.circle()
    v0 = S1.chain(0, {(0,): 1})
    with pytest.raises(NotTorsion):
        evaluate_torsion(i, v0)


def test_evaluate_on_boundaries_is_the_curvature_pairing():
    rng = random.Random(17)
    K = fixtures.sphere()
    h = random_character(K, 2, rng)
    c = K.chain(2, {s: rng.randint(-3, 3) for s in K.simplices(2)})
    assert evaluate(h, c.boundary()) == pair(h.curvature, c) % 1


def test_pullback_functoriality():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    emb = T2.include_at_right(0)
    rot = SimplicialMap(S1, S1, [1, 2, 0])
    hh = fixtures.torus_character()
    lhs = pullback(rot, pullback(emb, hh))
    rhs = pullback(compose_maps(emb, rot), hh)
    assert lhs == rhs
    assert lhs.curvature == rhs.curvature


def test_pullback_along_collapse_is_zero():
    S1 = fixtures.circle()
    const = SimplicialMap(S1, S1, [0, 0, 0])
    assert pullback(const, fixtures.winding_character()).is_zero()


def test_char_class_separates_and_vanishes():
    i = fixtures.winding_character()
    assert not char_class(i).is_zero()
    assert char_class(i - i).is_zero()
    K = i.complex
    assert char_class(i) == IntegralClass(K, 1, i.mu)


def test_integral_decomposition():
    rng = random.Random(19)
    K = fixtures.torus()
    h = random_character(K, 1, rng)
    a = h.mu + coboundary(random_character(K, 1, rng).lift)
    m, r = integral_decomposition(a)
    assert m.is_integer_valued()
    assert m + coboundary(r) == a
    with pytest.raises(NotIntegralPeriods):
        integral_decomposition(h.curvature.scale(Fraction(1, 3)))


def test_integral_decomposition_checks_the_integer_part(monkeypatch):
    """A fractional integer part is an internal fault, not bad input."""
    a = random_character(fixtures.torus(), 1, random.Random(19)).mu
    dual = exact_linalg.CycleSplitting.dual

    def halved(self, w):
        return [Fraction(1, 2)] + list(dual(self, w))[1:]

    monkeypatch.setattr(exact_linalg.CycleSplitting, "dual", halved)
    with pytest.raises(InvariantViolation):
        integral_decomposition(a)


def test_low_degree_characters():
    K = fixtures.circle()
    g = DiffChar(Cochain(K, 0, {v: 2 for v in K.simplices(0)}, "Z"), zero_cochain(K, -1))
    assert not g.is_zero()
    assert (g - g).is_zero()
    assert g + g == DiffChar(
        Cochain(K, 0, {v: 4 for v in K.simplices(0)}, "Z"), zero_cochain(K, -1))
    neg = DiffChar(zero_cochain(K, -1), zero_cochain(K, -2))
    assert neg.is_zero()


def test_low_degree_characters_are_the_degree_zero_case():
    K = fixtures.circle()
    c = Cochain(K, 0, {v: 2 for v in K.simplices(0)}, "Z")
    g = DiffChar(c, zero_cochain(K, -1))
    assert isinstance(g, DiffChar)
    assert g.curvature == g.mu == c
    assert g.lift == zero_cochain(K, -1)
    with pytest.raises(AttributeError):
        g.cocycle = c
    assert _derived(c, zero_cochain(K, -1), c) == g
    assert type(g.scale(3)) is DiffChar
    assert g.scale(2) == g + g
    assert -g == DiffChar(c.scale(-1), zero_cochain(K, -1))
    assert char_class(g) == IntegralClass(K, 0, c)
    assert not char_class(g).is_zero()
    # Pulled back to a point: the constant 2 there.
    pt = fixtures.point()
    to_vertex = SimplicialMap(pt, K, [1])
    assert pullback(to_vertex, g) == DiffChar(
        Cochain(pt, 0, {(0,): 2}, "Z"), zero_cochain(pt, -1))
    below = DiffChar(zero_cochain(K, -1), zero_cochain(K, -2))
    assert pullback(to_vertex, below) == DiffChar(zero_cochain(pt, -1), zero_cochain(pt, -2))
    with pytest.raises(NotClosed):
        DiffChar(Cochain(K, 0, {(0,): 1}, "Z"), zero_cochain(K, -1))


def test_random_generators_are_well_formed():
    rng = random.Random(23)
    for K in (fixtures.torus(), fixtures.klein_bottle()):
        for k in (1, 2):
            h = random_character(K, k, rng)
            assert h.degree == k and h.mu.is_integer_valued()
            g = random_flat_character(K, k, rng)
            assert g.curvature.is_zero()
