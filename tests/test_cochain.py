"""Cochain algebra: coboundary, cup, cup_1, pairing, pullback, slant."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffchar import fixtures
from diffchar.characters import random_character
from diffchar.io import (
    FormatError, cochain_from_json, cochain_to_json, rel_character_from_json,
    rel_character_to_json,
)
from diffchar.relative import find_section
from diffchar.cochain import (
    Cochain,
    coboundary,
    cup,
    cup_1,
    has_integral_periods,
    is_closed,
    pair,
    pullback,
    slant_fiber,
    zero_cochain,
)
from diffchar.simplicial import (
    Complex,
    SimplicialMap,
    compose_maps,
    ez,
    fundamental_cycle,
    staircase_product,
)
from strategies import flag_complexes, monotone_maps, random_cochain


def test_constructor_rejects_bad_values():
    K = fixtures.circle()
    with pytest.raises(ValueError):
        Cochain(K, 1, {(0, 1, 2): 1})
    with pytest.raises(ValueError):
        Cochain(K, 0, {(0,): Fraction(1, 2)}, "Z")
    with pytest.raises(ValueError):
        Cochain(K, 1, {(1, 0): 1})


def test_coboundary_frozen_values():
    K = fixtures.circle()
    a = Cochain(K, 0, {(1,): 1})
    d = coboundary(a)
    assert d.value((0, 1)) == 1
    assert d.value((1, 2)) == -1
    assert d.value((0, 2)) == 0


def test_coboundary_squares_to_zero():
    rng = random.Random(3)
    for K in (fixtures.sphere(), fixtures.klein_bottle()):
        a = random_cochain(K, 0, rng)
        assert coboundary(coboundary(a)).is_zero()


def test_cup_frozen_values():
    K = fixtures.circle()
    a = Cochain(K, 0, {(0,): 2, (1,): 3, (2,): 5})
    b = Cochain(K, 1, {(0, 1): 7, (1, 2): 11, (0, 2): 13})
    ab = cup(a, b)
    assert [ab.value(e) for e in ((0, 1), (1, 2), (0, 2))] == [14, 33, 26]
    ba = cup(b, a)
    assert [ba.value(e) for e in ((0, 1), (1, 2), (0, 2))] == [21, 55, 65]


@given(
    av=st.lists(st.integers(-6, 6), min_size=15, max_size=15),
    bv=st.lists(st.integers(-6, 6), min_size=15, max_size=15),
)
@settings(max_examples=40, deadline=None)
def test_cup_leibniz_property(av, bv):
    K = fixtures.projective_plane()
    a = Cochain.from_vector(K, 1, av, "Q")
    b = Cochain.from_vector(K, 1, bv, "Q")
    lhs = coboundary(cup(a, b))
    rhs = cup(coboundary(a), b) + cup(a, coboundary(b)).scale(-1)
    assert lhs == rhs


def test_cup_leibniz_mixed_degrees():
    rng = random.Random(29)
    K = fixtures.torus()
    for p, q in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 1)):
        a = random_cochain(K, p, rng)
        b = random_cochain(K, q, rng)
        lhs = coboundary(cup(a, b))
        rhs = cup(coboundary(a), b) + cup(a, coboundary(b)).scale((-1) ** p)
        assert lhs == rhs


def test_cup_associative_and_unital():
    rng = random.Random(31)
    K = fixtures.torus()
    a = random_cochain(K, 1, rng)
    b = random_cochain(K, 1, rng)
    c = random_cochain(K, 0, rng)
    assert cup(cup(a, b), c) == cup(a, cup(b, c))
    one = Cochain(K, 0, {v: 1 for v in K.simplices(0)})
    assert cup(one, a) == a
    assert cup(a, one) == a


def test_cup_natural_under_monotone_maps():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    emb = T2.include_at_left(1)
    rng = random.Random(37)
    for p, q in ((0, 1), (1, 1)):
        a = random_cochain(T2, p, rng)
        b = random_cochain(T2, q, rng)
        assert pullback(emb, cup(a, b)) == cup(pullback(emb, a), pullback(emb, b))


def test_cup_1_coboundary_identity():
    """d(a u1 b) = da u1 b + (-1)^p a u1 db + (-1)^{p+q-1} a u b
    + (-1)^{p+q+pq} b u a."""
    rng = random.Random(41)
    klein, simplex = fixtures.klein_bottle(), Complex(5, [tuple(range(5))])
    cases = [(klein, p, q) for p, q in ((1, 1), (1, 2), (2, 1), (2, 2))]
    for K, p, q in cases + [(simplex, 2, 2), (simplex, 0, 2), (simplex, 1, 3)]:
        a = random_cochain(K, p, rng)
        b = random_cochain(K, q, rng)
        lhs = coboundary(cup_1(a, b))
        rhs = (
            cup_1(coboundary(a), b)
            + cup_1(a, coboundary(b)).scale((-1) ** p)
            + cup(a, b).scale((-1) ** (p + q - 1))
            + cup(b, a).scale((-1) ** (p + q + p * q))
        )
        assert lhs == rhs


def test_cup_1_controls_the_commutator_of_closed_cochains():
    from diffchar.characters import random_character

    rng = random.Random(43)
    K = fixtures.torus()
    for p, q in ((1, 1), (1, 2), (2, 1)):
        a = random_character(K, p, rng).curvature
        b = random_character(K, q, rng).curvature
        sign = (-1) ** (p * q)
        assert cup(a, b) - cup(b, a).scale(sign) == coboundary(cup_1(b, a)).scale(-1)


def test_pair_is_stokes_adjoint():
    rng = random.Random(47)
    K = fixtures.sphere()
    a = random_cochain(K, 1, rng)
    c = K.chain(2, {s: rng.randint(-3, 3) for s in K.simplices(2)})
    assert pair(coboundary(a), c) == pair(a, c.boundary())


def test_pair_frozen_value():
    K = fixtures.circle()
    z = fundamental_cycle(K)
    om = fixtures.winding_character().curvature
    assert pair(om, z) == 1


def test_pullback_contravariant():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    emb = T2.include_at_right(2)
    rot = SimplicialMap(S1, S1, [1, 2, 0])
    rng = random.Random(53)
    a = random_cochain(T2, 1, rng)
    assert pullback(rot, pullback(emb, a)) == pullback(compose_maps(emb, rot), a)


def test_slant_fiber_adjunction():
    # (b / cF)(x) = b(EZ(x, cF)) for every base chain x
    S1 = fixtures.circle()
    iv = fixtures.interval()
    E = staircase_product(S1, iv)
    cF = fundamental_cycle(iv)
    rng = random.Random(59)
    b = random_cochain(E, 2, rng)
    out = slant_fiber(b, cF)
    assert out.complex == S1 and out.degree == 1
    for e in S1.simplices(1):
        x = S1.chain(1, {e: 1})
        assert pair(out, x) == pair(b, ez(x, cF, E))


def test_slant_fiber_coboundary_identity():
    # d(b / cF) = (db) / cF + (-1)^{k - n} b / (d cF)
    S1 = fixtures.circle()
    iv = fixtures.interval()
    E = staircase_product(S1, iv)
    cF = fundamental_cycle(iv)
    rng = random.Random(61)
    for k in (1, 2):
        b = random_cochain(E, k, rng)
        sign = (-1) ** (k - 1)
        lhs = coboundary(slant_fiber(b, cF))
        rhs = slant_fiber(coboundary(b), cF) + slant_fiber(b, cF.boundary()).scale(sign)
        assert lhs == rhs


def test_integral_periods_and_closedness():
    K = fixtures.circle()
    om = fixtures.winding_character().curvature
    assert is_closed(om)
    assert has_integral_periods(om)
    assert not has_integral_periods(om.scale(Fraction(1, 2)))
    third = Cochain(K, 0, {(0,): Fraction(1, 3)})
    assert not has_integral_periods(third)  # vertices are cycles
    assert has_integral_periods(coboundary(third))


def test_zero_cochain_ring_tags():
    K = fixtures.point()
    z = zero_cochain(K, 0)
    assert z.is_integer_valued() and z.is_zero()
    with pytest.raises(ValueError):
        Cochain(K, 0, {}, "R")


# -- integrality is read from the values ------------------------------------

_INTS = st.integers(-5, 5)
_FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _draw_cochain(data, K, degree, values=_INTS):
    n = len(K.simplices(degree))
    return Cochain.from_vector(K, degree, data.draw(st.lists(values, min_size=n, max_size=n)))


def _draw_degrees(data, K):
    p = data.draw(st.integers(0, K.dim))
    return p, data.draw(st.integers(0, K.dim - p))


@settings(max_examples=60, deadline=None)
@given(flag_complexes(), st.data())
def test_integral_inputs_give_integral_results(K, data):
    p, q = _draw_degrees(data, K)
    a, a2, b = _draw_cochain(data, K, p), _draw_cochain(data, K, p), _draw_cochain(data, K, q)
    n = data.draw(st.integers(-4, 4))
    for c in (a + a2, a - a2, -a, a.scale(n), coboundary(a), cup(a, b), cup_1(a, b), cup_1(b, a)):
        assert c.is_integer_valued()


@settings(max_examples=60, deadline=None)
@given(monotone_maps(), st.data())
def test_pullback_along_monotone_maps_keeps_integrality_and_cup(phi, data):
    p, q = _draw_degrees(data, phi.target)
    a, b = _draw_cochain(data, phi.target, p), _draw_cochain(data, phi.target, q)
    assert pullback(phi, a).is_integer_valued()
    assert pullback(phi, cup(a, b)) == cup(pullback(phi, a), pullback(phi, b))


@settings(max_examples=60, deadline=None)
@given(flag_complexes(), st.data())
def test_half_of_an_odd_value_is_not_integral(K, data):
    p = data.draw(st.integers(0, K.dim))
    a = _draw_cochain(data, K, p)
    s = data.draw(st.sampled_from(K.simplices(p)))
    odd = a + Cochain(K, p, {s: 1 - a.value(s) % 2})
    assert odd.is_integer_valued()
    assert not odd.scale(Fraction(1, 2)).is_integer_valued()


@settings(max_examples=60, deadline=None)
@given(flag_complexes(), st.data())
def test_leibniz_on_random_rational_cochains(K, data):
    p, q = _draw_degrees(data, K)
    a, b = _draw_cochain(data, K, p, _FRACTIONS), _draw_cochain(data, K, q, _FRACTIONS)
    rhs = cup(coboundary(a), b) + cup(a, coboundary(b)).scale((-1) ** p)
    assert coboundary(cup(a, b)) == rhs


@settings(max_examples=40, deadline=None)
@given(flag_complexes(), st.data())
def test_integral_cochains_round_trip_through_json(K, data):
    p = data.draw(st.integers(0, K.dim))
    a = _draw_cochain(data, K, p)
    assert cochain_from_json(cochain_to_json(a), K, "Z") == a
    s = data.draw(st.sampled_from(K.simplices(p)))
    half = a + Cochain(K, p, {s: Fraction(1, 2)})
    with pytest.raises(FormatError, match="non-integer value"):
        cochain_from_json(cochain_to_json(half), K, "Z")


def _all_ints(c):
    return all(type(x) is int for x in c.coeffs.values()) and all(
        type(x) is int for x in c.to_vector())


@settings(max_examples=40, deadline=None)
@given(monotone_maps(), st.data())
def test_int_data_keeps_int_values(phi, data):
    """Each value is stored as the exact number it is: int data stays int
    through the operations, and no Fraction appears unless one entered."""
    K = phi.target
    p, q = _draw_degrees(data, K)
    a, a2, b = _draw_cochain(data, K, p), _draw_cochain(data, K, p), _draw_cochain(data, K, q)
    n = data.draw(st.integers(-4, 4))
    S1 = fixtures.circle()
    P = staircase_product(K, S1)
    big = _draw_cochain(data, P, p + 1)
    for c in (a, a + a2, a - a2, -a, a.scale(n), coboundary(a), pullback(phi, a),
              cup(a, b), slant_fiber(big, fundamental_cycle(S1))):
        assert _all_ints(c)
    assert type(pair(a, K.chain_from_vector(p, [1] * len(K.simplices(p))))) is int
    s = data.draw(st.sampled_from(K.simplices(p)))
    assert Cochain(K, p, {s: True}).coeffs == {s: 1}
    assert type(Cochain(K, p, {s: True}).value(s)) is int
    half = Cochain(K, p, {s: Fraction(1, 2)})
    assert type((a + half).value(s)) is Fraction


def test_integral_values_enter_as_int():
    """`_coerce` makes each integral value an int where values enter, and the
    constructors that check mu = curvature - d(lift) store it with int values."""
    K = fixtures.circle()
    a = Cochain(K, 0, {(0,): Fraction(4, 2), (1,): Fraction(1, 3)})
    assert [type(x) for x in a.to_vector()] == [int, Fraction, int]
    b = cochain_from_json({"degree": 0, "values": {"[0]": "3", "[1]": "-6/3", "[2]": "1/2"}}, K)
    assert b.coeffs == {(0,): 3, (1,): -2, (2,): Fraction(1, 2)}
    assert [type(x) for x in b.to_vector()] == [int, int, Fraction]
    c = Cochain.from_vector(K, 0, [Fraction(2), Fraction(-1), Fraction(1, 2)])
    assert [type(x) for x in c.to_vector()] == [int, int, Fraction]
    assert type(b.scale(Fraction(2)).value((0,))) is int
    characters = [fixtures.winding_character(), fixtures.torus_character(),
                  fixtures.rp2_flat_character()]
    cone = fixtures.equator_cone()
    s = find_section(random_character(cone.phi.target, 2, random.Random(5)), cone)
    f = rel_character_from_json(rel_character_to_json(s), cone)
    for mu in [h.mu for h in characters] + [f.mu_x, f.mu_a]:
        assert {type(x) for x in mu.coeffs.values()} <= {int}
