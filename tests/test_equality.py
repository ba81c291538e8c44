"""One equality for the character groups, checked against the three it replaced.

`DirectSum.__eq__` and `is_zero` read the parts each group declares; the
references in `oracle` are the equalities characters, flat classes and
relative characters once wrote out one by one.  Both must agree on drawn
values, on pairs built to be equal (a lift changed by an integral cocycle or
by any integer cochain) and on pairs built to be unequal (a lift changed by
half of a free integral cocycle, or by a fractional torsion class, each a
flat class with a period outside Z).
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracle
from diffchar import fixtures
from diffchar.characters import (
    DiffChar,
    FlatClass,
    flat_character,
    flat_holonomy_class,
    fractional_torsion_class,
    iota,
    random_character,
    random_flat_character,
)
from diffchar.cochain import Cochain, zero_cochain
from diffchar.relative import RelChar, find_section, incl_flat
from diffchar.simplicial import ConeChain, SimplicialMap, identity_map, mapping_cone
from strategies import flag_complexes, mapping_cones


def _rng(data):
    return random.Random(data.draw(st.integers(0, 2**32 - 1)))


def _agree(equal, is_zero, a, b):
    """== and is_zero agree with the references on a, b and a - b, both
    ways round; returns whether a == b."""
    assert (a == b) == equal(a, b)
    assert (b == a) == equal(b, a)
    for v in (a, b, a - b):
        assert v.is_zero() == is_zero(v)
    return a == b


def _changes(space, degree, rng):
    """(integral, fractional) lift changes in the degree, as vectors over the
    space's basis: every cohomology generator and a random integer cochain,
    then half of every free generator, which pairs to 1/2 with its dual cycle."""
    coh = space.cohomology(degree)
    integral = coh.generators + [[rng.randint(-3, 3) for _ in range(coh.kernel.snf.cols)]]
    fractional = [[Fraction(x, 2) for x in gen] for gen in coh.generators[len(coh.torsion):]]
    return integral, fractional


_CHARACTERS = (oracle.character_equal, oracle.character_is_zero)
_FLAT = (oracle.flat_class_equal, oracle.flat_class_is_zero)
_RELATIVE = (oracle.relative_equal, oracle.relative_is_zero)


def _moved_character(h, vec):
    return DiffChar(h.curvature, h.lift + Cochain.from_vector(h.complex, h.degree - 1, vec))


@settings(max_examples=40, deadline=None)
@given(flag_complexes(max_vertices=6), st.data())
def test_character_equality_matches_the_reference(K, data):
    rng = _rng(data)
    k = data.draw(st.integers(1, K.dim + 1))
    h, g = random_character(K, k, rng), random_character(K, k, rng)
    _agree(*_CHARACTERS, h, g)
    _agree(*_CHARACTERS, h, h + g - g)
    integral, fractional = _changes(K, k - 1, rng)
    for vec in integral:
        assert _agree(*_CHARACTERS, h, _moved_character(h, vec))
    for vec in fractional:
        assert not _agree(*_CHARACTERS, h, _moved_character(h, vec))


@settings(max_examples=30, deadline=None)
@given(flag_complexes(max_vertices=5), st.data())
def test_flat_class_equality_matches_the_reference(K, data):
    rng = _rng(data)
    k = data.draw(st.integers(1, K.dim + 1))
    u, v = (flat_holonomy_class(random_flat_character(K, k, rng)) for _ in range(2))
    _agree(*_FLAT, u, v)
    integral, fractional = _changes(K, k - 1, rng)
    for vec in integral:
        assert _agree(*_FLAT, u, FlatClass(u.cochain + Cochain.from_vector(K, k - 1, vec)))
    for vec in fractional:
        assert not _agree(*_FLAT, u, FlatClass(u.cochain + Cochain.from_vector(K, k - 1, vec)))


def _moved_relative(f, vec):
    """f with its lift pair changed by the cone cochain vec (X part, then A part)."""
    X, A, k = f.phi.target, f.phi.source, f.degree
    nx = len(X.simplices(k - 1))
    return RelChar(
        f.cone, f.curvature, f.cov,
        f.lift_x + Cochain.from_vector(X, k - 1, vec[:nx]),
        f.lift_a + Cochain.from_vector(A, k - 2, vec[nx:]),
    )


def _relative_pairs(cone, k, rng):
    X, A = cone.phi.target, cone.phi.source
    f = find_section(iota(random_character(X, k, rng).lift), cone)
    g = incl_flat(random_character(A, k - 1, rng), cone)
    _agree(*_RELATIVE, f, g)
    _agree(*_RELATIVE, f + g, g + f)
    _agree(*_RELATIVE, f + g, f)
    integral, fractional = _changes(cone, k - 1, rng)
    for vec in integral:
        assert _agree(*_RELATIVE, f, _moved_relative(f, vec))
    for vec in fractional:
        assert not _agree(*_RELATIVE, f, _moved_relative(f, vec))
    return len(fractional)


@settings(max_examples=40, deadline=None)
@given(mapping_cones(), st.data())
def test_relative_equality_matches_the_reference(drawn, data):
    cone = drawn[0]
    X, A = cone.phi.target, cone.phi.source
    k = data.draw(st.integers(1, max(X.dim, A.dim + 1, 1)))
    _relative_pairs(cone, k, _rng(data))


def test_relative_equality_sees_fractional_cone_classes():
    """Cones with free cohomology in some lift degree, so that unequal pairs
    are built for certain: the circle into the 2-sphere along the equator,
    the circle into RP2, a point into the circle."""
    rng = random.Random(5)
    S1 = fixtures.circle()
    cones = [fixtures.equator_cone(), fixtures.torsion_loop_cone(),
             mapping_cone(SimplicialMap(fixtures.point(), S1, [0]))]
    assert sum(_relative_pairs(cone, k, rng) for cone in cones for k in (1, 2, 3)) > 0


def test_torsion_classes_move_characters_and_flat_classes():
    """On RP2 and the Klein bottle a fractional torsion class changes the
    lift by a flat class that only a torsion cycle detects."""
    rng = random.Random(11)
    seen = 0
    for name in ("RP2_6", "Klein_K"):
        K = fixtures.complex_by_name(name)
        for k in range(1, K.dim + 2):
            h = random_character(K, k, rng)
            for i, d in enumerate(K.homology(k - 1).torsion):
                for numerator in range(d + 1):
                    u = fractional_torsion_class(K, k - 1, i, numerator)
                    same = numerator % d == 0
                    assert _agree(*_CHARACTERS, h, h + flat_character(u)) == same
                    assert _agree(*_FLAT, u, u.scale(d + 1))
                    assert _agree(*_FLAT, u, FlatClass(u.cochain.scale(0))) == same
                    seen += 1
    assert seen == 2 * 3


def test_low_degree_characters_and_cone_chains():
    K = fixtures.torus()
    c = Cochain.from_vector(K, 0, [1] * len(K.simplices(0)))
    one = DiffChar(c, zero_cochain(K, -1))
    zero = DiffChar(zero_cochain(K, 0), zero_cochain(K, -1))
    assert _agree(*_CHARACTERS, one, one.scale(1))
    assert not _agree(*_CHARACTERS, one, zero)
    assert zero.is_zero() and not one.is_zero()
    below = DiffChar(zero_cochain(K, -1), zero_cochain(K, -2))
    assert below.is_zero() and below != DiffChar(zero_cochain(K, -2), zero_cochain(K, -3))
    cone = mapping_cone(identity_map(fixtures.circle()))
    z = cone.chain(1, {(0, 1): 2}, {(0,): -1})
    assert z == ConeChain(cone, 1, z.x_part, z.a_part)
    assert z != z.scale(2) and not z.is_zero() and (z - z).is_zero()
