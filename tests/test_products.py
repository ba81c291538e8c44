"""Internal and external products, the cycle splitting, the evaluation formula."""

from __future__ import annotations

import random

import pytest

from diffchar import fixtures, verify
from diffchar.cochain import Cochain, cup, pair, zero_cochain
from diffchar.simplicial import (
    Complex,
    eilenberg_zilber,
    fundamental_cycle,
    staircase_product,
    tensor,
)
from diffchar.characters import (
    DiffChar,
    evaluate,
    random_character,
    random_flat_character,
)
from diffchar.products import (
    bb_evaluate,
    external_product,
    internal_product,
    kunneth_decompose,
    kunneth_split,
)


def test_internal_product_bilinear_and_associative():
    rng = random.Random(3)
    K = fixtures.projective_plane()
    h, h2, f, g = (random_character(K, 1, rng) for _ in range(4))
    hf = internal_product(h, f)
    assert verify.violation(verify.bilinearity(h, h2, f, hf, internal_product(f, h))) is None
    # associativity holds at the cochain level, not only up to equivalence
    assert verify.violation(verify.associativity(h, f, g, hf)) is None


def test_internal_product_multiplicativity():
    rng = random.Random(5)
    K = fixtures.torus()
    h = random_character(K, 1, rng)
    f = random_character(K, 1, rng)
    hf = internal_product(h, f)
    assert verify.violation(verify.multiplicativity(h, f, hf)) is None
    # the integral cocycle is the cup product on the nose, not only in class
    assert hf.mu == cup(h.mu, f.mu)


def test_internal_product_naturality():
    rng = random.Random(7)
    T2 = fixtures.torus()
    h = random_character(T2, 1, rng)
    f = random_character(T2, 1, rng)
    hf = internal_product(h, f)
    assert verify.violation(verify.naturality(T2.include_at_left(0), h, f, hf)) is None


def test_iota_and_flat_compatibility():
    rng = random.Random(11)
    K = fixtures.klein_bottle()
    f = random_character(K, 1, rng)
    rho = random_character(K, 1, rng).lift
    assert verify.violation(verify.iota_compatibility(rho, f)) is None
    u = random_flat_character(K, 1, rng).lift
    assert verify.violation(verify.flat_compatibility(u, f)) is None


def test_commutativity_restated():
    """The commutator is topologically trivial with curvature
    (-1)^(k+l+kl) d(cup_1); two even degrees need a 4-dimensional complex."""
    rng = random.Random(13)
    T2 = fixtures.torus()
    simplex = Complex(5, [tuple(range(5))])
    for K, k, l in ((T2, 1, 1), (T2, 1, 2), (T2, 2, 1), (simplex, 2, 2)):
        h = random_character(K, k, rng)
        f = random_character(K, l, rng)
        hf, fh = internal_product(h, f), internal_product(f, h)
        assert verify.violation(verify.commutativity_defect(h, f, hf, fh)) is None


def test_degree_zero_factors_act_by_their_cocycle():
    rng = random.Random(17)
    K = fixtures.circle()
    h = random_character(K, 1, rng)
    one = DiffChar(Cochain(K, 0, {v: 1 for v in K.simplices(0)}, "Z"), zero_cochain(K, -1))
    assert internal_product(h, one) == h
    assert internal_product(one, h) == h
    two = DiffChar(Cochain(K, 0, {v: 2 for v in K.simplices(0)}, "Z"), zero_cochain(K, -1))
    assert internal_product(h, two) == h.scale(2)
    below = DiffChar(zero_cochain(K, -1), zero_cochain(K, -2))
    assert internal_product(h, below).is_zero()
    assert internal_product(below, below).is_zero()


def test_poincare_bundle_frozen_values():
    hh = fixtures.torus_character()
    assert evaluate(hh, fixtures.gamma_first()) == 0
    assert evaluate(hh, fixtures.gamma_second()) == 0
    assert pair(hh.curvature, fixtures.torus_cycle()) == 1


def test_external_product_definition_matches_pullback_cup():
    # on a product, x-product curvature is the cup of the two pullbacks
    S1 = fixtures.circle()
    RP2 = fixtures.projective_plane()
    P = staircase_product(S1, RP2)
    rng = random.Random(19)
    h = random_character(S1, 1, rng)
    f = random_character(RP2, 1, rng)
    hf = external_product(h, f, P)
    from diffchar.cochain import pullback as pull

    wl = pull(P.projection_left(), h.curvature)
    wr = pull(P.projection_right(), f.curvature)
    assert hf.curvature == cup(wl, wr)


def test_kunneth_split_include_round_trip():
    T2 = fixtures.torus()
    S1 = fixtures.circle()
    z = fundamental_cycle(S1)
    v0 = S1.chain(0, {(0,): 1})
    for t in (tensor(z, v0), tensor(v0, z), tensor(z, z)):
        assert kunneth_split(eilenberg_zilber(t, T2)) == t


def test_kunneth_decompose_invariants():
    T2 = fixtures.torus()
    rng = random.Random(23)
    basis = T2.splitting(1).cycle_basis
    for vec in basis[:6]:
        z = T2.chain_from_vector(1, vec)
        dec = kunneth_decompose(z)
        assert dec.projected + dec.remainder == z
        assert dec.remainder.is_cycle()
        assert dec.order >= 1
        assert dec.filling.boundary() == dec.remainder.scale(dec.order)


def test_bb_evaluate_matches_direct_evaluation_samples():
    T2 = fixtures.torus()
    rng = random.Random(29)
    S1 = fixtures.circle()
    h = random_character(S1, 1, rng)
    f = random_character(S1, 1, rng)
    hf = external_product(h, f, T2)
    for z in (fixtures.gamma_first(), fixtures.gamma_second()):
        assert bb_evaluate(h, f, z, product=T2) == evaluate(hf, z)
    for vec in T2.splitting(1).cycle_basis:
        z = T2.chain_from_vector(1, vec)
        assert bb_evaluate(h, f, z, product=T2) == evaluate(hf, z)


def test_bb_evaluate_mixed_degree_sample():
    S1 = fixtures.circle()
    RP2 = fixtures.projective_plane()
    P = staircase_product(S1, RP2)
    rng = random.Random(31)
    h = random_character(S1, 1, rng)
    f = random_character(RP2, 2, rng)
    hf = external_product(h, f, P)
    for vec in P.splitting(2).cycle_basis[:8]:
        z = P.chain_from_vector(2, vec)
        assert bb_evaluate(h, f, z, product=P) == evaluate(hf, z)


def test_bb_evaluate_refuses_a_cycle_off_the_given_product():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    P = staircase_product(S1, fixtures.projective_plane())
    rng = random.Random(37)
    h = random_character(S1, 1, rng)
    f = random_character(S1, 1, rng)
    cycles = [P.chain_from_vector(1, vec) for vec in P.splitting(1).cycle_basis]
    for z in cycles + [fundamental_cycle(S1)]:
        with pytest.raises(ValueError, match="given product") as info:
            bb_evaluate(h, f, z, T2)
        assert type(info.value) is ValueError
