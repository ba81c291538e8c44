"""Complexes, chains, products, EZ/AW, fundamental cycles, mapping cones."""

from __future__ import annotations

import random

import pytest

from diffchar import fixtures
from diffchar.simplicial import (
    Complex,
    TensorChain,
    NonOrientable,
    NotFundamentalChain,
    NotManifold,
    SimplicialMap,
    alexander_whitney,
    compose_maps,
    ez,
    fundamental_cycle,
    identity_map,
    mapping_cone,
    maximal_simplices,
    product_face_count,
    product_map,
    staircase_product,
    tensor,
    transpose_map,
    validate_fundamental_chain,
)


SURFACES = [
    fixtures.circle(),
    fixtures.sphere(),
    fixtures.torus(),
    fixtures.projective_plane(),
    fixtures.klein_bottle(),
]


def random_chain(K, degree, rng, span=5):
    coeffs = {s: rng.randint(-span, span) for s in K.simplices(degree)}
    return K.chain(degree, coeffs)


def test_face_closure():
    K = Complex(4, [(0, 1, 2, 3)])
    assert len(K.simplices(2)) == 4
    assert len(K.simplices(1)) == 6
    assert len(K.simplices(0)) == 4
    assert K.has_simplex((1, 3))


def test_simplex_validation():
    with pytest.raises(ValueError):
        Complex(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        Complex(3, [(1, 0)])
    with pytest.raises(ValueError):
        Complex(2, [(0, 2)])
    with pytest.raises(ValueError, match="^vertex True is not an integer$"):
        Complex(3, [(True, 2), (0, 1)])


@pytest.mark.parametrize("K", SURFACES, ids=lambda K: K.name)
def test_boundary_squares_to_zero(K):
    rng = random.Random(11)
    for degree in range(1, K.dim + 1):
        c = random_chain(K, degree, rng)
        assert c.boundary().boundary().is_zero()


def test_fixture_cell_counts():
    T2 = fixtures.torus()
    assert (len(T2.simplices(0)), len(T2.simplices(1)), len(T2.simplices(2))) == (9, 27, 18)
    KB = fixtures.klein_bottle()
    assert (len(KB.simplices(0)), len(KB.simplices(1)), len(KB.simplices(2))) == (9, 27, 18)
    RP2 = fixtures.projective_plane()
    assert (len(RP2.simplices(0)), len(RP2.simplices(1)), len(RP2.simplices(2))) == (6, 15, 10)


def test_chain_arithmetic():
    K = fixtures.circle()
    rng = random.Random(5)
    a = random_chain(K, 1, rng)
    b = random_chain(K, 1, rng)
    assert (a + b) - b == a
    assert (a - a).is_zero()
    assert a.scale(3) == a + a + a
    assert (-a) + a == K.chain(1, {})


def test_tensor_boundary_sign():
    # d(a x b) = da x b + (-1)^{deg a} a x db
    S1 = fixtures.circle()
    rng = random.Random(7)
    a = random_chain(S1, 1, rng)
    b = random_chain(S1, 1, rng)
    t = tensor(a, b)
    expected = tensor(a.boundary(), b) - tensor(a, b.boundary())
    assert t.boundary() == expected


def test_staircase_vertex_encoding_round_trip():
    P = fixtures.torus()
    for u in range(3):
        for w in range(3):
            assert P.decode(P.encode(u, w)) == (u, w)


def test_ez_is_a_chain_map():
    S1 = fixtures.circle()
    P = fixtures.torus()
    rng = random.Random(13)
    for p in (0, 1):
        for q in (0, 1):
            if p + q == 0:
                continue
            a = random_chain(S1, p, rng)
            b = random_chain(S1, q, rng)
            lhs = ez(a, b, P).boundary()
            rhs = P.chain(p + q - 1, {})
            if p >= 1:
                rhs = rhs + ez(a.boundary(), b, P)
            if q >= 1:
                rhs = rhs + ez(a, b.boundary(), P).scale((-1) ** p)
            assert lhs == rhs


def test_aw_after_ez_is_identity():
    # AW o EZ restricted to the (p, q) component returns the input tensor
    S1 = fixtures.circle()
    P = fixtures.torus()
    rng = random.Random(17)
    a = random_chain(S1, 1, rng)
    b = random_chain(S1, 1, rng)
    full = alexander_whitney(ez(a, b, P))
    comp = {
        k: v
        for k, v in full.coeffs.items()
        if (len(k[0]) - 1, len(k[1]) - 1) == (1, 1)
    }
    assert TensorChain(P.left, P.right, comp) == tensor(a, b)


def test_transpose_sign():
    # flipping the factors of EZ(a x b) costs (-1)^{pq}
    S1 = fixtures.circle()
    P = fixtures.torus()
    flip = transpose_map(P, P)
    rng = random.Random(19)
    for p in (0, 1):
        for q in (0, 1):
            a = random_chain(S1, p, rng)
            b = random_chain(S1, q, rng)
            lhs = flip.push_chain(ez(a, b, P))
            rhs = ez(b, a, P).scale((-1) ** (p * q))
            assert lhs == rhs


def test_fundamental_cycles():
    z = fundamental_cycle(fixtures.circle())
    assert z.degree == 1 and not z.is_zero()
    assert z.boundary().is_zero()
    for K in (fixtures.sphere(), fixtures.torus()):
        c = fundamental_cycle(K)
        assert c.degree == 2
        assert c.boundary().is_zero()
        assert all(x in (1, -1) for x in c.coeffs.values())
        assert len(c.coeffs) == len(K.simplices(2))


def test_fundamental_chain_of_interval():
    iv = fixtures.interval()
    c = fundamental_cycle(iv)
    assert c.degree == 1
    assert c.boundary() == iv.chain(0, {(1,): 1, (0,): -1})


def test_nonorientable_surfaces_refuse_orientation():
    with pytest.raises(NonOrientable):
        fundamental_cycle(fixtures.projective_plane())
    with pytest.raises(NonOrientable):
        fundamental_cycle(fixtures.klein_bottle())


def test_maximal_simplices_and_purity():
    # A triangle with a dangling edge, an isolated vertex and a vertex that
    # only the dangling edge meets.
    K = Complex(6, [(0, 1, 2), (2, 3), (5,)])
    assert maximal_simplices(K) == [(5,), (2, 3), (0, 1, 2)]
    with pytest.raises(NotManifold, match=r"simplex \(5,\) is maximal but has dimension 0"):
        fundamental_cycle(K)
    with pytest.raises(NotManifold, match="dimension 1"):
        fundamental_cycle(Complex(4, [(0, 1, 2), (2, 3)]))
    for K in SURFACES:
        assert maximal_simplices(K) == list(K.simplices(K.dim))
    assert maximal_simplices(Complex(0, [])) == []


def test_validate_fundamental_chain():
    T2 = fixtures.torus()
    c = fundamental_cycle(T2)
    validate_fundamental_chain(c)
    bad = c + T2.chain(2, {T2.simplices(2)[0]: 1})
    with pytest.raises(NotFundamentalChain):
        validate_fundamental_chain(bad)
    with pytest.raises(NotFundamentalChain):
        validate_fundamental_chain(c.scale(2))


def test_fundamental_chain_refusals():
    """Wrong degree, clashing orientations, a face with three top cofaces and
    the empty complex are refused with the reason."""
    T2, S1 = fixtures.torus(), fixtures.circle()
    with pytest.raises(NotFundamentalChain, match="^chain degree 1 is not the complex "
                                                  "dimension 2$"):
        validate_fundamental_chain(T2.chain(1, {}))
    z = fundamental_cycle(S1)
    flipped = z - S1.chain(1, {(0, 1): 2 * z.coeffs[(0, 1)]})
    with pytest.raises(NotFundamentalChain,
                       match=r"^boundary coefficient -2 on \(1,\); orientations clash$"):
        validate_fundamental_chain(flipped)
    book = Complex(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    with pytest.raises(NotManifold, match=r"^face \(0, 1\) has 3 cofaces$"):
        fundamental_cycle(book)
    pages = book.chain(2, {s: 1 for s in book.simplices(2)})
    with pytest.raises(NotFundamentalChain, match=r"^face \(0, 1\) has 3 top cofaces$"):
        validate_fundamental_chain(pages)
    with pytest.raises(NotManifold, match="^empty complex$"):
        fundamental_cycle(Complex(0, []))


def test_maps_refuse_mismatched_complexes():
    S1, iv, T2 = fixtures.circle(), fixtures.interval(), fixtures.torus()
    incl = SimplicialMap(iv, S1, [0, 1])
    with pytest.raises(ValueError, match="^maps do not compose$"):
        compose_maps(incl, incl)
    W = staircase_product(S1, iv)
    with pytest.raises(ValueError, match="^source factors do not match the maps$"):
        product_map(identity_map(S1), incl, T2, T2)
    with pytest.raises(ValueError, match="^target factors do not match the maps$"):
        product_map(identity_map(S1), incl, W, W)
    with pytest.raises(ValueError, match="^transpose requires the same factors in swapped order$"):
        transpose_map(W, W)
    with pytest.raises(ValueError, match="^chain does not live on the source complex$"):
        incl.push_chain(fundamental_cycle(S1))


def test_simplicial_map_validation():
    S1 = fixtures.circle()
    two = fixtures.two_points()
    with pytest.raises(ValueError):
        SimplicialMap(S1, two, [0, 1, 1])  # an edge would need image (0,1)
    with pytest.raises(ValueError, match="^target vertex True is not an integer$"):
        SimplicialMap(S1, S1, [0, True, 2])
    phi = SimplicialMap(S1, S1, [0, 0, 1])
    z = fundamental_cycle(S1)
    # degenerate images vanish and the backtracking remainder cancels
    assert phi.push_chain(z).is_zero()
    shift = SimplicialMap(S1, S1, [1, 2, 0])
    assert shift.push_chain(z) in (z, -z)


def test_compose_and_identity():
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    emb = T2.include_at_right(0)
    proj = T2.projection_left()
    assert compose_maps(proj, emb) == identity_map(S1)


def test_product_map_factors():
    S1 = fixtures.circle()
    iv = fixtures.interval()
    W = staircase_product(S1, iv)
    T2 = fixtures.torus()
    incl = SimplicialMap(iv, S1, [0, 1])
    Phi = product_map(identity_map(S1), incl, W, T2)
    for u in range(3):
        for w in range(2):
            assert Phi.vertex_map[W.encode(u, w)] == T2.encode(u, w)
    # target factors must match the factor maps' targets
    with pytest.raises(ValueError):
        product_map(identity_map(S1), incl, W, staircase_product(iv, S1))


def test_product_projections_are_built_once():
    P = staircase_product(fixtures.circle(), fixtures.interval())
    assert P.projection_left() is P.projection_left()
    assert P.projection_right() is P.projection_right()
    for w in range(P.num_vertices):
        u, v = P.decode(w)
        assert (P.projection_left().vertex_map[w], P.projection_right().vertex_map[w]) == (u, v)


def test_mapping_cone_relative_homology():
    """The cone of the equator inclusion computes relative homology."""
    cone = fixtures.equator_cone()
    h2 = cone.homology(2)
    assert h2.betti == 2 and list(h2.torsion) == []
    h1 = cone.homology(1)
    assert h1.betti == 0 and list(h1.torsion) == []
    assert cone.homology(0).betti == 0


def test_mapping_cone_boundary_squares_to_zero():
    cone = fixtures.torsion_loop_cone()
    rng = random.Random(23)
    X, A = cone.phi.target, cone.phi.source
    for degree in (1, 2):
        pairs = cone.chain(
            degree,
            x_coeffs={s: rng.randint(-4, 4) for s in X.simplices(degree)},
            a_coeffs={s: rng.randint(-4, 4) for s in A.simplices(degree - 1)},
        )
        assert pairs.boundary().boundary().is_zero()


def test_components():
    two = fixtures.two_points()
    assert len(two.components()) == 2
    assert len(fixtures.torus().components()) == 1
    # Sorted, by least vertex, whichever way the edges join them.
    K = Complex(8, [(1, 6), (0, 4), (2, 4), (5, 6), (3,), (7,)])
    assert K.components() == [[0, 2, 4], [1, 5, 6], [3], [7]]


def test_product_face_count_predicts_the_built_product():
    names = ["point", "interval", "S1_3", "S2_4", "T2_9", "RP2_6", "Klein_K"]
    for a in names:
        for b in names:
            A, B = fixtures.complex_by_name(a), fixtures.complex_by_name(b)
            P = staircase_product(A, B)
            assert product_face_count(A, B) == sum(1 for _ in P.all_simplices())
    assert product_face_count(fixtures.torus(), fixtures.projective_plane()) == 6804
