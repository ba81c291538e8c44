"""Maps between products, maximal simplices and the pushforward kernel
against their references in `tests/oracle.py`.

The package builds every map out of a staircase product through one
coordinate rule, `ProductComplex._map_of`; the references decode and encode
each vertex per map.  `maximal_simplices` reads the facets of the simplex
one dimension up; the reference reads empty rows of d_{n+1}.  The two
predicates of `relative` check one list of kernel cycles; the references
walk the kernel lattice each with its own combination loop.  Draws are flag
complexes and their staircase products, nested products for the
re-bracketing and the combined transfer, the fixtures and their cones,
identity maps and monotone maps.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracle
from diffchar import fixtures, io
from diffchar.characters import FlatClass, fractional_torsion_class
from diffchar.cochain import Cochain
from diffchar.fiber_integration import combined_transfer, product_transfer, rebracket_map
from diffchar.relative import flat_class_pulled_back, pushforward_injective
from diffchar.simplicial import (
    identity_map,
    maximal_simplices,
    product_map,
    staircase_product,
    transpose_map,
)
from test_cochain import monotone_maps
from test_exact_linalg import flag_complexes


@settings(max_examples=25, deadline=None)
@given(flag_complexes(max_vertices=4), flag_complexes(max_vertices=3))
def test_projections_and_transposes_match_their_walks(K, L):
    P, Q = staircase_product(K, L), staircase_product(L, K)
    assert P.projection_left().vertex_map == oracle.projection_vertices(P, 0)
    assert P.projection_right().vertex_map == oracle.projection_vertices(P, 1)
    assert transpose_map(P, Q).vertex_map == oracle.transpose_vertices(P, Q)
    assert transpose_map(Q, P).vertex_map == oracle.transpose_vertices(Q, P)


@settings(max_examples=20, deadline=None)
@given(monotone_maps(), flag_complexes(max_vertices=3), st.booleans())
def test_product_maps_match_their_walk(f, L, f_on_left):
    g = identity_map(L)
    if not f_on_left:
        f, g = g, f
    source = staircase_product(f.source, g.source)
    target = staircase_product(f.target, g.target)
    assert (product_map(f, g, source, target).vertex_map
            == oracle.product_map_vertices(f, g, source, target))


@settings(max_examples=15, deadline=None)
@given(flag_complexes(max_vertices=3), flag_complexes(max_vertices=3),
       flag_complexes(max_vertices=2))
def test_rebracketing_matches_its_walk(K, L, M):
    flat = staircase_product(K, staircase_product(L, M))
    nested = staircase_product(staircase_product(K, L), M)
    assert rebracket_map(flat, nested).vertex_map == oracle.rebracket_vertices(flat, nested)


_FIBERS = (fixtures.point, fixtures.two_points, fixtures.interval)


@settings(max_examples=10, deadline=None)
@given(flag_complexes(max_vertices=2), flag_complexes(max_vertices=2),
       st.sampled_from(_FIBERS), st.sampled_from(_FIBERS))
def test_the_combined_transfer_swap_matches_its_walk(K, L, F, G):
    left, right = product_transfer(K, F()), product_transfer(L, G())
    transfer, swap = combined_transfer(left, right)
    assert swap.source == transfer.total
    assert swap.vertex_map == oracle.combined_swap_vertices(left, right, swap.source,
                                                            swap.target)


def _fixture_complexes():
    return [fixtures.complex_by_name(name) for name in fixtures.complex_names()]


@settings(max_examples=40, deadline=None)
@given(flag_complexes(), flag_complexes(max_vertices=3), flag_complexes(max_vertices=3))
def test_maximal_simplices_match_the_coface_rows(K, L, M):
    for X in (K, staircase_product(L, M)):
        assert maximal_simplices(X) == oracle.maximal_simplices(X)


def test_maximal_simplices_of_the_fixtures_match_the_coface_rows():
    complexes = _fixture_complexes() + [fixtures.path_complex(3),
                                        staircase_product(fixtures.circle(), fixtures.interval())]
    for K in complexes:
        assert maximal_simplices(K) == oracle.maximal_simplices(K)


def test_serializing_a_complex_leaves_its_memo_empty():
    P = staircase_product(fixtures.circle(), fixtures.projective_plane())
    io.complex_to_json(P)
    assert P._memo == {}


def _flat_classes(A, d, fractions):
    """Flat classes of degree d on A: a fractional combination of the
    integral cohomology generators, and each fractional torsion class."""
    gens = A.cohomology(d).generators
    vec = [sum((c * g[i] for c, g in zip(fractions, gens)), Fraction(0))
           for i in range(len(A.simplices(d)))]
    classes = [FlatClass(Cochain.from_vector(A, d, vec))]
    for i, order in enumerate(A.homology(d).torsion):
        classes += [fractional_torsion_class(A, d, i, n) for n in range(1, order)]
    return classes


def _check_predicates(phi, fractions):
    A = phi.source
    for d in range(A.dim + 2):
        assert pushforward_injective(phi, d) == oracle.pushforward_injective(phi, d)
        if d > A.dim:
            continue
        for u in _flat_classes(A, d, fractions):
            assert flat_class_pulled_back(u, phi) == oracle.flat_class_pulled_back(u, phi)


_FRACTIONS = [
    [Fraction(1, 2), Fraction(1, 3), Fraction(2)],
    [Fraction(0), Fraction(1), Fraction(-5, 6)],
    [Fraction(1, 4), Fraction(0), Fraction(0)],
]


def test_predicates_match_their_references_on_the_fixtures():
    maps = [fixtures.equator_cone().phi, fixtures.torsion_loop_cone().phi]
    maps += [identity_map(K) for K in _fixture_complexes()]
    for phi in maps:
        for fractions in _FRACTIONS:
            _check_predicates(phi, fractions)


@settings(max_examples=80, deadline=None)
@given(st.one_of(monotone_maps(), flag_complexes().map(identity_map)),
       st.lists(st.fractions(-2, 2, max_denominator=6), min_size=4, max_size=4))
def test_predicates_match_their_references_on_drawn_maps(phi, fractions):
    _check_predicates(phi, fractions)
