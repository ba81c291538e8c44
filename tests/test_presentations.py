"""Homology and cohomology from one Smith elimination per degree, against the oracle.

Degree n factors only N_n, the boundary d_n written in the cycle coordinates
of C_{n-1}.  The cycle splitting, the presentations of H_n and H^n and the
factorizations of d_n and of its transpose are all read off those
eliminations, so on random flag complexes and random mapping cones every
degree is checked here against tests/oracle.py, which shares no code with
the package.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from diffchar import fixtures
from diffchar.exact_linalg import _combination, _LazyHead, solve_integer
from diffchar.simplicial import Complex, SimplicialMap, mapping_cone, staircase_product
from oracle import (
    apply, homology_rank_and_torsion, identity, invariant_factors, matmul, rational_rank,
)
from test_exact_linalg import flag_complexes


@st.composite
def flag_complexes_with_top(draw):
    K = draw(flag_complexes())
    return K, K.dim


@st.composite
def mapping_cones(draw):
    """The cone of a random simplicial map A -> X into a flag complex X.

    A is the flag complex of a random graph on vertices that the vertex map
    sends to equal or adjacent vertices of X, so every clique of A lands on
    a clique of X, which X contains; collapses are allowed.
    """
    X = draw(flag_complexes(max_vertices=6))
    m = draw(st.integers(1, 4))
    f = draw(st.lists(st.integers(0, X.num_vertices - 1), min_size=m, max_size=m))
    edges_x = set(X.simplices(1))
    allowed = [
        (u, v)
        for u, v in combinations(range(m), 2)
        if f[u] == f[v] or tuple(sorted((f[u], f[v]))) in edges_x
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(allowed), max_size=len(allowed)))
    edges = {e for e, k in zip(allowed, keep) if k}
    cliques = [
        s
        for size in range(1, m + 1)
        for s in combinations(range(m), size)
        if all(e in edges for e in combinations(s, 2))
    ]
    A = Complex(m, cliques)
    return mapping_cone(SimplicialMap(A, X, f)), max(X.dim, A.dim + 1)


@st.composite
def staircase_products(draw):
    """The staircase product of two small random flag complexes."""
    K, L = draw(flag_complexes(max_vertices=3)), draw(flag_complexes(max_vertices=3))
    P = staircase_product(K, L)
    return P, P.dim


def _in_image(a, b):
    """Whether b is an integer combination of the columns of a, by the oracle:
    appending b keeps the invariant factors exactly when it does."""
    augmented = [list(row) + [x] for row, x in zip(a.data, b)]
    return invariant_factors(augmented) == invariant_factors(a.data)


def _check_group(group, out, in_):
    """H = ker(out) / im(in): size, closed generators, unit coordinates, and
    generators that form an adapted basis by the oracle's count."""
    assert (group.betti, group.torsion) == homology_rank_and_torsion(
        out.data, in_.data, out.cols
    )
    t = len(group.torsion)
    for i, g in enumerate(group.generators):
        assert not any(apply(out, g))
        free, tors = group.coordinates(g)
        assert tors == tuple(int(i == k) for k in range(t))
        assert free == tuple(int(i == t + k) for k in range(group.betti))
    # im(in) and the generators span all of ker(out), and d * g is a boundary
    # for each torsion generator g of order d: a group of the oracle's type
    # generated so is presented by exactly these generators.
    spanned = [list(row) + [g[i] for g in group.generators] for i, row in enumerate(in_.data)]
    assert invariant_factors(spanned) == [1] * (out.cols - rational_rank(out.data))
    for d, g in zip(group.torsion, group.generators):
        assert _in_image(in_, [d * x for x in g])
    # The relation factorization is one of the relations in cycle coordinates.
    rel = group._rel_snf
    assert matmul(matmul(rel.U, rel.D), rel.V) == group.kernel.relations(in_)


def _check_factorization(snf, a):
    assert matmul(matmul(snf.U, snf.D), snf.V) == a
    assert matmul(snf.U, snf.u_inv) == identity(a.rows)
    assert matmul(snf.V, snf.v_inv) == identity(a.cols)


def _check_solves(snf, a, draw):
    x = draw(a.cols, (-2, -1, 0, 1, 2))
    b = [y + e for y, e in zip(apply(a, x), draw(a.rows, (0, 0, 0, 1, -1, 2)))]
    solution = solve_integer(snf, b)
    assert (solution is not None) == _in_image(a, b)
    if solution is not None:
        assert apply(a, solution) == b


def _check_every_degree(K, top, draw):
    """`draw(length, choices)` gives the random vectors the solves use."""
    for n in range(top + 2):
        d_out, d_in = K.boundary_matrix(n), K.boundary_matrix(n + 1)
        co_out, co_in = d_in.transpose(), d_out.transpose()
        hom = K.homology(n)
        _check_group(hom, d_out, d_in)
        _check_group(K.cohomology(n), co_out, co_in)
        _check_factorization(K.boundary_snf(n), d_out)
        _check_factorization(K.coboundary_snf(n), co_out)
        _check_solves(K.boundary_snf(n), d_out, draw)
        _check_solves(K.coboundary_snf(n), co_out, draw)
        for d, g in zip(hom.torsion, hom.generators):
            filling = solve_integer(K.boundary_snf(n + 1), [d * x for x in g])
            assert apply(d_in, filling) == [d * x for x in g]


def _drawing(data):
    return lambda length, choices: data.draw(
        st.lists(st.sampled_from(choices), min_size=length, max_size=length)
    )


@settings(max_examples=60, deadline=None)
@given(flag_complexes_with_top(), st.data())
def test_flag_complexes_in_every_degree(complex_and_top, data):
    _check_every_degree(*complex_and_top, _drawing(data))


@settings(max_examples=60, deadline=None)
@given(mapping_cones(), st.data())
def test_mapping_cones_in_every_degree(cone_and_top, data):
    _check_every_degree(*cone_and_top, _drawing(data))


def _seeded(seed):
    rng = random.Random(seed)
    return lambda length, choices: rng.choices(choices, k=length)


def _fresh(name):
    K = fixtures.complex_by_name(name)
    return Complex(K.num_vertices, K.simplices(K.dim), name)


@pytest.mark.parametrize("name", ["RP2_6", "Klein_K", "T2_9"])
def test_torsion_fixtures_in_every_degree(name):
    K = _fresh(name)
    _check_every_degree(K, K.dim, _seeded(name))


def test_torsion_cone_in_every_degree():
    # The circle wrapped around the torsion loop of RP2_6, and the same
    # circle doubled onto a circle: torsion from the map alone.
    draw = _seeded(7)
    X, A = _fresh("RP2_6"), _fresh("S1_3")
    _check_every_degree(mapping_cone(SimplicialMap(A, X, [0, 1, 2])), 2, draw)
    hexagon = _fresh("S1_6")
    doubled = SimplicialMap(hexagon, _fresh("S1_3"), [0, 1, 2, 0, 1, 2])
    _check_every_degree(mapping_cone(doubled), 2, draw)


# Class coordinates read only the torsion and free rows of U_N^{-1}; they
# must be the free entries and the reduced torsion entries of the adapted
# coordinates, for kernel vectors, and refuse any other vector.


def _check_class_coordinates(K, top, draw):
    for n in range(top + 2):
        d_out, d_in = K.boundary_matrix(n), K.boundary_matrix(n + 1)
        for group, out in ((K.homology(n), d_out), (K.cohomology(n), d_in.transpose())):
            z = group.kernel.snf.cols - group.kernel.snf.rank
            v = group.kernel.combine(draw(z, (-3, -1, 0, 0, 1, 2)))
            assert not any(apply(out, v))
            w = group.adapted_coordinates(v)
            free = tuple(w[i] for i in group.free_positions())
            tors = tuple(w[i] % d for i, d in zip(group.torsion_positions(), group.torsion))
            assert group.coordinates(v) == (free, tors)
            j = next((j for j in range(out.cols) if any(j in row for row in out.entries)), None)
            if j is not None:
                v[j] += 1
                with pytest.raises(ValueError):
                    group.coordinates(v)


@settings(max_examples=40, deadline=None)
@given(flag_complexes_with_top(), st.data())
def test_class_coordinates_on_flag_complexes(complex_and_top, data):
    _check_class_coordinates(*complex_and_top, _drawing(data))


@settings(max_examples=40, deadline=None)
@given(mapping_cones(), st.data())
def test_class_coordinates_on_mapping_cones(cone_and_top, data):
    _check_class_coordinates(*cone_and_top, _drawing(data))


@settings(max_examples=15, deadline=None)
@given(staircase_products(), st.data())
def test_class_coordinates_on_staircase_products(product_and_top, data):
    _check_class_coordinates(*product_and_top, _drawing(data))


@pytest.mark.parametrize("name", ["RP2_6", "Klein_K"])
def test_class_coordinates_on_torsion_fixtures(name):
    K = _fresh(name)
    _check_class_coordinates(K, K.dim, _seeded(name))


# The first columns of a lifted U are built on first read.  Reading the
# tail first, as cohomology does, must leave the factorization as it is
# when the whole U is read first.


def _transforms(snf):
    return [list(map(dict, t)) for t in (snf._u, snf._u_inv, snf._v, snf._v_inv)]


def _check_lifts_after_cohomology(make, top):
    """Returns the number of degrees whose U had a head left to build."""
    lazy = 0
    for n in range(1, top + 2):
        tail_first, fresh = make(), make()
        tail_first.cohomology(n - 1)
        snf = tail_first.boundary_snf(n)
        if isinstance(snf._u, _LazyHead) and snf._u._head:
            assert snf._u._items is None
            lazy += 1
        assert _transforms(snf) == _transforms(fresh.boundary_snf(n))
        _check_factorization(snf, tail_first.boundary_matrix(n))
    return lazy


@settings(max_examples=30, deadline=None)
@given(flag_complexes_with_top())
def test_lifts_read_after_cohomology_on_flag_complexes(complex_and_top):
    K, top = complex_and_top
    _check_lifts_after_cohomology(lambda: Complex(K.num_vertices, K.all_simplices()), top)


@settings(max_examples=30, deadline=None)
@given(mapping_cones())
def test_lifts_read_after_cohomology_on_mapping_cones(cone_and_top):
    cone, top = cone_and_top
    phi = cone.phi
    _check_lifts_after_cohomology(lambda: mapping_cone(phi), top)


@pytest.mark.parametrize("pair", [("S1_3", "RP2_6"), ("Klein_K", "S1_3")])
def test_lifts_read_after_cohomology_on_torsion_products(pair):
    left, right = (_fresh(name) for name in pair)
    assert _check_lifts_after_cohomology(lambda: staircase_product(left, right), 3) == 3


_sparse_vectors = st.dictionaries(
    st.integers(0, 5), st.integers(-3, 3).filter(bool), max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(_sparse_vectors, min_size=1, max_size=4).flatmap(lambda vectors: st.tuples(
    st.just(vectors),
    st.lists(st.dictionaries(st.integers(0, len(vectors) - 1),
                             st.integers(-2, 2).filter(bool), max_size=3), max_size=4),
    st.lists(_sparse_vectors, max_size=4),
)))
def test_lazy_head_reads_like_a_list(drawn):
    vectors, head, tail = drawn
    plain = [_combination(c, vectors) for c in head] + tail
    n = len(plain)

    def fresh():
        return _LazyHead(head, vectors, tail)

    assert len(fresh()) == n
    assert list(fresh()) == plain
    for k in range(-n, n):
        assert fresh()[k] == plain[k]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            fresh()[k]
    bounds = [None] + list(range(-n - 1, n + 2))
    for start in bounds:
        for stop in bounds:
            for step in (None, 1, 2, -1, -3):
                assert fresh()[start:stop:step] == plain[start:stop:step]
    # Slices within the tail, as cocycle coordinates read it, leave the
    # head unbuilt.
    lazy = fresh()
    assert lazy[len(head):] == tail
    assert lazy[len(head) + 1:n + 2] == tail[1:]
    assert lazy[n:len(head)] == []
    assert lazy._items is None
