"""Hypothesis strategies and random draws shared by the test modules.

Small integer matrices, small flag complexes, 0-dimensional complexes,
monotone maps into flag complexes, mapping cones of such maps, random
rational cochains, memo-free copies of the bundled complexes, and products
of relabeled ones.  Test modules import these from here, never from one
another.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from diffchar import fixtures
from diffchar.cochain import Cochain
from diffchar.exact_linalg import IntMatrix
from diffchar.simplicial import Complex, SimplicialMap, mapping_cone, staircase_product


@st.composite
def int_matrix_rows(draw):
    """(rows, cols, dense): the shape and entry lists of an integer matrix of
    at most 8 rows and 8 columns, the empty shapes among them, with entries
    of one kind: small integers, no units (so the Euclid phase and its
    divisibility step act), or 0 and +-1 as in a boundary matrix.  One draw
    in four zeroes some rows and columns; the others keep the matrix full."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entries = draw(st.sampled_from([
        st.integers(-9, 9),
        st.sampled_from([0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9]),
        st.sampled_from([0, 0, 0, 1, -1]),
    ]))
    dense = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if draw(st.integers(0, 3)) == 0:
        zero_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        zero_cols = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
        dense = [
            [0 if zero_rows[i] or zero_cols[j] else x for j, x in enumerate(row)]
            for i, row in enumerate(dense)
        ]
    return rows, cols, dense


def int_matrices():
    """The IntMatrix of each int_matrix_rows draw."""
    return int_matrix_rows().map(lambda drawn: IntMatrix(*drawn))


def clique_complex(n, edges):
    """The flag complex on vertices 0..n-1 of a set of sorted edge pairs."""
    cliques = [
        s
        for size in range(1, n + 1)
        for s in combinations(range(n), size)
        if all(e in edges for e in combinations(s, 2))
    ]
    return Complex(n, cliques)


@st.composite
def flag_complexes(draw, max_vertices=7):
    """Clique complex of a random graph on at most max_vertices vertices."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return clique_complex(n, {e for e, k in zip(pairs, keep) if k})


@st.composite
def zero_dimensional_complexes(draw, max_vertices=4):
    """Some of the vertices 0..n-1 as 0-simplices, perhaps none of them."""
    n = draw(st.integers(1, max_vertices))
    vertices = draw(st.lists(st.integers(0, n - 1), unique=True))
    return Complex(n, [(v,) for v in vertices])


@st.composite
def monotone_maps(draw):
    """A weakly monotone simplicial map into a random flag complex.

    The source is the clique complex of a random graph whose edges go to
    vertices or edges of the target; the target is a flag complex, so every
    clique goes to a simplex.
    """
    L = draw(flag_complexes(max_vertices=5))
    n = draw(st.integers(1, 6))
    vm = sorted(draw(st.lists(st.integers(0, L.num_vertices - 1), min_size=n, max_size=n)))
    allowed = [
        (u, v) for u, v in combinations(range(n), 2)
        if vm[u] == vm[v] or L.has_simplex((vm[u], vm[v]))
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(allowed), max_size=len(allowed)))
    K = clique_complex(n, {e for e, k in zip(allowed, keep) if k})
    return SimplicialMap(K, L, vm)


@st.composite
def mapping_cones(draw):
    """The cone of a random simplicial map A -> X into a flag complex X, and
    the cone's top degree.

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
    A = clique_complex(m, {e for e, k in zip(allowed, keep) if k})
    return mapping_cone(SimplicialMap(A, X, f)), max(X.dim, A.dim + 1)


def random_cochain(K, degree, rng, denom=4, span=8):
    """A rational cochain with values n/d, |n| <= span and 1 <= d <= denom."""
    vals = [
        Fraction(rng.randint(-span, span), rng.randint(1, denom))
        for _ in K.simplices(degree)
    ]
    return Cochain.from_vector(K, degree, vals, "Q")


def fresh(name):
    """A copy of a bundled complex that shares none of its memoized matrices."""
    K = fixtures.complex_by_name(name)
    return Complex(K.num_vertices, K.simplices(K.dim), name)


def relabeled_product(left, right, rng):
    """The staircase product of two bundled complexes, named, each with its
    vertices renamed by a permutation drawn from rng: the same groups, other
    matrices."""

    def relabel(K):
        perm = list(range(K.num_vertices))
        rng.shuffle(perm)
        return Complex(K.num_vertices, [tuple(sorted(perm[v] for v in s))
                                        for s in K.simplices(K.dim)], K.name)

    return staircase_product(relabel(fixtures.complex_by_name(left)),
                             relabel(fixtures.complex_by_name(right)))
