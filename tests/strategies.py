"""Hypothesis strategies and random draws shared by the test modules.

Small flag complexes, 0-dimensional complexes, monotone maps into flag
complexes, mapping cones of such maps, and random rational cochains.
Test modules import these from here, never from one another.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from diffchar.cochain import Cochain
from diffchar.simplicial import Complex, SimplicialMap, mapping_cone


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
