"""The table-driven chain operators against their per-simplex definitions.

`Chain.boundary`, `TensorChain.boundary`, `coboundary`, `push_chain`,
`SimplicialMap.matrix` and `pullback` read one memoized table per complex or
map; `tests/oracle.py` holds the face-by-face and simplex-by-simplex
definitions they must agree with, on flag complexes, on maps of every vertex
order (monotone, order-reversing, any, and the coordinate swap of a staircase
product) and on mapping cones.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings, strategies as st

import oracle
from diffchar import fixtures
from diffchar.cochain import Cochain, coboundary, pullback
from diffchar.simplicial import (
    SimplicialMap,
    TensorChain,
    mapping_cone,
    staircase_product,
    transpose_map,
)
from test_cochain import monotone_maps
from test_exact_linalg import clique_complex, flag_complexes


def _chain(data, K, n):
    vec = data.draw(st.lists(st.integers(-3, 3), min_size=len(K.simplices(n)),
                             max_size=len(K.simplices(n))))
    return K.chain_from_vector(n, vec)


def _cochain(data, K, n):
    vec = data.draw(st.lists(st.fractions(-4, 4, max_denominator=3),
                             min_size=len(K.simplices(n)), max_size=len(K.simplices(n))))
    return Cochain.from_vector(K, n, vec)


@st.composite
def simplicial_maps(draw, order="any"):
    """A simplicial map into a random flag complex whose vertex map is in any
    order, or weakly decreasing for order="reversing"; source edges go to
    vertices or edges of the target, so every clique goes to a simplex."""
    L = draw(flag_complexes(max_vertices=5))
    n = draw(st.integers(1, 6))
    vm = draw(st.lists(st.integers(0, L.num_vertices - 1), min_size=n, max_size=n))
    if order == "reversing":
        vm.sort(reverse=True)
    allowed = [
        (u, v) for u, v in combinations(range(n), 2)
        if vm[u] == vm[v] or L.has_simplex(tuple(sorted((vm[u], vm[v]))))
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(allowed), max_size=len(allowed)))
    return SimplicialMap(clique_complex(n, {e for e, k in zip(allowed, keep) if k}), L, vm)


@st.composite
def swaps(draw):
    """The coordinate swap of a staircase product of two small flag complexes."""
    A = draw(flag_complexes(max_vertices=3))
    B = draw(flag_complexes(max_vertices=3))
    return transpose_map(staircase_product(A, B), staircase_product(B, A))


any_maps = st.one_of(monotone_maps(), simplicial_maps(), simplicial_maps("reversing"), swaps())


@settings(max_examples=60, deadline=None)
@given(flag_complexes(), st.data())
def test_boundary_and_coboundary_match_their_definitions(K, data):
    n = data.draw(st.integers(0, K.dim + 1))
    c = _chain(data, K, n)
    assert c.boundary().coeffs == oracle.boundary(c.coeffs)
    assert c.boundary().degree == n - 1
    a = _cochain(data, K, n)
    assert coboundary(a).coeffs == oracle.coboundary(a.coeffs, K.simplices(n + 1))


@settings(max_examples=40, deadline=None)
@given(flag_complexes(max_vertices=4), flag_complexes(max_vertices=4), st.data())
def test_tensor_boundary_matches_its_definition(L, R, data):
    terms = data.draw(st.lists(
        st.tuples(st.sampled_from(list(L.all_simplices())),
                  st.sampled_from(list(R.all_simplices())), st.integers(-3, 3)),
        max_size=8))
    t = TensorChain(L, R, {(s, u): c for s, u, c in terms})
    assert t.boundary().coeffs == oracle.tensor_boundary(t.coeffs)


@settings(max_examples=80, deadline=None)
@given(any_maps, st.data())
def test_push_pull_and_matrix_match_their_definitions(phi, data):
    K, L = phi.source, phi.target
    n = data.draw(st.integers(0, K.dim))
    c = _chain(data, K, n)
    assert phi.push_chain(c).coeffs == oracle.push(phi.vertex_map, c.coeffs)
    a = _cochain(data, L, n)
    assert pullback(phi, a).coeffs == oracle.pull(phi.vertex_map, a.coeffs, K.simplices(n))
    columns = [oracle.push(phi.vertex_map, {s: 1}) for s in K.simplices(n)]
    assert phi.matrix(n).data == tuple(
        tuple(col.get(t, 0) for col in columns) for t in L.simplices(n)
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(monotone_maps(), simplicial_maps(), simplicial_maps("reversing")), st.data())
def test_mapping_cone_boundary_matches_its_definition(phi, data):
    cone = mapping_cone(phi)
    X, A = phi.target, phi.source
    n = data.draw(st.integers(0, max(X.dim, A.dim + 1) + 1))
    # Column of an X simplex s: (ds, 0); of an A simplex t: (phi_* t, -dt).
    columns = [(oracle.boundary({s: 1}), {}) for s in X.simplices(n)] + [
        (oracle.push(phi.vertex_map, {t: 1}), {f: -c for f, c in oracle.boundary({t: 1}).items()})
        for t in A.simplices(n - 1)
    ]
    rows = [(0, s) for s in X.simplices(n - 1)] + [(1, t) for t in A.simplices(n - 2)]
    assert cone.boundary_matrix(n).data == tuple(
        tuple(col[part].get(s, 0) for col in columns) for part, s in rows
    )
    x, a = _chain(data, X, n), _chain(data, A, n - 1)
    d = cone.chain(n, x.coeffs, a.coeffs).boundary()
    want_x = oracle.boundary(x.coeffs)
    for s, c in oracle.push(phi.vertex_map, a.coeffs).items():
        want_x[s] = want_x.get(s, 0) + c
    assert d.x_part.coeffs == {s: c for s, c in want_x.items() if c}
    assert d.a_part.coeffs == {s: -c for s, c in oracle.boundary(a.coeffs).items()}


def test_each_map_builds_its_push_table_once_per_degree(monkeypatch):
    S1, T2 = fixtures.circle(), fixtures.torus()
    h, z = fixtures.torus_character(), fixtures.circle_cycle()
    phi = SimplicialMap(S1, T2, [T2.encode(u, u) for u in range(3)])
    fresh = SimplicialMap(S1, T2, phi.vertex_map)
    built = []
    build = SimplicialMap._build_push
    monkeypatch.setattr(SimplicialMap, "_build_push",
                        lambda self, n: built.append((self is fresh, n)) or build(self, n))
    for _ in range(3):
        pullback(phi, h.curvature)
        pullback(phi, h.lift)
        phi.push_chain(z)
        phi.matrix(0)
        mapping_cone(phi).boundary_matrix(2)
    assert sorted(built) == [(False, 0), (False, 1), (False, 2)]
    fresh.push_chain(z)
    assert fresh.push_table(1) == phi.push_table(1)
    assert sorted(built) == [(False, 0), (False, 1), (False, 2), (True, 1)]
