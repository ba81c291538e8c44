"""The sparse Smith engine against the oracle.

`smith_normal_form` eliminates on +-1 pivots first and then, on the same
sparse rows, Euclid style on non-unit pivots.  It must give the invariant
factors of tests/oracle.py and valid unimodular transforms on any matrix,
and on the boundary matrices of random flag complexes in particular.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

import diffchar
from diffchar import fixtures, io
from diffchar.characters import iota, random_character, trivialization
from diffchar.cochain import Cochain
from diffchar.exact_linalg import (
    IntMatrix,
    SnfDecomposition,
    smith_normal_form,
    solve_integer,
)
from diffchar.relative import find_section, project, pushforward_injective
from diffchar.simplicial import SimplicialMap, mapping_cone, staircase_product
from oracle import check_factorization
from strategies import flag_complexes, fresh, int_matrices, int_matrix_rows


def _factors(a):
    """The factorizations of a and of its transpose agree with the oracle, and
    so does the transpose of a's, with a's diagonal and rank."""
    snf = smith_normal_form(a)
    check_factorization(snf, a)
    check_factorization(smith_normal_form(a.transpose()), a.transpose())
    transposed = snf.transpose()
    check_factorization(transposed, a.transpose())
    assert (transposed.diagonal(), transposed.rank) == (snf.diagonal(), snf.rank)


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_smith_form_matches_the_oracle_on_random_matrices(a):
    _factors(a)


@settings(max_examples=40, deadline=None)
@given(flag_complexes())
def test_smith_form_matches_the_oracle_on_flag_complex_boundaries(K):
    for n in range(1, K.dim + 1):
        _factors(K.boundary_matrix(n))


def test_transpose_shares_the_sparse_storage():
    snf = smith_normal_form(fixtures.projective_plane().boundary_matrix(2))
    t = snf.transpose()
    assert (t.rows, t.cols, t.rank, t.factors) == (snf.cols, snf.rows, snf.rank, snf.factors)
    assert t._u is snf._v and t._u_inv is snf._v_inv
    assert t._v is snf._u and t._v_inv is snf._u_inv
    back = t.transpose()
    assert (back.rows, back.cols, back.rank) == (snf.rows, snf.cols, snf.rank)
    for name in ("factors", "_u", "_u_inv", "_v", "_v_inv"):
        assert getattr(back, name) is getattr(snf, name)


@pytest.fixture
def no_dense_views(monkeypatch):
    """Make the dense view of every IntMatrix and the five dense views of
    every factorization raise."""

    def refuse(self):
        raise AssertionError("dense view built")

    for name in ("U", "D", "V", "u_inv", "v_inv"):
        monkeypatch.setattr(SnfDecomposition, name, property(refuse))
    monkeypatch.setattr(IntMatrix, "data", property(refuse))


def _use_presentations(K, n, chains):
    """Class coordinates, torsion functionals and torsion fillings in degree n."""
    hom, coh = K.homology(n), K.cohomology(n)
    for group in (hom, coh):
        for g in group.generators:
            group.coordinates(g)
        for i in range(len(group.torsion)):
            group.torsion_functional(i)
    for d, g in zip(hom.torsion, hom.generators):
        x = solve_integer(K.boundary_snf(n + 1), [d * v for v in g])
        assert x is not None
        assert chains(n + 1, x).boundary() == chains(n, [d * v for v in g])


@pytest.mark.parametrize("pair", [("S1_3", "RP2_6"), ("Klein_K", "S1_3")])
def test_callers_never_build_the_dense_views(no_dense_views, pair):
    P = staircase_product(*(fixtures.complex_by_name(name) for name in pair))
    for n in range(P.dim + 1):
        _use_presentations(P, n, P.chain_from_vector)
        # Relations come from the memoized splitting's coordinates.
        assert P.homology(n).kernel is P.splitting(n)
        if n >= 1:
            values = [Fraction(i % 7, 5) for i in range(len(P.simplices(n - 1)))]
            h = iota(Cochain.from_vector(P, n - 1, values))
            assert iota(trivialization(h)) == h


def test_cone_callers_never_build_the_dense_views(no_dense_views):
    X, A = fresh("RP2_6"), fresh("S1_3")
    cone = mapping_cone(SimplicialMap(A, X, [0, 1, 2]))
    for n in range(X.dim + 2):
        _use_presentations(cone, n, cone.chain_from_vector)
    rng = random.Random(5)
    for k in (1, 2):
        assert project(find_section(random_character(X, k, rng), cone)).degree == k
    assert not pushforward_injective(cone.phi, 1)


def test_large_product_boundary_factors_in_bounded_memory():
    # d_3 of T2_9 x RP2_6: the dense engine took over a minute on it.  As
    # dense tuples d_3 held 6.1 M cells for 10,800 nonzeros, and building
    # and factoring it peaked near 94 MiB under tracemalloc.
    tracemalloc.start()
    try:
        P = staircase_product(fixtures.torus(), fixtures.projective_plane())
        snf = smith_normal_form(P.boundary_matrix(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (snf.rows, snf.cols) == (2268, 2700)
    assert snf.rank == 1620
    assert [d for d in snf.factors if d != 1] == [2, 2]
    assert peak < 40 * 2**20


@settings(max_examples=100, deadline=None)
@given(int_matrix_rows())
def test_dense_view_round_trips(drawn):
    rows, cols, dense = drawn
    a = IntMatrix(rows, cols, dense)
    assert (a.rows, a.cols) == (rows, cols)
    assert a.data == tuple(map(tuple, dense))
    assert a.entries == tuple({j: x for j, x in enumerate(row) if x} for row in dense)
    assert IntMatrix(a.rows, a.cols, a.data) == a
    t = a.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert all(t.data[j][i] == x for i, row in enumerate(dense) for j, x in enumerate(row))
    assert t.transpose() == a
    assert all(0 not in row.values() for row in a.entries + t.entries)


def test_boundary_matrices_match_their_dense_views():
    for name in fixtures.complex_names():
        K = fresh(name)
        for n in range(K.dim + 2):
            d = K.boundary_matrix(n)
            assert IntMatrix(d.rows, d.cols, d.data) == d
            assert d.transpose().transpose() == d
    for cone in (fixtures.equator_cone(), fixtures.torsion_loop_cone()):
        X, A = cone.phi.target, cone.phi.source
        for n in range(X.dim + 2):
            d = cone.boundary_matrix(n)
            assert IntMatrix(d.rows, d.cols, d.data) == d
            # Block rows [dx | phi] over [0 | -da].
            nx, na = cone.basis_sizes(n)
            dx = X.boundary_matrix(n).data
            phi = cone.phi.matrix(n - 1).data if n >= 1 else ((),) * len(dx)
            da = A.boundary_matrix(n - 1).data if n >= 2 else ()
            want = [x + y for x, y in zip(dx, phi)]
            want += [(0,) * nx + tuple(-v for v in row) for row in da]
            assert d.data == tuple(want)
            assert (d.rows, d.cols) == (len(want), nx + na)


def test_public_matrix_constructor_checks_its_input():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix(-1, 0, [])
    with pytest.raises(ValueError):
        IntMatrix(0, -2, [])
    for bad in (Fraction(1, 2), 1.0):
        with pytest.raises(TypeError):
            IntMatrix(1, 2, [[1, bad]])


def test_reports_do_not_depend_on_hash_seeds(tmp_path):
    P = staircase_product(fixtures.klein_bottle(), fixtures.circle())
    path = tmp_path / "product.json"
    path.write_text(io.dumps(io.complex_to_json(P)))
    src = os.path.dirname(os.path.dirname(diffchar.__file__))
    argvs = [["homology", "--complex", str(path), "--degree", str(n)] for n in (1, 2)]
    argvs.append(["verify", "--suite", "bb-oracle"])
    outputs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs[seed] = [
            subprocess.run([sys.executable, "-m", "diffchar.cli", *argv],
                           capture_output=True, env=env, check=True).stdout
            for argv in argvs
        ]
    assert outputs["0"] == outputs["1"]
