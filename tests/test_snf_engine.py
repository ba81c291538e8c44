"""The sparse Smith engine against the oracle.

`smith_normal_form` eliminates on +-1 pivots first and then, on the same
sparse rows, Euclid style on non-unit pivots.  It must give the invariant
factors of tests/oracle.py and valid unimodular transforms on any matrix,
and on the boundary matrices of random flag complexes in particular.  The
vectors it hands out are shared rather than copied, so no reader may change
them.  Every identity vector e_k they hold that no Euclid-phase step wrote,
which on the factorizations of a complex is every one, is the {k: 1} of
the engine's unit table, which must stay as it is.  V^{-1} is not stored
but answered from V: whole reads are substitutions and single columns
are built on read, on a factorization, its transpose and a lift, and all
equal the products with the oracle's inverse of V; U's unit-pivot columns
are derived from U^{-1} on the first read that reaches them, and equal the
oracle's inverse of U^{-1}.  A product's
factorizations keep few bytes beside its boundary matrices.  No complex keeps its boundary
matrices: the elimination reads d_n once, and readers that come back to it
build it once for its row tables.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffchar
from diffchar import exact_linalg, fixtures, io
from diffchar.characters import iota, random_character, trivialization
from diffchar.cochain import Cochain, coboundary
from diffchar.exact_linalg import (
    CycleSplitting,
    IntMatrix,
    QuotientPresentation,
    SnfDecomposition,
    _accumulate,
    _dense,
    _dots,
    kernel_basis,
    smith_normal_form,
    solve_integer,
    solve_rational,
)
from diffchar.relative import find_section, project, pushforward_injective
from diffchar.simplicial import (
    Complex,
    MappingCone,
    SimplicialMap,
    _Memo,
    mapping_cone,
    staircase_product,
)
from oracle import apply, check_factorization, identity, inverse, matmul
from strategies import flag_complexes, fresh, int_matrices, int_matrix_rows


def _factors(a):
    """The factorizations of a and of its transpose agree with the oracle, and
    so does the transpose of a's, with a's diagonal and rank."""
    snf = smith_normal_form(a)
    check_factorization(snf, a)
    check_factorization(smith_normal_form(a.transpose()), a.transpose())
    transposed = snf.transpose()
    check_factorization(transposed, a.transpose())
    assert (transposed.factors, transposed.rank) == (snf.factors, snf.rank)


def _shares_the_units(snf):
    """Every vector {k: 1} of the four transforms is the unit table's e_k."""
    for vectors in (snf._u, snf._u_inv, snf._v, snf._v_inv):
        for vec in vectors:
            if len(vec) == 1 and 1 in vec.values():
                assert vec is exact_linalg._UNITS[next(iter(vec))]


def _unit_table_is_intact():
    assert all(vec == {k: 1} for k, vec in enumerate(exact_linalg._UNITS))


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_smith_form_matches_the_oracle_on_random_matrices(a):
    _factors(a)


@settings(max_examples=100, deadline=None)
@given(int_matrices())
def test_identity_vectors_are_the_shared_units_on_random_matrices(a):
    # The draws hold small integers, entries without a unit, or 0 and +-1.
    rng = random.Random(a.rows * 9 + a.cols)
    for m in (a, a.transpose()):
        snf = smith_normal_form(m)
        for t in (snf, snf.transpose()):
            solve_integer(t, [rng.randint(-3, 3) for _ in range(t.rows)])
            solve_rational(t, [Fraction(rng.randint(-3, 3), 2) for _ in range(t.rows)])
            t.apply_v_inv([rng.randint(-3, 3) for _ in range(t.cols)])
            kernel_basis(t)
    _unit_table_is_intact()


@settings(max_examples=40, deadline=None)
@given(flag_complexes())
def test_smith_form_matches_the_oracle_on_flag_complex_boundaries(K):
    for n in range(1, K.dim + 1):
        _factors(K.boundary_matrix(n))
    for n in range(K.dim + 1):
        for snf in (K.relation_snf(n), K.boundary_snf(n), K.coboundary_snf(n)):
            _shares_the_units(snf)


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


# V^{-1} is not stored: it is answered from V.  A column read alone is built
# by a sparse substitution over V's unit-pivot rows and, past the unit
# pivots, kept; a unit pivot's column is never kept, and a whole read
# (`_dots`, `apply_v_inv`) is one substitution that builds no column.


def _kept(snf):
    """The positions of the columns of V^{-1} kept so far."""
    return sorted(snf._v_inv._core[4])


def _built_on_read(snf, want):
    """The positions past the unit pivots whose column of V^{-1}, the
    oracle's `want`, is not the stored column of W^{-1}: those a read builds."""
    m, w = len(snf._v_inv._core[1]), snf._v_inv._core[2]
    return [k for k in range(m, snf.cols) if want[k] != w[k - m]]


def _columns(a):
    """The columns of an IntMatrix as sparse dicts."""
    return [{i: row[j] for i, row in enumerate(a.data) if row[j]} for j in range(a.cols)]


def _product_factorization():
    snf = smith_normal_form(staircase_product(fresh("S1_3"), fresh("S1_3")).boundary_matrix(1))
    assert len(_built_on_read(snf, _columns(inverse(snf.V)))) > 1
    return snf


def test_reading_one_cycle_basis_column_builds_it_alone():
    snf = _product_factorization()
    want = _columns(inverse(snf.V))
    split = CycleSplitting(snf)
    built = _built_on_read(snf, want)
    assert min(built) >= snf.rank and _kept(snf) == []
    k = built[len(built) // 2]
    col = split._cols[k - snf.rank]
    assert col == want[k]
    assert _kept(snf) == [k]
    assert split._cols[k - snf.rank] is col and snf._v_inv[k] is col
    # combine multiplies only the columns with a nonzero coordinate.
    m = built[0]
    coords = [int(i == m - snf.rank) for i in range(len(split._cols))]
    assert split.combine(coords) == _dense(snf.cols, want[m])
    assert _kept(snf) == sorted({k, m})


def test_iterating_the_cycle_basis_builds_the_rest():
    snf = _product_factorization()
    want = _columns(inverse(snf.V))
    split = CycleSplitting(snf)
    first = split._cols[0]
    tail = list(split._cols)
    assert _kept(snf) == _built_on_read(snf, want)
    assert tail[0] is first
    assert tail == want[snf.rank:]
    # The unit pivots' columns are built on each read and never kept.
    assert list(snf._v_inv) == want
    assert _kept(snf) == _built_on_read(snf, want)
    assert kernel_basis(snf) == [_dense(snf.cols, col) for col in want[snf.rank:]]


def test_a_transpose_reads_the_same_lazily_built_columns():
    snf = _product_factorization()
    t = snf.transpose()
    k = _built_on_read(snf, _columns(inverse(snf.V)))[-1]
    row = t._u_inv[k]
    assert snf._v_inv[k] is row
    assert _kept(snf) == [k]
    rng = random.Random(1)
    b = [rng.randint(-3, 3) for _ in range(t.rows)]
    # One forward substitution over V's rows: it builds no column.
    assert t.apply_u_inv(b) == apply(inverse(snf.V).transpose(), b)
    assert _kept(snf) == [k]
    assert t._u_inv[k] is row


@st.composite
def _mixed_matrices(draw):
    """Matrices of up to 8 x 8 with unit and non-unit entries, so that unit
    pivots hold columns which the Euclid phase then steps, pivots on or
    leaves alone."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.sampled_from([0, 0, 1, -1, 2, -2, 3])
    return IntMatrix(rows, cols, [draw(st.lists(entry, min_size=cols, max_size=cols))
                                  for _ in range(rows)])


def _check_columns_on_read(a, data):
    """Columns read one at a time, in a drawn order, are those of the
    oracle's inverse of V, on a and on its transpose; those built past the
    unit pivots are kept, and no unit pivot's is."""
    for m in (a, a.transpose()):
        snf = smith_normal_form(m)
        want = _columns(inverse(snf.V))
        for k in data.draw(st.permutations(range(snf.cols))):
            assert snf._v_inv[k] == want[k]
        assert _kept(snf) == _built_on_read(snf, want)
        assert matmul(snf.V, snf.v_inv) == identity(m.cols)


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.data())
def test_cycle_basis_columns_built_on_read_are_the_inverses_columns(a, data):
    _check_columns_on_read(a, data)


@settings(max_examples=100, deadline=None)
@given(_mixed_matrices(), st.data())
def test_columns_the_euclid_phase_touches_are_the_inverses_columns(a, data):
    _check_columns_on_read(a, data)


@settings(max_examples=50, deadline=None)
@given(_mixed_matrices())
def test_lazily_built_columns_read_like_a_list(a):
    plain = list(map(dict, smith_normal_form(a)._v_inv))
    n = len(plain)

    def unread():
        return smith_normal_form(a)._v_inv

    assert len(unread()) == n
    for k in range(-n, n):
        assert unread()[k] == plain[k]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            unread()[k]
    # Each start reads from a new factorization, whose columns its reads
    # build one slice at a time; a head put before the columns reads first.
    bounds = [None] + list(range(-n - 3, n + 4))
    for head in ([], [{0: 5}, {1: -1}]):
        whole = head + plain
        for start in bounds:
            columns = head + unread()
            for stop in bounds:
                for step in (None, 1, 2, -1):
                    got = columns[start:stop:step]
                    assert len(got) == len(whole[start:stop:step])
                    assert list(got) == whole[start:stop:step]
                    if step in (None, 1) and len(got):
                        assert got[-1] == whole[start:stop][-1]
                        assert list(got[1:]) == whole[start:stop][1:]


def test_the_euclid_phase_keeps_only_its_own_block():
    # The unit pivot at (0, 0) holds columns 1 and 2; the Euclid phase
    # pivots on column 1 and steps column 2.  Of V^{-1} it keeps only its
    # own block W^{-1}, on columns 1 and 2, which a read completes at the
    # unit pivot's column 0.
    snf = smith_normal_form(IntMatrix(2, 3, [[1, 1, 1], [0, 2, 2]]))
    assert snf.factors == [1, 2]
    want = _columns(inverse(snf.V))
    _, pivots, w, held, kept = snf._v_inv._core
    assert (pivots, held, kept) == ([0], [(), (0,), (0,)], {})
    assert w == [{c: x for c, x in col.items() if c} for col in want[1:]]
    assert w[0] is exact_linalg._UNITS[1]
    assert list(snf._v_inv) == want
    # Without the second row no Euclid step is taken: W^{-1} is the shared
    # units, and the unit pivot's row completes both columns on read.
    snf = smith_normal_form(IntMatrix(1, 3, [[1, 1, 1]]))
    assert snf._v_inv._core[2] == [exact_linalg._UNITS[1], exact_linalg._UNITS[2]]
    assert _built_on_read(snf, _columns(inverse(snf.V))) == [1, 2]
    assert list(snf._v_inv) == _columns(inverse(snf.V))


def _vector(data, n, scale=1):
    return [Fraction(x, scale) if scale != 1 else x
            for x in data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))]


def _reads_agree(view, want, length, data):
    """`_dots` with int and Fraction vectors, `_accumulate` and single reads
    of a list answered from V equal the products with the oracle's columns
    `want`, vectors of the given length."""
    n = len(want)
    assert len(view) == n
    for scale in (1, 2):
        vec = _vector(data, length, scale)
        got = _dots(view, vec)
        assert got == [sum(x * vec[i] for i, x in col.items()) for col in want]
        assert all(type(x) is type(vec[0]) for x in got)
    coeffs = _vector(data, n)
    assert _accumulate(length, coeffs, view) == [
        sum(c * col.get(i, 0) for c, col in zip(coeffs, want)) for i in range(length)]
    for k in data.draw(st.permutations(range(n))):
        assert view[k] == want[k]


@settings(max_examples=100, deadline=None)
@given(st.one_of(int_matrices(), _mixed_matrices()), st.data())
def test_reads_of_v_inverse_are_the_oracles_products(a, data):
    """Whole and single reads of V^{-1}, answered from V, on a factorization,
    on its transpose (as U^{-1}) and on a lift (its V^{-1}, and its U, whose
    tail holds V^{-1}[:, :r])."""
    snf = smith_normal_form(a)
    inv = inverse(snf.V)
    want = _columns(inv)
    r = snf.rank
    for view, cols in ((snf._v_inv, want), (snf.transpose()._u_inv, want),
                       (snf._v_inv[r:], want[r:]), (snf._v_inv[:r], want[:r])):
        _reads_agree(view, cols, a.cols, data)
    y = _vector(data, a.cols)
    assert snf.apply_v_inv(y) == apply(inv, y)
    assert snf.transpose().apply_u_inv(y) == apply(inv.transpose(), y)
    # The lift of K * C, K the cycle basis and C drawn: the relations of
    # K * C in cycle coordinates are C itself.
    z = a.cols - r
    p = data.draw(st.integers(0, 4))
    c = IntMatrix(z, p, [_vector(data, p) for _ in range(z)])
    kc = [[sum(want[r + i].get(row, 0) * c.data[i][j] for i in range(z)) for j in range(p)]
          for row in range(a.cols)]
    split = CycleSplitting(snf)
    assert split.relations(IntMatrix(a.cols, p, kc)) == c
    lift = split.lift(smith_normal_form(c))
    check_factorization(lift, IntMatrix(a.cols, p, kc))
    s = lift.rank
    tail = lift._u[s:]
    assert tail._head == lift._u._tail._head and tail._core is snf._v_inv._core
    _reads_agree(tail, _columns(inverse(lift.u_inv))[s:], a.cols, data)
    _reads_agree(lift._v_inv, _columns(inverse(lift.V)), p, data)
    y = _vector(data, p)
    assert lift.apply_v_inv(y) == apply(inverse(lift.V), y)
    _unit_table_is_intact()


# U's columns at the unit pivots are not kept: the first read that reaches
# them derives them all from U^{-1}, and they are the columns of the
# oracle's inverse of U^{-1}.  A read of a Euclid-pivot, torsion or trailing
# column derives nothing.


def _derived(snf):
    """Whether U's unit-pivot columns have been derived."""
    return snf._u._items is not None


@settings(max_examples=100, deadline=None)
@given(st.one_of(int_matrices(), _mixed_matrices()))
def test_unit_pivot_columns_of_u_are_the_inverses_columns(a):
    for m in (a, a.transpose()):
        snf = smith_normal_form(m)
        assert not _derived(snf)
        want = _columns(inverse(snf.u_inv))
        assert list(snf._u) == want
        assert _derived(snf)
        assert matmul(matmul(snf.U, snf.D), snf.V) == m
        # A derived column that is an identity vector is the unit table's.
        for col in snf._u[:len(snf._u) - len(snf._u._tail)]:
            if list(col.values()) == [1]:
                assert col is exact_linalg._UNITS[next(iter(col))]


def test_reading_euclid_and_trailing_columns_of_u_derives_nothing():
    # The unit pivot at (0, 0) and the Euclid pivot 2 in row 1; row 2 is zero.
    snf = smith_normal_form(IntMatrix(3, 3, [[1, 1, 0], [0, 2, 0], [0, 0, 0]]))
    assert (snf.factors, len(snf._u) - len(snf._u._tail)) == ([1, 2], 1)
    want = _columns(inverse(snf.u_inv))
    assert snf._u[1] == want[1] and snf._u[2] == want[2]
    assert snf._u[1:] == want[1:] and snf._u[-1] == want[2]
    assert not _derived(snf)
    assert snf._u[0] == want[0] and _derived(snf)


@pytest.mark.parametrize("name", ["RP2_6", "Klein_K"])
def test_torsion_and_free_generators_derive_no_unit_pivot_column(name):
    P = staircase_product(fresh(name), fresh("S1_3"))
    groups = [P.homology(n) for n in range(P.dim + 1)]
    assert any(group.torsion for group in groups)
    for n in range(P.dim + 1):
        P.cohomology(n)
        P.boundary_snf(n + 1).apply_u_inv([0] * P.chain_count(n))
    relations = [P.relation_snf(n) for n in range(P.dim + 2)]
    assert any(len(snf._u) > len(snf._u._tail) for snf in relations)
    assert not any(map(_derived, relations))


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


# The five staircase products of the homology benchmark.
PRODUCTS = (("S1_3", "RP2_6"), ("T2_9", "S1_3"), ("Klein_K", "S1_3"), ("S2_4", "S1_3"),
            ("S1_6", "S1_3"))


def _snapshot(K):
    """Copies of every vector that K's memoized row tables, factorizations and
    presentations hold, lazily built items included."""
    out = {}
    for key, value in K._memo.items():
        if isinstance(value, QuotientPresentation):
            out[key] = [list(map(list, value.generators)),
                        [dict(row) for row in value._class_rows]]
        elif isinstance(value, SnfDecomposition):
            out[key] = (list(value.factors), [
                [dict(vec) for vec in vectors]
                for vectors in (value._u, value._u_inv, value._v, value._v_inv)])
        elif key[0] in ("cofaces", "facets"):
            out[key] = [dict(row) for row in value]
    return out


def _read_everything(K, n, rng):
    """Every reader of the degree-n factorizations, splittings and classes."""
    _use_presentations(K, n, K.chain_from_vector)
    chain = [rng.randint(-3, 3) for _ in range(K.boundary_matrix(n).cols)]
    split = K.splitting(n)
    cycle = split.combine(split.coordinates(chain))
    split.dual(split.periods([Fraction(x, 2) for x in chain]))
    split.integral_periods(chain)
    for group in (K.homology(n), K.cohomology(n)):
        for g in group.generators:
            group.class_order(g)
            group.is_zero(g)
    K.homology(n).coordinates(cycle)
    for snf in (K.relation_snf(n), K.boundary_snf(n), K.coboundary_snf(n)):
        for t in (snf, snf.transpose()):
            t.apply_u_inv([rng.randint(-3, 3) for _ in range(t.rows)])
            t.apply_v_inv([rng.randint(-3, 3) for _ in range(t.cols)])
            list(t._v[t.rank:])
            kernel_basis(t)
            # Every item of U and U^{-1}, the lazy heads of a lift among them.
            list(t._u), list(t._u_inv)
            solve_rational(t, [Fraction(rng.randint(-3, 3), 2) for _ in range(t.rows)])
            solve_integer(t, [rng.randint(-3, 3) for _ in range(t.rows)])
    if not isinstance(K, MappingCone):
        coboundary(Cochain.from_vector(K, n, chain))


def _readers_leave_the_vectors_alone(K, top):
    for n in range(top + 1):
        K.homology(n), K.cohomology(n), K.boundary_snf(n), K.coboundary_snf(n)
        if not isinstance(K, MappingCone):
            K._facet_rows(n)
    before = _snapshot(K)
    rng = random.Random(3)
    for n in range(top + 1):
        _read_everything(K, n, rng)
    # The readers may memoize tables of their own; what was held before stays.
    after = _snapshot(K)
    assert {key: after[key] for key in before} == before
    _unit_table_is_intact()
    for n in range(top + 2):
        _shares_the_units(K.relation_snf(n))


@pytest.mark.parametrize("pair", PRODUCTS)
def test_readers_leave_shared_vectors_alone_on_products(pair):
    P = staircase_product(*(fixtures.complex_by_name(name) for name in pair))
    _readers_leave_the_vectors_alone(P, P.dim)


def test_readers_leave_shared_vectors_alone_on_a_cone():
    X, A = fresh("RP2_6"), fresh("S1_3")
    _readers_leave_the_vectors_alone(mapping_cone(SimplicialMap(A, X, [0, 1, 2])), X.dim + 1)


def _traced_bytes(work):
    """Bytes that work() leaves allocated, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        work()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_factorizations_keep_few_bytes_beside_the_boundary_matrices(monkeypatch):
    # Measured on Python 3.11: the boundary matrices of Klein_K x S1_3 take
    # 160 KB, and homology in every degree keeps 3.89 times as much when
    # each factorization copies the vectors it shares, 3.62 times when it
    # shares all but its identity vectors, 2.96 times when these are the
    # unit table's, 2.37 times when the columns of V^{-1} that unit pivots
    # held are built on read, 2.19 times when U's columns at the unit
    # pivots are derived from U^{-1} on read, and 1.80 times when V^{-1} is
    # answered from V and not stored.  The table starts empty here,
    # so the bytes it grows by are counted whatever ran before.  The complex
    # keeps no boundary matrix, so the test holds them itself.
    monkeypatch.setattr(exact_linalg, "_UNITS", [])
    P = staircase_product(fresh("Klein_K"), fresh("S1_3"))
    held = []
    matrices = _traced_bytes(lambda: held.extend(map(P.boundary_matrix, range(P.dim + 2))))
    factorizations = _traced_bytes(lambda: [P.homology(n) for n in range(P.dim + 1)])
    assert factorizations < 1.8 * matrices


def _matrices_reachable(memo):
    """The IntMatrix objects reachable from a memo, not through another memo."""
    seen, todo, found = set(), [memo], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, _Memo)):
            continue
        seen.add(id(obj))
        if isinstance(obj, IntMatrix):
            found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


def test_complexes_keep_no_boundary_matrix():
    X, A = fresh("RP2_6"), fresh("S1_3")
    cone = mapping_cone(SimplicialMap(A, X, [0, 1, 2]))
    product = staircase_product(fresh("Klein_K"), fresh("S1_3"))
    large = staircase_product(fixtures.torus(), fixtures.projective_plane())
    for K, top in ((product, product.dim), (cone, X.dim + 1), (large, large.dim)):
        for n in range(top + 2):
            K.homology(n), K.cohomology(n)
    for K in (product, product.left, cone, X, A, large):
        assert _matrices_reachable(K._memo) == []


def test_row_tables_build_each_boundary_matrix_once(monkeypatch):
    builds = []
    build = Complex._build_boundary

    def counted(K, n):
        builds.append(n)
        return build(K, n)

    monkeypatch.setattr(Complex, "_build_boundary", counted)
    K = staircase_product(fresh("RP2_6"), fresh("S1_3"))
    for _ in range(3):
        for n in range(K.dim + 1):
            ones = [1] * len(K.simplices(n))
            coboundary(Cochain.from_vector(K, n, ones))
            K.chain_from_vector(n, ones).boundary()
    # Chain.boundary reads d_1, ..., d_dim and coboundary d_1, ..., d_{dim+1}.
    assert sorted(builds) == list(range(1, K.dim + 2))


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
            nx, na = len(X.simplices(n)), len(A.simplices(n - 1))
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
