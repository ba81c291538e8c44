"""Smith normal form, integer solving, splittings, quotient presentations.

Frozen values below were computed by hand or with the brute-force routines
in oracle.py before the production code existed.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffchar import fixtures
from diffchar.characters import integral_decomposition
from diffchar.cochain import Cochain, coboundary
from diffchar.exact_linalg import (
    IntMatrix,
    smith_normal_form,
    solve_integer,
    solve_rational,
    kernel_basis,
    CycleSplitting,
    QuotientPresentation,
)
from diffchar.simplicial import staircase_product
from oracle import (
    apply,
    column,
    det,
    homology_rank_and_torsion,
    identity,
    invariant_factors,
    matmul,
    rational_rank,
    zero,
)
from strategies import flag_complexes


def mat(rows):
    return IntMatrix(len(rows), len(rows[0]) if rows else 0, rows)


def _matrices(entries):
    return st.integers(0, 5).flatmap(
        lambda r: st.integers(0 if r else 1, 5).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


small_matrices = _matrices(st.integers(-9, 9))
# No unit entries, so pivots past the first are rarely units and the
# divisibility scan of the trailing block has to act.
unitless_matrices = _matrices(st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6]))


# Boundary matrix of the triangle circle, vertices (0,1,2), edges sorted
# ((0,1),(0,2),(1,2)); hand-reduced Smith form is diag(1,1,0).
CIRCLE_BOUNDARY = [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]


def test_snf_frozen_circle_boundary():
    snf = smith_normal_form(mat(CIRCLE_BOUNDARY))
    assert snf.diagonal() == [1, 1, 0]


def test_snf_frozen_diag_2_3():
    snf = smith_normal_form(mat([[2, 0], [0, 3]]))
    assert snf.diagonal() == [1, 6]


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        a = zero(rows, cols)
        snf = smith_normal_form(a)
        assert matmul(matmul(snf.U, snf.D), snf.V) == a
        assert snf.rank == 0


def _check_decomposition(a, snf=None):
    snf = smith_normal_form(a) if snf is None else snf
    assert matmul(matmul(snf.U, snf.D), snf.V) == a
    assert abs(det(snf.U)) == 1
    assert abs(det(snf.V)) == 1
    assert matmul(snf.U, snf.u_inv) == identity(a.rows)
    assert matmul(snf.V, snf.v_inv) == identity(a.cols)
    diag = snf.diagonal()
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D.data[i][j] == 0
    return snf


@settings(max_examples=100, deadline=None)
@given(small_matrices | unitless_matrices)
def test_snf_properties_random(rows):
    a = mat(rows) if rows else zero(0, 0)
    snf = _check_decomposition(a)
    assert [d for d in snf.diagonal() if d != 0] == invariant_factors(rows)
    assert snf.rank == rational_rank(rows)
    # The transposed factorization is a valid SNF of the transpose.
    transposed = _check_decomposition(a.transpose(), snf.transpose())
    assert transposed.diagonal() == snf.diagonal()
    assert transposed.rank == snf.rank


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.data())
def test_solve_integer_on_solvable_systems(rows, data):
    a = mat(rows) if rows else zero(0, 0)
    x = data.draw(
        st.lists(st.integers(-5, 5), min_size=a.cols, max_size=a.cols)
    )
    b = apply(a, x)
    got = solve_integer(a, b)
    assert got is not None
    assert apply(a, got) == b


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.data())
def test_solve_integer_verdict_matches_lattice_oracle(rows, data):
    a = mat(rows) if rows else zero(0, 0)
    b = data.draw(
        st.lists(st.integers(-6, 6), min_size=a.rows, max_size=a.rows)
    )
    got = solve_integer(a, b)
    # b lies in the column lattice iff appending it changes neither the rank
    # nor the invariant factors.
    augmented = [row + (bb,) for row, bb in zip(a.data, b)]
    solvable = rational_rank(a.data) == rational_rank(augmented) and invariant_factors(
        a.data
    ) == invariant_factors(augmented)
    if got is None:
        assert not solvable
    else:
        assert solvable
        assert apply(a, got) == b


def test_solve_integer_no_solution_parity():
    # 2x = 1 has no integer solution but a rational one.
    a = mat([[2]])
    assert solve_integer(a, [1]) is None
    assert solve_rational(a, [1]) == [Fraction(1, 2)]


def test_solve_rational_inconsistent():
    a = mat([[1], [1]])
    assert solve_rational(a, [0, 1]) is None


def test_solvers_return_ints_and_fractions():
    # Full rank, partial rank and the zero matrix, whose solution is all zeros.
    for rows, b in (([[2, 0], [0, 3]], [4, 9]), ([[1, 1]], [2]), ([[0, 0]], [0])):
        a = mat(rows)
        assert all(type(x) is int for x in solve_integer(a, b))
        assert all(type(x) is Fraction for x in solve_rational(a, b))


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_kernel_basis_spans_kernel(rows):
    a = mat(rows) if rows else zero(0, 0)
    basis = kernel_basis(a)
    for vec in basis:
        assert all(x == 0 for x in apply(a, vec))
    assert len(basis) == a.cols - rational_rank(rows)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


@settings(max_examples=30, deadline=None)
@given(small_matrices, st.data())
def test_cycle_splitting_properties(rows, data):
    a = mat(rows) if rows else zero(0, 0)
    split = CycleSplitting(a)
    z = a.cols - rational_rank(rows)
    chains = st.lists(st.integers(-4, 4), min_size=a.cols, max_size=a.cols)
    v, w = data.draw(chains), data.draw(chains)
    c = data.draw(st.lists(st.integers(-4, 4), min_size=z, max_size=z))

    def project(u):
        return split.combine(split.coordinates(u))

    # Projection onto cycles restricting to the identity on cycles.
    assert project(project(v)) == project(v)
    assert all(x == 0 for x in apply(a, project(v)))
    assert len(split.cycle_basis) == z
    for vec in split.cycle_basis:
        assert all(x == 0 for x in apply(a, vec))
        assert project(vec) == vec
    # coordinates and periods undo combine and dual, and periods and dual
    # are the transposes of combine and coordinates.
    assert split.coordinates(split.combine(c)) == c
    assert split.periods(split.dual(c)) == c
    assert _dot(split.periods(w), c) == _dot(w, split.combine(c))
    assert _dot(split.dual(c), v) == _dot(c, split.coordinates(v))


@settings(max_examples=30, deadline=None)
@given(small_matrices)
def test_quotient_presentation_of_full_lattice_quotient(rows):
    """ker(0)/im(A) compared against the brute-force oracle."""
    a = mat(rows) if rows else zero(0, 0)
    pres = QuotientPresentation(zero(0, a.rows), a)
    betti = a.rows - rational_rank(rows)
    torsion = [d for d in invariant_factors(rows) if d > 1]
    assert pres.betti == betti
    assert pres.torsion == torsion
    # Generators represent classes of the right order.
    for idx, d in enumerate(pres.torsion):
        assert pres.class_order(pres.generators[idx]) == d
    for vec in pres.generators[len(pres.torsion):]:
        assert pres.class_order(vec) == 0
    # Image vectors are zero classes.
    for j in range(a.cols):
        assert pres.is_zero(column(a, j))


def test_quotient_presentation_coordinates_additive():
    a = mat([[2, 0], [0, 3]])
    pres = QuotientPresentation(zero(0, 2), a)
    assert pres.torsion == [6]
    v = [1, 1]
    free1, tors1 = pres.coordinates(v)
    free2, tors2 = pres.coordinates([2 * x for x in v])
    assert all(x == 0 for x in free1) and all(x == 0 for x in free2)
    assert (2 * tors1[0]) % 6 == tors2[0]


def _ints(data, length, span=3):
    return data.draw(st.lists(st.integers(-span, span), min_size=length, max_size=length))


@settings(max_examples=80, deadline=None)
@given(flag_complexes(), st.data())
def test_random_flag_complexes_agree_with_the_oracle(K, data):
    for n in range(K.dim + 1):
        d_out, d_in = K.boundary_matrix(n), K.boundary_matrix(n + 1)
        delta_out, delta_in = d_in.transpose(), d_out.transpose()
        size = len(K.simplices(n))
        hom, coh = K.homology(n), K.cohomology(n)
        assert (hom.betti, hom.torsion) == homology_rank_and_torsion(
            d_out.data, d_in.data, size
        )
        assert (coh.betti, coh.torsion) == homology_rank_and_torsion(
            delta_out.data, delta_in.data, size
        )
        for g in hom.generators:
            assert not any(apply(d_out, g))
        v = _ints(data, size, 1)
        assert (hom.kernel_coordinates(v) is None) == any(apply(d_out, v))
        for g in coh.generators:
            assert not any(apply(delta_out, g))
        split = K.splitting(n)
        c = _ints(data, len(split.cycle_basis))
        assert split.coordinates(split.combine(c)) == c
        assert split.periods(split.dual(c)) == c
        for vec in split.cycle_basis:
            assert split.combine(split.coordinates(vec)) == vec
        if n >= 1:
            m = Cochain.from_vector(K, n, _ints(data, size), "Z")
            r_vals = [Fraction(x, 3) for x in _ints(data, len(K.simplices(n - 1)), 6)]
            a = m + coboundary(Cochain.from_vector(K, n - 1, r_vals, "Q"))
            m2, r2 = integral_decomposition(a)
            assert m2.is_integer_valued()
            assert m2 + coboundary(r2) == a


def test_presentations_are_built_without_matrix_products(monkeypatch):
    """Relations come from the memoized splitting's coordinates, not from V * B:
    no dense view of any matrix is built."""

    def refuse(self):
        raise AssertionError("dense matrix view built")

    monkeypatch.setattr(IntMatrix, "data", property(refuse))
    P = staircase_product(fixtures.circle(), fixtures.projective_plane())
    for n in range(P.dim + 1):
        P.cohomology(n)
        assert P.homology(n).kernel is P.splitting(n)


def test_det_bareiss_matches_cofactor():
    def cofactor_det(rows):
        n = len(rows)
        if n == 0:
            return 1
        if n == 1:
            return rows[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * cofactor_det(minor)
        return total

    import random

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det(mat(rows)) == cofactor_det(rows)
