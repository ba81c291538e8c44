"""Smith normal form, integer solving, splittings, quotient presentations.

Frozen values below were computed by hand or with the brute-force routines
in oracle.py before the production code existed.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from diffchar.exact_linalg import (
    IntMatrix,
    smith_normal_form,
    solve_integer,
    solve_rational,
    kernel_basis,
    CycleSplitting,
    QuotientPresentation,
)
from oracle import (
    apply,
    check_factorization,
    column,
    det,
    invariant_factors,
    rational_rank,
    zero,
)
from strategies import int_matrix_rows


def mat(rows):
    return IntMatrix(len(rows), len(rows[0]) if rows else 0, rows)


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
        check_factorization(snf, a)
        assert snf.rank == 0


@settings(max_examples=40, deadline=None)
@given(int_matrix_rows(), st.data())
def test_solve_integer_on_solvable_systems(drawn, data):
    a = IntMatrix(*drawn)
    x = data.draw(
        st.lists(st.integers(-5, 5), min_size=a.cols, max_size=a.cols)
    )
    b = apply(a, x)
    got = solve_integer(a, b)
    assert got is not None
    assert apply(a, got) == b


@settings(max_examples=40, deadline=None)
@given(int_matrix_rows(), st.data())
def test_solve_integer_verdict_matches_lattice_oracle(drawn, data):
    rows, cols, dense = drawn
    a = IntMatrix(rows, cols, dense)
    b = data.draw(
        st.lists(st.integers(-6, 6), min_size=a.rows, max_size=a.rows)
    )
    got = solve_integer(a, b)
    # b lies in the column lattice iff appending it changes neither the rank
    # nor the invariant factors.
    augmented = [row + [bb] for row, bb in zip(dense, b)]
    solvable = rational_rank(dense) == rational_rank(augmented) and invariant_factors(
        dense
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
@given(int_matrix_rows())
def test_kernel_basis_spans_kernel(drawn):
    rows, cols, dense = drawn
    a = IntMatrix(rows, cols, dense)
    basis = kernel_basis(a)
    for vec in basis:
        assert all(x == 0 for x in apply(a, vec))
    assert len(basis) == cols - rational_rank(dense)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


@settings(max_examples=30, deadline=None)
@given(int_matrix_rows(), st.data())
def test_cycle_splitting_properties(drawn, data):
    rows, cols, dense = drawn
    a = IntMatrix(rows, cols, dense)
    split = CycleSplitting(a)
    z = cols - rational_rank(dense)
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
@given(int_matrix_rows())
def test_quotient_presentation_of_full_lattice_quotient(drawn):
    """ker(0)/im(A) compared against the brute-force oracle."""
    rows, cols, dense = drawn
    a = IntMatrix(rows, cols, dense)
    pres = QuotientPresentation(zero(0, rows), a)
    betti = rows - rational_rank(dense)
    torsion = [d for d in invariant_factors(dense) if d > 1]
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
