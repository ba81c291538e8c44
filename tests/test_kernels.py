"""The sparse loop kernels of exact_linalg against the dense oracle.

Every sparse product of the engine goes through `_dots` (sparse rows times a
dense vector), `_combination` (a sparse combination of sparse vectors) or
`_accumulate` (a dense combination of sparse vectors).  Each is checked here
against `tests/oracle.py`'s dense `apply` and `matmul` on drawn sparse rows,
with empty rows, zero-length vectors and Fraction entries among the draws,
and for the result types that callers rely on.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from diffchar.exact_linalg import (
    IntMatrix,
    _accumulate,
    _combination,
    _dense,
    _dots,
    smith_normal_form,
)
from oracle import apply, matmul
from strategies import int_matrices

NONZERO = st.integers(-6, 6).filter(bool)
SCALARS = st.integers(-6, 6) | st.fractions(-6, 6, max_denominator=7)


@st.composite
def sparse_rows(draw, width, max_rows=6):
    """A list of {column: nonzero int} dicts over range(width); rows may be empty."""
    count = draw(st.integers(0, max_rows))
    if width == 0:
        return [{} for _ in range(count)]
    row = st.dictionaries(st.integers(0, width - 1), NONZERO, max_size=width)
    return draw(st.lists(row, min_size=count, max_size=count))


@st.composite
def rows_and_vector(draw):
    """Sparse rows of some width and a dense vector of that width, ints or Fractions."""
    width = draw(st.integers(0, 6))
    rows = draw(sparse_rows(width))
    vec = draw(st.lists(SCALARS, min_size=width, max_size=width))
    return width, rows, vec


def _matrix(width, rows):
    return IntMatrix(len(rows), width, [_dense(width, row) for row in rows])


def _reference_sum(row, vec):
    return sum(x * vec[j] for j, x in row.items())


@settings(max_examples=200, deadline=None)
@given(rows_and_vector())
def test_dots_is_the_matrix_vector_product(case):
    width, rows, vec = case
    got = _dots(rows, vec)
    assert got == apply(_matrix(width, rows), vec)
    # The types of sum(): an int 0 for an empty row, Fractions from Fractions.
    assert [type(x) for x in got] == [type(_reference_sum(row, vec)) for row in rows]


@settings(max_examples=200, deadline=None)
@given(rows_and_vector(), st.data())
def test_combination_is_the_transposed_product(case, data):
    width, vectors, _ = case
    m = len(vectors)
    coeffs = data.draw(st.dictionaries(st.integers(0, m - 1), NONZERO) if m else st.just({}))
    got = _combination(coeffs, vectors)
    assert all(got.values()), "a sparse result stores no zeros"
    matrix = _matrix(width, vectors)
    row = IntMatrix(1, m, [_dense(m, coeffs)])
    assert _dense(width, got) == list(matmul(row, matrix).data[0])


@settings(max_examples=100, deadline=None)
@given(rows_and_vector(), st.data())
def test_combination_takes_fraction_coefficients(case, data):
    width, vectors, _ = case
    m = len(vectors)
    scalars = st.fractions(-6, 6, max_denominator=7).filter(bool)
    coeffs = data.draw(st.dictionaries(st.integers(0, m - 1), scalars) if m else st.just({}))
    got = _combination(coeffs, vectors)
    assert all(got.values())
    assert _dense(width, got) == apply(_matrix(width, vectors).transpose(), _dense(m, coeffs))


@settings(max_examples=200, deadline=None)
@given(rows_and_vector(), st.data())
def test_accumulate_is_the_transposed_product(case, data):
    width, vectors, _ = case
    coeffs = data.draw(st.lists(SCALARS, min_size=len(vectors), max_size=len(vectors)))
    zero = data.draw(st.sampled_from([0, Fraction(0)]))
    got = _accumulate(width, coeffs, vectors, zero)
    assert got == apply(_matrix(width, vectors).transpose(), coeffs)
    assert len(got) == width


def test_accumulate_keeps_the_given_zero():
    got = _accumulate(3, [Fraction(1, 2), Fraction(0)], [{0: 2}, {2: 1}], Fraction(0))
    assert got == [1, 0, 0]
    assert all(type(x) is Fraction for x in got)
    assert [type(x) for x in _accumulate(2, [3], [{1: 1}])] == [int, int]


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.data())
def test_transform_products_keep_their_result_types(a, data):
    snf = smith_normal_form(a)
    ints = data.draw(st.lists(st.integers(-5, 5), min_size=a.rows, max_size=a.rows))
    got = snf.apply_u_inv(ints)
    assert got == apply(snf.u_inv, ints)
    assert all(type(x) is int for x in got)
    fracs = [Fraction(x, 3) for x in ints]
    got = snf.apply_u_inv(fracs)
    assert got == apply(snf.u_inv, fracs)
    assert all(type(x) is Fraction for x in got)
    # apply_v_inv starts from the input's own zero, so Fraction input gives
    # Fractions everywhere, even where every coefficient is zero.
    y = data.draw(st.lists(st.integers(-5, 5), min_size=a.cols, max_size=a.cols))
    for vec in (y, [Fraction(x, 2) for x in y]):
        got = snf.apply_v_inv(vec)
        assert got == apply(snf.v_inv, vec)
        assert all(type(x) is type(vec[0]) for x in got)
