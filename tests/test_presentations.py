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
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffchar.characters import integral_decomposition
from diffchar.cochain import Cochain, coboundary
from diffchar.exact_linalg import (
    CycleSplitting, QuotientPresentation, SnfDecomposition, _combination, _LazyHead,
    solve_integer,
)
from diffchar.simplicial import Complex, SimplicialMap, mapping_cone, staircase_product
from oracle import (
    apply, check_factorization, homology_rank_and_torsion, invariant_factors, rational_rank,
)
from strategies import flag_complexes, fresh, mapping_cones


@st.composite
def flag_complexes_with_top(draw):
    K = draw(flag_complexes())
    return K, K.dim


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


def _check_group(group, out, in_, rel):
    """H = ker(out) / im(in): size, closed generators, unit coordinates, and
    generators that form an adapted basis by the oracle's count.  `rel` is
    the factorization of the relations whose parts the presentation took."""
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
    # The relation factorization is one of the relations in cycle coordinates,
    # and the presentation reads its torsion and free columns of U and rows of
    # U^{-1}.
    check_factorization(rel, group.kernel.relations(in_))
    assert group.torsion == [d for d in rel.factors if d > 1]
    picked = [i for i, d in enumerate(rel.factors) if d > 1] + list(range(rel.rank, rel.rows))
    assert group._class_rows == [rel._u_inv[i] for i in picked]
    assert group.generators == [
        group.kernel.combine([rel._u[i].get(j, 0) for j in range(rel.rows)]) for i in picked]


def _check_solves(snf, a, draw):
    x = draw(a.cols, (-2, -1, 0, 1, 2))
    b = [y + e for y, e in zip(apply(a, x), draw(a.rows, (0, 0, 0, 1, -1, 2)))]
    solution = solve_integer(snf, b)
    assert (solution is not None) == _in_image(a, b)
    if solution is not None:
        assert apply(a, solution) == b


def _check_every_degree(K, top, draw):
    """`draw(length, choices)` gives the random vectors the solves, the
    kernel test and the splitting round trips use."""
    for n in range(top + 2):
        d_out, d_in = K.boundary_matrix(n), K.boundary_matrix(n + 1)
        co_out, co_in = d_in.transpose(), d_out.transpose()
        hom, coh = K.homology(n), K.cohomology(n)
        _check_group(hom, d_out, d_in, K.relation_snf(n + 1))
        _check_group(coh, co_out, co_in, _cohomology_relations(coh.kernel, K.boundary_snf(n)))
        check_factorization(K.boundary_snf(n), d_out)
        check_factorization(K.coboundary_snf(n), co_out)
        _check_solves(K.boundary_snf(n), d_out, draw)
        _check_solves(K.coboundary_snf(n), co_out, draw)
        for d, g in zip(hom.torsion, hom.generators):
            filling = solve_integer(K.boundary_snf(n + 1), [d * x for x in g])
            assert apply(d_in, filling) == [d * x for x in g]
        v = draw(d_out.cols, (-1, 0, 1))
        assert (hom.kernel_coordinates(v) is None) == any(apply(d_out, v))
        # The splitting's maps undo one another on cycles and their coordinates.
        split = K.splitting(n)
        c = draw(len(split.cycle_basis), range(-3, 4))
        assert split.coordinates(split.combine(c)) == c
        assert split.periods(split.dual(c)) == c
        for vec in split.cycle_basis:
            assert split.combine(split.coordinates(vec)) == vec


def _check_integral_decompositions(K, draw):
    """An integral cochain plus a rational coboundary splits back into an
    integral cochain and a coboundary that add up to it."""
    for n in range(1, K.dim + 1):
        m = Cochain.from_vector(K, n, draw(len(K.simplices(n)), range(-3, 4)), "Z")
        r_vals = [Fraction(x, 3) for x in draw(len(K.simplices(n - 1)), range(-6, 7))]
        a = m + coboundary(Cochain.from_vector(K, n - 1, r_vals, "Q"))
        m2, r2 = integral_decomposition(a)
        assert m2.is_integer_valued()
        assert m2 + coboundary(r2) == a


# The generators are an adapted basis: a cycle that is the combination c of
# the generators plus a boundary has as class coordinates the free entries
# of c and its torsion entries reduced mod their orders.  Any vector off the
# kernel is refused.


def _check_class_coordinates(K, top, draw):
    for n in range(top + 2):
        d_out, d_in = K.boundary_matrix(n), K.boundary_matrix(n + 1)
        for group, out, in_ in ((K.homology(n), d_out, d_in),
                                (K.cohomology(n), d_in.transpose(), d_out.transpose())):
            t = len(group.torsion)
            c = draw(t + group.betti, (-3, -1, 0, 0, 1, 2))
            v = apply(in_, draw(in_.cols, (-2, -1, 0, 0, 1)))
            for x, g in zip(c, group.generators):
                v = [a + x * b for a, b in zip(v, g)]
            assert not any(apply(out, v))
            reduced = tuple(x % d for x, d in zip(c, group.torsion))
            assert group.coordinates(v) == (tuple(c[t:]), reduced)
            j = next((j for j in range(out.cols) if any(j in row for row in out.entries)), None)
            if j is not None:
                v[j] += 1
                with pytest.raises(ValueError):
                    group.coordinates(v)


def _drawing(data):
    return lambda length, choices: data.draw(
        st.lists(st.sampled_from(choices), min_size=length, max_size=length)
    )


@settings(max_examples=80, deadline=None)
@given(flag_complexes_with_top(), st.data())
def test_flag_complexes_in_every_degree(complex_and_top, data):
    K, top = complex_and_top
    draw = _drawing(data)
    _check_every_degree(K, top, draw)
    _check_class_coordinates(K, top, draw)
    _check_integral_decompositions(K, draw)


@settings(max_examples=60, deadline=None)
@given(mapping_cones(), st.data())
def test_mapping_cones_in_every_degree(cone_and_top, data):
    draw = _drawing(data)
    _check_every_degree(*cone_and_top, draw)
    _check_class_coordinates(*cone_and_top, draw)


def _seeded(seed):
    rng = random.Random(seed)
    return lambda length, choices: rng.choices(choices, k=length)


@pytest.mark.parametrize("name", ["RP2_6", "Klein_K", "T2_9"])
def test_torsion_fixtures_in_every_degree(name):
    K = fresh(name)
    _check_every_degree(K, K.dim, _seeded(name))
    _check_class_coordinates(K, K.dim, _seeded(name))


def test_torsion_cone_in_every_degree():
    # The circle wrapped around the torsion loop of RP2_6, and the same
    # circle doubled onto a circle: torsion from the map alone.
    draw = _seeded(7)
    X, A = fresh("RP2_6"), fresh("S1_3")
    _check_every_degree(mapping_cone(SimplicialMap(A, X, [0, 1, 2])), 2, draw)
    hexagon = fresh("S1_6")
    doubled = SimplicialMap(hexagon, fresh("S1_3"), [0, 1, 2, 0, 1, 2])
    _check_every_degree(mapping_cone(doubled), 2, draw)


@settings(max_examples=15, deadline=None)
@given(staircase_products(), st.data())
def test_class_coordinates_on_staircase_products(product_and_top, data):
    _check_class_coordinates(*product_and_top, _drawing(data))


# The first columns of a lifted U and the first rows of its U^{-1} are built
# on first read.  Reading the tail first, as cohomology does, must leave the
# factorization as it is when the whole U is read first, its solves as they
# are on plain lists, and the cohomology groups as they are when built from
# plain lists.


def _transforms(snf):
    return [list(map(dict, t)) for t in (snf._u, snf._u_inv, snf._v, snf._v_inv)]


def _eager(snf):
    """The same factorization with every transform a plain list."""
    return SnfDecomposition(snf.rows, snf.cols, snf.factors, *_transforms(snf))


def _eager_cohomology(K, k):
    """H^k built from plain lists and the whole factorization of its
    relations, boundary_snf(k) included."""
    kernel = CycleSplitting(_eager(K.coboundary_snf(k)))
    rel = _cohomology_relations(kernel, _eager(K.boundary_snf(k)))
    return QuotientPresentation(kernel, rel.factors, rel._u, rel._u_inv)


def _cohomology_relations(kernel, below):
    """The Smith factorization of the relations of H^k in the cocycle
    coordinates of `kernel`, the coboundary's splitting, with `below` the
    factorization of d_k: the permutation of `exact_linalg.cohomology`
    written out in full as U and U^{-1}, d_k's factors, and V = U_k^T."""
    z, r = kernel.snf.cols - kernel.snf.rank, below.rank
    perm = [{z - r + i: 1} for i in range(r)] + [{i: 1} for i in range(z - r)]
    return SnfDecomposition(z, below.rows, below.factors, perm, perm, below._u, below._u_inv)


def _unbuilt(transform):
    return isinstance(transform, _LazyHead) and transform._items is None


def _check_lifts_after_cohomology(make, top):
    """Returns the number of degrees whose U had a head left to build."""
    lazy = 0
    rng = random.Random(top)
    for n in range(1, top + 2):
        tail_first, fresh = make(), make()
        coh = tail_first.cohomology(n - 1)
        snf = tail_first.boundary_snf(n)
        d = tail_first.boundary_matrix(n)
        if isinstance(snf._u, _LazyHead) and snf._u._head:
            assert _unbuilt(snf._u) and _unbuilt(snf._u_inv)
            lazy += 1
        eager, eager_coh = _eager(fresh.boundary_snf(n)), _eager_cohomology(fresh, n - 1)
        image = apply(d, [rng.randint(-2, 2) for _ in range(d.cols)])
        for b in (image, [x + rng.choice((0, 0, 1, -1)) for x in image]):
            assert snf.apply_u_inv(b) == eager.apply_u_inv(b)
            assert solve_integer(snf, b) == solve_integer(eager, b)
        assert (coh.torsion, coh.betti, coh.generators) == (
            eager_coh.torsion, eager_coh.betti, eager_coh.generators)
        assert [coh.torsion_functional(i) for i in range(len(coh.torsion))] == [
            eager_coh.torsion_functional(i) for i in range(len(coh.torsion))]
        z = coh.kernel.snf.cols - coh.kernel.snf.rank
        cocycles = coh.generators + [coh.kernel.combine([rng.randint(-3, 3) for _ in range(z)])]
        for v in cocycles:
            assert coh.coordinates(v) == eager_coh.coordinates(v)
        assert _transforms(snf) == _transforms(fresh.boundary_snf(n))
        check_factorization(snf, d)
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
    left, right = (fresh(name) for name in pair)
    assert _check_lifts_after_cohomology(lambda: staircase_product(left, right), 3) == 3


# Cohomology in degree k reads only the factors of N_k, so it leaves the
# factorization of d_k, lifted from N_k through the splitting of C_{k-1},
# unbuilt.


def _check_cohomology_lifts_nothing_below(make, top):
    for k in range(top + 2):
        K = make()
        K.cohomology(k)
        if K.chain_count(k - 1):
            assert ("snf", k) not in K._memo


@settings(max_examples=30, deadline=None)
@given(flag_complexes_with_top())
def test_cohomology_lifts_nothing_below_on_flag_complexes(complex_and_top):
    K, top = complex_and_top
    _check_cohomology_lifts_nothing_below(lambda: Complex(K.num_vertices, K.all_simplices()), top)


@pytest.mark.parametrize("name", ["RP2_6", "Klein_K"])
def test_cohomology_lifts_nothing_below_on_torsion_fixtures(name):
    _check_cohomology_lifts_nothing_below(lambda: fresh(name), fresh(name).dim)
    K = fresh(name)
    K.cohomology(2)
    assert [key for key in K._memo if key[0] == "snf"] == [("snf", 3)]


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
        return _LazyHead(head, lambda c: _combination(c, vectors), tail)

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
    # Reading one head item builds the whole head.
    if head:
        assert lazy[-n] == plain[0]
        assert lazy._items == plain[:len(head)]
