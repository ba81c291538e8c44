"""Brute-force reference computations, independent of the production paths.

Rank over Q by fraction-free integer row elimination; invariant factors by
fraction-free Bezout steps on sparse rows, which track no transform
matrices and share no code with the package.  Homology ranks and torsion
follow from boundary matrices alone: betti_n = dim C_n - rank d_n -
rank d_{n+1}, and the torsion of H_n is the list of invariant factors of
d_{n+1} exceeding 1.

The chain operators are their per-simplex definitions: the boundary drops
one vertex at a time with sign (-1)^i, the coboundary sums a cochain over
the faces of each simplex, and a simplicial map pushes a simplex to its
sorted image with the sign of the sorting permutation, found from its cycle
count.  The package reads all four from memoized tables instead.

The equalities of characters, flat classes and relative characters are
written out per group, as each class once defined them: the curvature data
agree and the lifts differ by integral periods.  The package reads one
equality, `DirectSum`'s, from the parts each group declares.

The maps between staircase products are the vertex walks the package once
wrote out per map: decode each product vertex into its coordinates, send
them on, encode the image.  The package builds all of them through one
coordinate rule, `ProductComplex._map_of`.  A staircase product is built
as the package once built it: the full staircases of every pair of factor
simplices, closed under faces and checked by the `Complex` constructor; the
package builds each face once from a table of paths.  The maximal
simplices are read off the empty rows of d_{n+1}, and the two
pushforward-kernel predicates of `relative` walk the kernel lattice each
with its own combination loop, as the package once did, on the unreduced
coordinates of the pushed classes, where the package reads the reduced
ones.

The dense matrix helpers at the end (identity, zero, product, matrix times
vector, column) work on the `data` view of an IntMatrix with
textbook loops; the package itself only ever reads a matrix's nonzeros.
`check_factorization`, the one check of a Smith normal form that the tests
run, multiplies the dense views of its factors with them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from diffchar.characters import DiffChar, FlatClass
from diffchar.cochain import has_integral_periods, pair
from diffchar.exact_linalg import IntMatrix, kernel_basis, smith_normal_form
from diffchar.relative import RelChar
from diffchar.simplicial import Complex


def rational_rank(rows):
    """Rank of a matrix (list of row lists) over Q, by fraction-free row
    elimination on {column: value} rows: the shortest row left is the next
    pivot row, it clears its first column from every other row by an
    integer combination, and each reduced row is divided by its content
    (the gcd of its entries), which keeps the entries small."""
    m = [row for row in ({j: x for j, x in enumerate(r) if x} for r in rows) if row]
    rank = 0
    while m:
        pivot = m.pop(min(range(len(m)), key=lambda i: len(m[i])))
        j = min(pivot)
        for i, row in enumerate(m):
            c = row.get(j)
            if c:
                reduced = {k: pivot[j] * x for k, x in row.items()}
                for k, y in pivot.items():
                    x = reduced.get(k, 0) - c * y
                    if x:
                        reduced[k] = x
                    else:
                        del reduced[k]
                content = gcd(*reduced.values())
                m[i] = {k: x // content for k, x in reduced.items()}
        m = [row for row in m if row]
        rank += 1
    return rank


def _bezout(a, b):
    """(g, s, t) with g = gcd(a, b) > 0 and s * a + t * b = g, for a != 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _sum(s, u, t, v):
    """s * u + t * v on {column: value} rows, with no zero values."""
    out = {k: s * x for k, x in u.items()} if s else {}
    for k, y in v.items():
        z = out.get(k, 0) + t * y
        if z:
            out[k] = z
        else:
            out.pop(k, None)
    return out


def invariant_factors(rows):
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Fraction-free elimination by Bezout steps on {column: value} rows.  The
    shortest row left holds the pivot, at its entry of least absolute
    value.  A unimodular 2 x 2 row step with the Bezout coefficients of the
    pivot a and an entry b below it puts gcd(a, b) at the pivot and clears
    b; once its column is clear, the pivot row is cleared at once if the
    pivot divides it, and otherwise a column step of the same kind moves a
    gcd into the pivot and the column is cleared again.  The diagonal so
    found is put in divisibility order by replacing pairs (a, b) with
    (gcd, lcm), which keeps Z/a + Z/b.
    """
    m = [row for row in ({j: x for j, x in enumerate(r) if x} for r in rows) if row]
    diagonal = []
    while m:
        pivot = m.pop(min(range(len(m)), key=lambda i: len(m[i])))
        j = min(pivot, key=lambda c: (abs(pivot[c]), c))
        while True:
            for i, row in enumerate(m):
                b = row.get(j)
                if b:
                    a = pivot[j]
                    g, s, t = _bezout(a, b)
                    pivot, m[i] = _sum(s, pivot, t, row), _sum(a // g, row, -(b // g), pivot)
            a = pivot[j]
            c = next((c for c, b in pivot.items() if b % a), None)
            if c is None:
                break
            # Columns j and c step together; only rows holding c change j.
            b = pivot[c]
            g, s, t = _bezout(a, b)
            for row in [pivot, *m]:
                x, y = row.pop(j, 0), row.pop(c, 0)
                for k, z in ((j, s * x + t * y), (c, (a // g) * y - (b // g) * x)):
                    if z:
                        row[k] = z
        diagonal.append(abs(pivot[j]))
        m = [row for row in m if row]
    for i in range(len(diagonal)):
        for k in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[k]
            diagonal[i], diagonal[k] = gcd(a, b), a * b // gcd(a, b)
    return diagonal


def homology_rank_and_torsion(boundary_out_rows, boundary_in_rows, chain_dim):
    """(betti, torsion list) of ker(out)/im(in) from raw boundary matrices."""
    betti = chain_dim - rational_rank(boundary_out_rows) - rational_rank(boundary_in_rows)
    torsion = [d for d in invariant_factors(boundary_in_rows) if d > 1]
    return betti, torsion


def _nonzero(out):
    return {k: c for k, c in out.items() if c}


def faces(s):
    """(sign, face) of each facet of the simplex s: without s[i], (-1)^i."""
    return [((-1) ** i, s[:i] + s[i + 1:]) for i in range(len(s))] if len(s) > 1 else []


def boundary(coeffs):
    """The boundary of a chain given as {simplex: coefficient}."""
    out = {}
    for s, c in coeffs.items():
        for sign, f in faces(s):
            out[f] = out.get(f, 0) + sign * c
    return _nonzero(out)


def tensor_boundary(coeffs):
    """d(s@t) = ds@t + (-1)^{dim s} s@dt on {(s, t): coefficient}."""
    out = {}
    for (s, t), c in coeffs.items():
        for sign, f in faces(s):
            out[(f, t)] = out.get((f, t), 0) + sign * c
        for sign, f in faces(t):
            out[(s, f)] = out.get((s, f), 0) + (-1) ** (len(s) - 1) * sign * c
    return _nonzero(out)


def coboundary(values, cofaces):
    """(da)(t) = sum of sign * a(face) over the faces of each t in cofaces."""
    return _nonzero({t: sum(sign * values.get(f, 0) for sign, f in faces(t)) for t in cofaces})


def push_simplex(vertex_map, s):
    """(sign, sorted image) of a simplex, or (0, None) if the image collapses;
    the sign is (-1)^(length - number of cycles) of the sorting permutation."""
    image = [vertex_map[v] for v in s]
    if len(set(image)) < len(image):
        return 0, None
    order = sorted(range(len(image)), key=image.__getitem__)
    seen, cycles = set(), 0
    for i in range(len(order)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = order[i]
    return (-1) ** (len(order) - cycles), tuple(sorted(image))


def push(vertex_map, coeffs):
    """The pushforward of a chain given as {simplex: coefficient}."""
    out = {}
    for s, c in coeffs.items():
        sign, image = push_simplex(vertex_map, s)
        if sign:
            out[image] = out.get(image, 0) + sign * c
    return _nonzero(out)


def pull(vertex_map, values, simplices):
    """(phi^* a)(s) = sign * a(image) for each source simplex s."""
    out = {}
    for s in simplices:
        sign, image = push_simplex(vertex_map, s)
        out[s] = sign * values.get(image, 0)
    return _nonzero(out)


def character_equal(h, g):
    """Identical curvature and lift difference with integral periods."""
    if not isinstance(g, DiffChar):
        return False
    if h.complex != g.complex or h.degree != g.degree:
        return False
    if h.curvature != g.curvature:
        return False
    return has_integral_periods(h.lift - g.lift)


def character_is_zero(h):
    return h.curvature.is_zero() and has_integral_periods(h.lift)


def flat_class_equal(u, v):
    return (
        isinstance(v, FlatClass)
        and u.complex == v.complex
        and u.degree == v.degree
        and has_integral_periods(u.cochain - v.cochain)
    )


def flat_class_is_zero(u):
    return has_integral_periods(u.cochain)


def relative_equal(f, g):
    """Identical pair (curvature, cov) and integral lift difference."""
    if not isinstance(g, RelChar):
        return False
    if f.cone != g.cone or f.degree != g.degree:
        return False
    if f.curvature != g.curvature or f.cov != g.cov:
        return False
    return _integral_on_cone_cycles(f, f.lift_x - g.lift_x, f.lift_a - g.lift_a)


def relative_is_zero(f):
    return (
        f.curvature.is_zero()
        and f.cov.is_zero()
        and _integral_on_cone_cycles(f, f.lift_x, f.lift_a)
    )


def _integral_on_cone_cycles(f, lift_x, lift_a):
    """Whether the lift pair pairs integrally with every cone cycle."""
    split = f.cone.splitting(f.degree - 1)
    return split.integral_periods(lift_x.to_vector() + lift_a.to_vector())


def projection_vertices(product, k):
    """Vertex map of the projection of a staircase product onto factor k."""
    return tuple(product.decode(w)[k] for w in range(product.num_vertices))


def product_map_vertices(left_map, right_map, source, target):
    """Vertex map of (u, v) -> (left u, right v) between staircase products."""
    vm = []
    for w in range(source.num_vertices):
        u, v = source.decode(w)
        vm.append(target.encode(left_map.vertex_map[u], right_map.vertex_map[v]))
    return tuple(vm)


def transpose_vertices(product, flipped):
    """Vertex map of the coordinate swap (u, v) -> (v, u)."""
    vm = []
    for w in range(product.num_vertices):
        u, v = product.decode(w)
        vm.append(flipped.encode(v, u))
    return tuple(vm)


def rebracket_vertices(flat_total, nested_total):
    """Vertex map of (x, (f1, f2)) -> ((x, f1), f2)."""
    FF, XF1 = flat_total.right, nested_total.left
    vm = []
    for w in range(flat_total.num_vertices):
        x, ff = flat_total.decode(w)
        f1, f2 = FF.decode(ff)
        vm.append(nested_total.encode(XF1.encode(x, f1), f2))
    return tuple(vm)


def combined_swap_vertices(left_transfer, right_transfer, total, target):
    """Vertex map of ((x, x2), (f, f2)) -> ((x, f), (x2, f2)), from the
    product of the bases times the product of the fibers onto the product of
    the two total spaces."""
    base, fiber = total.left, total.right
    vm = []
    for w in range(total.num_vertices):
        bb, ff = total.decode(w)
        x, x2 = base.decode(bb)
        f, f2 = fiber.decode(ff)
        vm.append(target.encode(left_transfer.total.encode(x, f),
                                right_transfer.total.encode(x2, f2)))
    return tuple(vm)


def closure_product(left, right, name=""):
    """The staircase product of left and right, closed by the checking
    `Complex` constructor: over a p-simplex s and a q-simplex t, each choice
    of p positions among p + q steps for the steps in s gives the staircase
    through (s[a], t[b]) for the points (a, b) of its path from (0, 0)."""
    nr = right.num_vertices
    staircases = set()
    for s in left.all_simplices():
        for t in right.all_simplices():
            p, q = len(s) - 1, len(t) - 1
            for steps in combinations(range(p + q), p):
                a, path = 0, [(0, 0)]
                for j in range(p + q):
                    if j in steps:
                        a += 1
                    path.append((a, j + 1 - a))
                staircases.add(tuple(s[a] * nr + t[b] for a, b in path))
    return Complex(left.num_vertices * nr, staircases, name or f"({left.name}x{right.name})")


def maximal_simplices(complex):
    """The simplices whose row of d_{n+1} is empty, by dimension and then
    lexicographically."""
    out = []
    for n in range(complex.dim + 1):
        cofaces = complex.boundary_matrix(n + 1).entries
        out += [s for s, row in zip(complex.simplices(n), cofaces) if not row]
    return out


def _pushforward_kernel_lattice(phi, degree, gens):
    """Coefficient vectors n with sum(n_i * gens_i) dead in the target: free
    coordinates cancel exactly, torsion ones modulo their orders, with
    auxiliary columns absorbing the moduli.  The coordinates are the pushed
    cycles' coordinates in the adapted generators, U_N^{-1} times their
    cycle coordinates (N the target's relations), with no torsion entry
    reduced."""
    pres_x = phi.target.homology(degree)
    rel_snf = phi.target.relation_snf(degree + 1)
    free = list(range(rel_snf.rank, rel_snf.rank + pres_x.betti))
    tors_pos = [i for i, d in enumerate(rel_snf.factors) if d > 1]
    columns = [rel_snf.apply_u_inv(pres_x.kernel_coordinates(phi.push_chain(g).to_vector()))
               for g in gens]
    entries = [
        {j: col[i] for j, col in enumerate(columns) if col[i]} for i in free + tors_pos
    ]
    for idx, d in enumerate(pres_x.torsion):
        entries[len(free) + idx][len(gens) + idx] = d
    matrix = IntMatrix._trusted(len(entries), len(gens) + len(tors_pos), tuple(entries))
    return [vec[: len(gens)] for vec in kernel_basis(smith_normal_form(matrix))]


def flat_class_pulled_back(u, phi):
    """Whether the flat class u on A pairs integrally with every combination
    of homology generators of A that dies in X, summed pairing by pairing."""
    A, d = phi.source, u.degree
    gens = [A.chain_from_vector(d, vec) for vec in A.homology(d).generators]
    if not gens:
        return True
    for vec in _pushforward_kernel_lattice(phi, d, gens):
        total = Fraction(0)
        for c, g in zip(vec, gens):
            if c:
                total += c * pair(u.cochain, g)
        if total % 1 != 0:
            return False
    return True


def pushforward_injective(phi, degree):
    """Whether every combination of homology generators of A that dies in X
    is already zero in H(A), the combination summed as a dense vector."""
    A = phi.source
    hom_a = A.homology(degree)
    gens = [A.chain_from_vector(degree, vec) for vec in hom_a.generators]
    if not gens:
        return True
    for vec in _pushforward_kernel_lattice(phi, degree, gens):
        combo = [0] * len(A.simplices(degree))
        for c, g in zip(vec, gens):
            if c:
                for i, x in enumerate(g.to_vector()):
                    combo[i] += c * x
        if not hom_a.is_zero(combo):
            return False
    return True


def identity(n):
    """The n x n identity IntMatrix."""
    return IntMatrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)])


def zero(rows, cols):
    """The rows x cols zero IntMatrix."""
    return IntMatrix(rows, cols, [[0] * cols for _ in range(rows)])


def matmul(a, b):
    """The product a * b of two IntMatrix objects: row i is the sum of
    x[i][k] times row k of b over the nonzero entries x[i][k]."""
    if a.cols != b.rows:
        raise ValueError("matrix dimensions do not compose")
    x, y = a.data, b.data
    rows = []
    for row in x:
        out = [0] * b.cols
        for k, c in enumerate(row):
            if c:
                for j, v in enumerate(y[k]):
                    out[j] += c * v
        rows.append(out)
    return IntMatrix(a.rows, b.cols, rows)


def apply(a, vec):
    """Matrix times column vector; accepts ints or Fractions."""
    if len(vec) != a.cols:
        raise ValueError("vector length does not match matrix columns")
    return [sum(x * v for x, v in zip(row, vec)) for row in a.data]


def column(a, j):
    return [row[j] for row in a.data]


def check_factorization(snf, a):
    """Assert that snf factors the IntMatrix a as U * D * V: the shape is a's,
    U * U^{-1} and V * V^{-1} are identities (so the integer matrices U and V
    have determinant +-1), the rank is the oracle's, and D holds the
    oracle's invariant factors d1 | d2 | ... on its diagonal, followed by
    zeros, and nothing off it."""
    assert (snf.rows, snf.cols) == (a.rows, a.cols)
    assert matmul(matmul(snf.U, snf.D), snf.V) == a
    assert matmul(snf.U, snf.u_inv) == identity(a.rows)
    assert matmul(snf.V, snf.v_inv) == identity(a.cols)
    want = invariant_factors(a.data)
    assert all(d > 0 for d in want) and all(e % d == 0 for d, e in zip(want, want[1:]))
    assert snf.factors == want
    assert snf.rank == rational_rank(a.data)
    diagonal = want + [0] * (min(a.rows, a.cols) - len(want))
    assert snf.D.data == tuple(
        tuple(diagonal[i] if i == j else 0 for j in range(a.cols)) for i in range(a.rows))
