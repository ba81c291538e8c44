"""Brute-force reference computations, independent of the production paths.

Rank over Q by plain Gaussian elimination on Fractions; invariant factors by
a classic reduce-and-recurse loop that tracks no transform matrices and
shares no code with the package.  Homology ranks and torsion follow from
boundary matrices alone: betti_n = dim C_n - rank d_n - rank d_{n+1}, and
the torsion of H_n is the list of invariant factors of d_{n+1} exceeding 1.

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
coordinate rule, `ProductComplex._map_of`.  The maximal simplices are read
off the empty rows of d_{n+1}, and the two pushforward-kernel predicates of
`relative` walk the kernel lattice each with its own combination loop, as
the package once did.

The dense matrix helpers at the end (identity, zero, product, matrix times
vector, column, determinant) work on the `data` view of an IntMatrix with
textbook loops; the package itself only ever reads a matrix's nonzeros.
"""

from __future__ import annotations

from fractions import Fraction

from diffchar.characters import DiffChar, FlatClass
from diffchar.cochain import has_integral_periods, pair
from diffchar.exact_linalg import IntMatrix, kernel_basis
from diffchar.relative import RelChar


def rational_rank(rows):
    """Rank of a matrix (list of row lists) by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    for j in range(len(m[0])):
        pivot_row = None
        for i in range(rank, len(m)):
            if m[i][j] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pv = m[rank][j]
        for i in range(rank + 1, len(m)):
            if m[i][j] != 0:
                f = m[i][j] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def invariant_factors(rows):
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    m = [list(row) for row in rows if any(row)]
    factors = []
    while m and m[0]:
        live = [j for j in range(len(m[0])) if any(row[j] for row in m)]
        m = [[row[j] for j in live] for row in m if any(row)]
        if not m or not m[0]:
            break
        while True:
            bi, bj = min(
                (
                    (i, j)
                    for i, row in enumerate(m)
                    for j, x in enumerate(row)
                    if x != 0
                ),
                key=lambda ij: abs(m[ij[0]][ij[1]]),
            )
            if bi != 0:
                m[0], m[bi] = m[bi], m[0]
            if bj != 0:
                for row in m:
                    row[0], row[bj] = row[bj], row[0]
            d = m[0][0]
            dirty = False
            for i in range(1, len(m)):
                if m[i][0] != 0:
                    q = m[i][0] // d
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[0])]
                    if m[i][0] != 0:
                        dirty = True
            for j in range(1, len(m[0])):
                if m[0][j] != 0:
                    q = m[0][j] // d
                    if q:
                        for row in m:
                            row[j] -= q * row[0]
                    if m[0][j] != 0:
                        dirty = True
            if dirty:
                continue
            d = m[0][0]
            culprit = None
            for i in range(1, len(m)):
                if any(x % d for x in m[i]):
                    culprit = i
                    break
            if culprit is None:
                break
            m[0] = [a + b for a, b in zip(m[0], m[culprit])]
        factors.append(abs(m[0][0]))
        m = [row[1:] for row in m[1:]]
    return factors


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
    auxiliary columns absorbing the moduli."""
    pres_x = phi.target.homology(degree)
    free = pres_x.free_positions()
    tors_pos = pres_x.torsion_positions()
    columns = [pres_x.adapted_coordinates(phi.push_chain(g).to_vector()) for g in gens]
    entries = [
        {j: col[i] for j, col in enumerate(columns) if col[i]} for i in free + tors_pos
    ]
    for idx, d in enumerate(pres_x.torsion):
        entries[len(free) + idx][len(gens) + idx] = d
    matrix = IntMatrix._trusted(len(entries), len(gens) + len(tors_pos), tuple(entries))
    return [vec[: len(gens)] for vec in kernel_basis(matrix)]


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


def det(a):
    """Determinant via fraction-free Bareiss elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
