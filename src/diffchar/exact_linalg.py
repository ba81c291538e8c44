"""Exact integer linear algebra.

Smith normal form over the integers is the single engine behind everything
else in this module: integer linear solving, kernel bases, the splitting of a
chain group into cycles plus a complement, and finitely generated homology
groups presented by boundary matrices.  All arithmetic uses arbitrary
precision Python integers and fractions.Fraction; there is no floating point.

Vectors and transforms are sparse {index: value} dicts, and outside the
elimination itself every product with them is one of three loop kernels:
`_dots` (sparse rows times a dense vector), `_combination` (a sparse
combination of sparse vectors) and `_accumulate` (a dense combination of
sparse vectors).  `_axpy` is the one transform step of both elimination
phases: each row or column step updates the transforms through it, and a
unit pivot writes its column of U and row of V outright.  It is the only
in-place update of a vector, on vectors the elimination made itself: every
vector the module hands out is read-only and may be shared, with a matrix,
another transform or another factorization, instead of copied.  Identity
vectors are shared most of all: boundary matrices reduce almost entirely on
+-1 pivots, so most rows and columns of the transforms are never touched,
and each identity vector e_k that no Euclid-phase step wrote is the one
{k: 1} of the module's table `_UNITS`.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd


class InvariantViolation(Exception):
    """A mathematical invariant the code relies on failed to hold.

    Signals an internal fault, never bad input, so it deliberately does not
    derive from ValueError.
    """


class IntMatrix:
    """Integer matrix stored by its nonzeros: `entries[i]` is the
    {column: value} dict of row i, with no zero values.

    The public constructor takes dense rows and checks them; the library
    builds its matrices with `_trusted` from sparse rows, so making, copying,
    transposing and reducing a matrix costs time and memory in its nonzeros,
    not in rows x cols.  `data` is a dense tuple-of-tuples view built on
    demand, for checks and reports only.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix data does not match dimensions")
        for row in data:
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("IntMatrix entries must be int")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(dict(compress(enumerate(r), r)) for r in data)

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """A matrix the library built itself: `entries` is a tuple of `rows`
        {column: nonzero int} dicts with columns in range(cols), which no one
        mutates afterwards, so nothing is checked."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @property
    def data(self):
        """The dense rows, as a tuple of int tuples."""
        return tuple(tuple(_dense(self.cols, row)) for row in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, x in row.items():
                out[j][i] = x
        return IntMatrix._trusted(self.cols, self.rows, tuple(out))


# The unit vector e_k = {k: 1} for each index k below the largest dimension
# factored so far: every identity vector a factorization holds is one of
# these dicts, so no one may write into them.
_UNITS = []


def _units(n):
    """The table of unit vectors, grown to at least n of them."""
    _UNITS.extend({k: 1} for k in range(len(_UNITS), n))
    return _UNITS


def _dense(length, vec):
    out = [0] * length
    for i, x in vec.items():
        out[i] = x
    return out


class SnfDecomposition:
    """Factorization A = U * D * V with U, V unimodular and D diagonal.

    The diagonal of D is `factors` (the invariant factors d1 | d2 | ..., all
    positive, `rank` of them) followed by zeros.  The four transforms are
    kept sparse, as lists of {index: value} dicts: U by columns, U^{-1} by
    rows, V by rows and V^{-1} by columns (a `CycleSplitting.lift` builds
    the first `rank` columns of U, and the first `rank` rows of U^{-1},
    whole on the first read that reaches them).  Callers outside this
    module read them through the methods below; `transpose` swaps their
    roles without copying anything.  The dense matrices U, D, V, u_inv and
    v_inv are built on demand, for checks and statistics only.
    """

    __slots__ = ("rows", "cols", "rank", "factors", "_u", "_u_inv", "_v", "_v_inv")

    def __init__(self, rows, cols, factors, u_cols, u_inv_rows, v_rows, v_inv_cols):
        self.rows = rows
        self.cols = cols
        self.rank = len(factors)
        self.factors = factors
        self._u = u_cols
        self._u_inv = u_inv_rows
        self._v = v_rows
        self._v_inv = v_inv_cols

    def transpose(self):
        """The factorization A^T = V^T * D^T * U^T, sharing this one's storage."""
        return SnfDecomposition(
            self.cols, self.rows, self.factors, self._v, self._v_inv, self._u, self._u_inv
        )

    def apply_u_inv(self, vec):
        """U^{-1} vec; accepts ints or Fractions, with the result types of _dots."""
        return _dots(self._u_inv, vec)

    def apply_v_inv(self, vec):
        """V^{-1} vec; accepts ints or Fractions, and keeps vec's type of zero."""
        zero = vec[0] * 0 if vec else 0
        return _accumulate(self.cols, vec, self._v_inv, zero)

    @property
    def U(self):
        return _square(self.rows, self._u).transpose()

    @property
    def u_inv(self):
        return _square(self.rows, self._u_inv)

    @property
    def V(self):
        return _square(self.cols, self._v)

    @property
    def v_inv(self):
        return _square(self.cols, self._v_inv).transpose()

    @property
    def D(self):
        rows = [{i: d} for i, d in enumerate(self.factors)]
        rows += [{}] * (self.rows - self.rank)
        return IntMatrix._trusted(self.rows, self.cols, tuple(rows))


def _square(n, vectors):
    """The n x n IntMatrix whose rows are the given sparse vectors."""
    return IntMatrix._trusted(n, n, tuple(map(dict, vectors)))


def _axpy(target, t, source):
    """target += t * source, on sparse {index: value} vectors."""
    for k, x in source.items():
        y = target.get(k, 0) + t * x
        if y:
            target[k] = y
        else:
            del target[k]


def smith_normal_form(A):
    """Smith normal form of an IntMatrix, with sparse unimodular transforms.

    Boundary matrices are almost all +-1 pivots (Dumas, Heckenbach, Saunders
    and Welker, 2003), so the reduction first eliminates on unit pivots, in
    a Markowitz-style order: the column with the fewest nonzeros first, then
    its shortest row holding a unit, ties broken by index.  Each pivot clears
    its column by row steps and its row by column steps, on sparse rows.
    When no unit entry is left, the same sparse rows are reduced Euclid
    style on an entry of least absolute value, ties broken by row and then
    column: remainders become the next pivot, and a row holding an entry
    the cleared pivot does not divide is added to the pivot row, so that
    d1 | d2 | ....  The transforms share vectors rather than copy them: a
    +1 pivot's row of V is its working row, and a row of U^{-1} equal to
    its column of U is one dict.  Each row and column of a transform starts
    as the shared e_k = {k: 1} of `_UNITS` and gets a dict of its own when a
    step first writes into it, so every identity vector that no Euclid-phase
    step wrote is the shared one.
    """
    rows, cols = A.rows, A.cols
    units = _units(max(rows, cols))
    S = list(map(dict, A.entries))
    in_col = [set() for _ in range(cols)]
    for i, row in enumerate(S):
        for j in row:
            in_col[j].add(i)
    # L and L^{-1}, the row steps so far, and R and R^{-1}, the column
    # steps, with L A R the working matrix S.  Each starts as the shared unit
    # vectors; unit pivots set their rows of L^{-1} and R^{-1} outright.
    L, L_inv = units[:rows], units[:rows]
    R, R_inv = units[:cols], units[:cols]
    pivots = []
    # A column j with count nonzeros is keyed count * cols + j, so ints order
    # the heap by count and then index.
    heap = [len(c) * cols + j for j, c in enumerate(in_col) if c]
    heapify(heap)
    while heap:
        count, j = divmod(heappop(heap), cols)
        col = in_col[j]
        if count != len(col):
            continue
        best = None
        for r in col:
            if S[r][j] in (1, -1) and (best is None or (len(S[r]), r) < best):
                best = (len(S[r]), r)
        if best is None:
            # Parked: a later row step that changes the column pushes it again.
            continue
        i = best[1]
        pivot_row = S[i]
        e = pivot_row[j]
        # This pivot's column of U is the pivot column as it stands, and its
        # row of V is e times the pivot row: the shared e_i for a +1 alone in
        # its column, and the shared e_j for a pivot alone in its row.
        if len(col) > 1 or e < 0:
            L_inv[i] = {r: S[r][j] for r in col}
        if len(pivot_row) > 1:
            R_inv[j] = pivot_row if e == 1 else {c: -x for c, x in pivot_row.items()}
        for r in [r for r in col if r != i]:
            row = S[r]
            t = -row[j] * e
            for c, x in pivot_row.items():
                y = row.get(c, 0) + t * x
                if y:
                    if c not in row:
                        in_col[c].add(r)
                    row[c] = y
                else:
                    del row[c]
                    in_col[c].discard(r)
            if L[r] is units[r]:
                L[r] = {r: 1}
            _axpy(L[r], t, L[i])
        # The row steps above left the pivot row as it was, so each of its
        # other columns is pushed with its final count, unless it emptied.
        for c, x in pivot_row.items():
            col = in_col[c]
            col.discard(i)
            if c != j:
                if R[c] is units[c]:
                    R[c] = {c: 1}
                _axpy(R[c], -x * e, R[j])
                if col:
                    heappush(heap, len(col) * cols + c)
        S[i] = {}
        pivots.append((i, j))
        if e < 0:
            # D gets +1; the sign goes to this row of U^{-1}, as to U above.
            L[i] = {k: -x for k, x in L[i].items()}

    # No unit entry is left: the rest is reduced Euclid style, on the same
    # sparse rows, with the transforms updated step by step.
    factors = [1] * len(pivots)

    def own(vectors, k):
        # vectors[k], made a dict of its own first if it is the shared e_k.
        if vectors[k] is units[k]:
            vectors[k] = {k: 1}
        return vectors[k]

    def put(r, c, y):
        row = S[r]
        if y:
            if c not in row:
                in_col[c].add(r)
            row[c] = y
        else:
            del row[c]
            in_col[c].discard(r)

    def row_step(r, i, t):
        # S[r] += t * S[i], so L[r] += t * L[i] and U's column i -= t * its column r.
        for c, x in S[i].items():
            put(r, c, S[r].get(c, 0) + t * x)
        _axpy(own(L, r), t, L[i])
        _axpy(own(L_inv, i), -t, L_inv[r])

    def col_step(c, j, t):
        # S's column c += t * its column j, so R[c] += t * R[j] and V's row j
        # -= t * its row c.
        for r in in_col[j]:
            put(r, c, S[r].get(c, 0) + t * S[r][j])
        _axpy(own(R, c), t, R[j])
        _axpy(own(R_inv, j), -t, R_inv[c])

    def least():
        return min((abs(x), r, c) for r in live for c, x in S[r].items())[1:]

    live = [r for r in range(rows) if S[r]]
    seen_rows, seen_cols = set(live), {c for c in range(cols) if in_col[c]}
    while live:
        i, j = least()
        while True:
            d = S[i][j]
            for r in [r for r in in_col[j] if r != i]:
                q = S[r][j] // d
                if q:
                    row_step(r, i, -q)
            for c in [c for c in S[i] if c != j]:
                q = S[i][c] // d
                if q:
                    col_step(c, j, -q)
            if len(S[i]) > 1 or len(in_col[j]) > 1:
                i, j = least()
                continue
            # Row and column are clear.  A row holding an entry d does not
            # divide joins the pivot row, so that d divides every later factor.
            culprit = next((r for r in live if any(x % d for x in S[r].values())), None)
            if culprit is None:
                break
            row_step(i, culprit, 1)
        if d < 0:
            # D gets -d; the sign goes to this row of U^{-1} and column of U.
            L[i] = {k: -x for k, x in L[i].items()}
            L_inv[i] = {k: -x for k, x in L_inv[i].items()}
        S[i] = {}
        in_col[j].clear()
        pivots.append((i, j))
        factors.append(abs(d))
        live = [r for r in live if S[r]]

    # Both phases update L and L^{-1} in place, so a row of U^{-1} equal to
    # its column of U is shared only now.
    for k, vec in enumerate(L_inv):
        if L[k] == vec:
            L[k] = vec

    # Pivots first, then the rows and columns left zero: those the non-unit
    # phase saw before the others, each by index.
    row_order = [i for i, _ in pivots]
    col_order = [j for _, j in pivots]
    row_order += sorted(
        set(range(rows)).difference(row_order), key=lambda r: (r not in seen_rows, r))
    col_order += sorted(
        set(range(cols)).difference(col_order), key=lambda c: (c not in seen_cols, c))
    return SnfDecomposition(
        rows,
        cols,
        factors,
        [L_inv[i] for i in row_order],
        [L[i] for i in row_order],
        [R_inv[j] for j in col_order],
        [R[j] for j in col_order],
    )


def _solve(snf, b, zero, divide):
    """x with A x = b, A = U D V factored by snf, where divide(c, d) solves
    d y = c or returns None."""
    if len(b) != snf.rows:
        raise ValueError("right-hand side length does not match matrix rows")
    c = snf.apply_u_inv(b)
    if any(c[snf.rank:]):
        return None
    y = [zero] * snf.cols
    for i, d in enumerate(snf.factors):
        y[i] = divide(c[i], d)
        if y[i] is None:
            return None
    return snf.apply_v_inv(y)


def solve_integer(snf, b):
    """Solve A x = b over the integers, A given by its SnfDecomposition, so
    that repeated solves against one matrix share the reduction; None when
    no integer solution exists."""
    return _solve(snf, b, 0, lambda c, d: None if c % d else c // d)


def solve_rational(snf, b):
    """Solve A x = b over the rationals, A given by its SnfDecomposition;
    None when the system is inconsistent."""
    return _solve(snf, b, Fraction(0), Fraction)


def kernel_basis(snf):
    """Basis of the integer kernel lattice of A, given by its SnfDecomposition,
    as a list of column vectors.

    The vectors are the trailing columns of V^{-1}; together with the leading
    columns they form a basis of Z^cols, which is what makes the splitting
    below work.
    """
    return [_dense(snf.cols, col) for col in snf._v_inv[snf.rank:]]


class CycleSplitting:
    """Splitting of the degree-n chain group into cycles plus a complement.

    The short exact sequence 0 -> (cycles) -> (chains) -> (boundaries below)
    -> 0 splits because the boundary lattice is free.  With the boundary
    matrix factored as U * D * V of rank r, the rows r: of V give the
    coordinates of a chain's cycle part and the columns r: of V^{-1} are a
    basis of the cycles.  Only these kernel rows and columns are read, as the
    factorization's sparse {index: value} dicts; the projection onto cycles is
    `combine(coordinates(v))`, and it fixes exactly the cycles.
    """

    __slots__ = ("snf", "_rows", "_cols")

    def __init__(self, snf):
        self.snf = snf
        self._rows = snf._v[snf.rank:]
        self._cols = snf._v_inv[snf.rank:]

    @property
    def cycle_basis(self):
        """The basis cycles as dense vectors."""
        return kernel_basis(self.snf)

    def coordinates(self, v):
        """V[r:] v: coordinates of the cycle part of a chain in the cycle basis."""
        return _dots(self._rows, v)

    def combine(self, c):
        """V^{-1}[:, r:] c: the cycle with coordinates c."""
        return _accumulate(self.snf.cols, c, self._cols)

    def periods(self, a):
        """V^{-1}[:, r:]^T a: the values of a cochain on the basis cycles."""
        return _dots(self._cols, a)

    def integral_periods(self, a):
        """Whether a cochain takes integer values on every cycle."""
        return all(p.denominator == 1 for p in self.periods(a))

    def dual(self, w):
        """V[r:]^T w: the cochain with periods w that vanishes on the complement."""
        return _accumulate(self.snf.cols, w, self._rows)

    def relations(self, matrix):
        """The columns of `matrix`, whose rows are indexed like the chains,
        written in cycle coordinates: V[r:] * matrix, as an IntMatrix."""
        rows = matrix.entries
        return IntMatrix._trusted(
            len(self._rows), matrix.cols, tuple(_combination(row, rows) for row in self._rows)
        )

    def lift(self, rel_snf):
        """The factorization of a matrix whose columns are cycles, read off the
        factorization U_N * D * V of its `relations`.

        The matrix is K * U_N * D * V, with K = V^{-1}[:, r:] the cycle basis;
        completing K * U_N by the complement columns V^{-1}[:, :r] gives a
        unimodular U, whose inverse stacks U_N^{-1} * V[r:] over V[:r].
        The library reads only the columns s: of U (s the rank of U_N), as
        cocycle coordinates, and the rows :s of U^{-1} only to solve, so
        K * U_N[:, :s] and U_N^{-1}[:s] * V[r:] are each built whole on the
        first read that reaches them: a solve reads all of U^{-1}.
        """
        snf = self.snf
        r = snf.rank
        s = rel_snf.rank
        cols, rows = self._cols, self._rows
        u_cols = _LazyHead(
            rel_snf._u[:s], lambda col: _combination(col, cols),
            [_combination(col, cols) for col in rel_snf._u[s:]] + snf._v_inv[:r])
        u_inv_rows = _LazyHead(
            rel_snf._u_inv[:s], lambda row: _combination(row, rows),
            [_combination(row, rows) for row in rel_snf._u_inv[s:]] + snf._v[:r])
        return SnfDecomposition(
            snf.cols, rel_snf.cols, rel_snf.factors, u_cols, u_inv_rows, rel_snf._v, rel_snf._v_inv
        )


class _LazyHead:
    """The read-only list [build(x) for x in head] + tail, whose head is
    built whole on the first read that reaches it; a read within the tail
    builds nothing."""

    __slots__ = ("_head", "_build", "_tail", "_items")

    def __init__(self, head, build, tail):
        self._head, self._build, self._tail, self._items = head, build, tail, None

    def __len__(self):
        return len(self._head) + len(self._tail)

    def _built(self):
        if self._items is None:
            self._items = [self._build(x) for x in self._head]
        return self._items

    def __getitem__(self, key):
        s = len(self._head)
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step == 1 and start >= s:
                return self._tail[start - s:max(start, stop) - s]
            return (self._built() + self._tail)[key]
        k = range(len(self))[key]
        return self._built()[k] if k < s else self._tail[k - s]

    def __iter__(self):
        return iter(self._built() + self._tail)


def _dots(rows, vec):
    """[row . vec for row in rows], each sparse row against a dense vec.

    Starts every sum at the int 0, as sum() does: an empty row gives 0, and
    Fraction entries give Fractions.
    """
    out = []
    for row in rows:
        acc = 0
        for j, x in row.items():
            acc += x * vec[j]
        out.append(acc)
    return out


def _combination(coeffs, vectors):
    """The sum of c * vectors[k] over the items k: c of coeffs, all sparse;
    vectors[k] itself for the single coefficient k: 1."""
    if len(coeffs) == 1:
        ((k, c),) = coeffs.items()
        return vectors[k] if c == 1 else {i: c * x for i, x in vectors[k].items()}
    acc = {}
    get = acc.get
    for k, c in coeffs.items():
        for i, x in vectors[k].items():
            y = get(i, 0) + c * x
            if y:
                acc[i] = y
            else:
                del acc[i]
    return acc


def _accumulate(length, coeffs, vectors, zero=0):
    """sum(c * v) over sparse vectors v, as a dense list of the given length."""
    out = [zero] * length
    for c, vec in zip(coeffs, vectors):
        if c:
            for i, x in vec.items():
                out[i] += c * x
    return out


def cycle_splitting(complex, n):
    """CycleSplitting of C_n: ker d_n = ker N_n, so it reads N_n's factorization."""
    return CycleSplitting(complex.relation_snf(n))


class QuotientPresentation:
    """The finitely generated abelian group ker(out) / im(in).

    Presented with an adapted generating set: torsion generators first (with
    their orders, each > 1), then free generators.  `kernel` is the
    CycleSplitting of `out`; `coordinates` maps any kernel vector to (free
    coordinates, torsion residues), the one reading of its class, which is
    zero iff both parts vanish.
    """

    __slots__ = ("betti", "torsion", "generators", "kernel", "_class_rows")

    def __init__(self, kernel, factors, columns, rows):
        """`kernel` is the CycleSplitting of `out`; the image generators of `in`,
        in its cycle coordinates, factor as U * D * V with `factors` on D's
        diagonal: `columns` are U's sparse columns and `rows` U^{-1}'s rows."""
        z = kernel.snf.cols - kernel.snf.rank
        if len(rows) != z:
            raise ValueError("boundary matrices do not compose")
        s = len(factors)
        torsion = [i for i, d in enumerate(factors) if d > 1]
        self.kernel = kernel
        self._class_rows = [rows[i] for i in torsion] + rows[s:]
        self.torsion = [factors[i] for i in torsion]
        self.betti = z - s
        n = kernel.snf.cols
        self.generators = [
            _dense(n, _combination(columns[i], kernel._cols)) for i in torsion + list(range(s, z))]

    def kernel_coordinates(self, vec):
        """Coordinates of vec in the cycle basis; None when it is not in the kernel."""
        if len(vec) != self.kernel.snf.cols:
            raise ValueError("vector length does not match the chain group")
        y = self.kernel.coordinates(vec)
        return y if self.kernel.combine(y) == list(vec) else None

    def coordinates(self, vec):
        """(free coordinates, torsion residues) of the class of a kernel
        vector: its coordinates in the adapted generators, read off only the
        free and torsion rows of U_N^{-1} (N the relations), the torsion
        entries reduced mod their orders."""
        y = self.kernel_coordinates(vec)
        if y is None:
            raise ValueError("vector is not in the kernel")
        w = _dots(self._class_rows, y)
        t = len(self.torsion)
        return tuple(w[t:]), tuple(x % d for x, d in zip(w, self.torsion))

    def torsion_functional(self, index):
        """The cochain whose value on a cycle is its (unreduced) coordinate at
        the index-th torsion generator; it vanishes on the complement of the
        cycles."""
        w = self._class_rows[index]
        return _dense(self.kernel.snf.cols, _combination(w, self.kernel._rows))

    def is_zero(self, vec):
        free, tors = self.coordinates(vec)
        return all(x == 0 for x in free) and all(x == 0 for x in tors)

    def class_order(self, vec):
        """Order of the class: a positive int, or 0 for infinite order."""
        free, tors = self.coordinates(vec)
        if any(x != 0 for x in free):
            return 0
        n = 1
        for residue, d in zip(tors, self.torsion):
            if residue != 0:
                q = d // gcd(d, residue)
                n = n * q // gcd(n, q)
        return n


def homology(complex, n):
    """H_n as a QuotientPresentation of ker d_n / im d_{n+1}.

    `complex` is a simplicial complex or a mapping cone: it keeps the memo
    of relation_snf, boundary_snf and splitting, while coboundary_snf is a
    transpose made on each call.  The relations of H_n are N_{n+1}, d_{n+1}
    in the cycle coordinates of C_n, whose factors, U and U^{-1} degree
    n + 1 makes anyway.  Generator chains are reconstructed by the caller
    from `generators` since only the caller knows the basis.
    """
    rel = complex.relation_snf(n + 1)
    return QuotientPresentation(complex.splitting(n), rel.factors, rel._u, rel._u_inv)


def cohomology(complex, k):
    """Integral cohomology in degree k of the dual complex, with no
    elimination of its own.

    Cochains in degree k are vectors indexed by k-simplices; the coboundary
    d_{k+1}^T is factored as the transpose of boundary_snf(k + 1), whose U
    is [K * U_N | V_k^{-1}[:, :r]] (see CycleSplitting.lift), V_k the V of
    boundary_snf(k) = U_k * D_k * V_k.  In the cocycle coordinates of that
    factorization, the relations d_k^T = V_k^T * D_k^T * U_k^T come out as
    [0 ; diag(d) * U_k^T[:r]], d the r factors of D_k: a row permutation,
    the factors d and V = U_k^T make a Smith normal form as it stands.  V
    is not read and d are the factors of relation_snf(k): boundary_snf(k)
    is not built.
    """
    kernel = CycleSplitting(complex.coboundary_snf(k))
    factors = complex.relation_snf(k).factors
    z = kernel.snf.cols - kernel.snf.rank
    r = len(factors)
    # Row i < r of D_k lands in row z - r + i; the zero rows come first.
    # Each row is a shared unit vector; the permutation is U and U^{-1} alike.
    units = _units(z)
    perm = units[z - r:z] + units[:z - r]
    return QuotientPresentation(kernel, factors, perm, perm)
