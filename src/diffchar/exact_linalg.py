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
sparse vectors, which reads only the vectors it multiplies).  `_axpy` is the
one transform step of both elimination phases: each row or column step
updates the transforms through it, and a unit pivot writes its row of V
outright.  It is the only in-place update of a vector, on
vectors the elimination made itself: every vector the module hands out is
read-only and may be shared, with a matrix, another transform or another
factorization, instead of copied.  Identity vectors are shared most of all:
boundary matrices reduce almost entirely on +-1 pivots, so most rows and
columns of the transforms are never touched, and each identity vector e_k
that no Euclid-phase step wrote is the one {k: 1} of the module's table
`_UNITS`.  V^{-1} is not stored: it is answered from V, whose unit-pivot
rows are the elimination's column steps, by one substitution for a whole
read and a sparse one for a single column (`_InverseColumns`); a homology
pass multiplies few of its columns.  U's columns at the unit pivots, which
no library code reads, are not kept either: they are derived from U^{-1}
on the first read that reaches them.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, islice, repeat
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
    read as lists of sparse {index: value} dicts: U by columns, U^{-1} by
    rows, V by rows and V^{-1} by columns.  Some are built on read.  U's
    first columns, those of the unit pivots, are not kept: they are derived
    from U^{-1} whole on the first read that reaches them
    (`_unit_pivot_columns`), while its Euclid-pivot and trailing columns are
    kept as they are.  A `CycleSplitting.lift` builds the first `rank`
    columns of U, and the first `rank` rows of U^{-1}, whole on the first
    read that reaches them.  V^{-1} is not stored: it is answered from V
    (`_InverseColumns`), whose unit-pivot rows form a triangular matrix
    with 1 on the diagonal, and from the block W^{-1} of the Euclid
    phase.  Callers outside this module read the transforms through the
    methods below; `transpose` swaps their roles without copying anything.
    The dense matrices U, D, V, u_inv and v_inv are built on demand, for
    checks and statistics only.
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
        """V^{-1} vec; accepts ints or Fractions, and keeps vec's type of zero.

        A factorization's V^{-1} is one backward substitution over V's rows.
        A lifted V^{-1} (a coboundary's) is read as one plain list: a solve's
        coefficients lie in its first `rank` entries, the head it builds."""
        zero = vec[0] * 0 if vec else 0
        vectors = self._v_inv
        if type(vectors) is _InverseColumns:
            return vectors._solve(vec, zero)
        if type(vectors) is _LazyHead:
            vectors = vectors._built()
        return _accumulate(self.cols, vec, vectors, zero)

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
    d1 | d2 | ....  The transforms share vectors rather than copy them.  A
    unit pivot's column of U is not written, since the Euclid phase never
    reads it: U's unit-pivot columns are derived from U^{-1} when first
    read.  Each row and column of a transform starts as the shared
    e_k = {k: 1} of `_UNITS` and gets a dict of its own when a step first
    writes into it, so every identity vector that no Euclid-phase step
    wrote is the shared one.  V^{-1} is not built: a unit pivot's row of V
    is its column steps, and V^{-1} is read from V's rows, the index of the
    unit pivots that hold each column, and the Euclid phase's own block
    W^{-1} on the columns left (`_InverseColumns`).
    """
    rows, cols = A.rows, A.cols
    units = _units(max(rows, cols))
    S = list(map(dict, A.entries))
    in_col = [set() for _ in range(cols)]
    for i, row in enumerate(S):
        for j in row:
            in_col[j].add(i)
    # L and L^{-1}, the row steps so far, and R^{-1} = V, the column steps,
    # with L A R the working matrix S.  Each starts as the shared unit
    # vectors; unit pivots set their rows of V outright and leave their
    # columns of L^{-1} as they are.
    L, L_inv = units[:rows], units[:rows]
    R_inv = units[:cols]
    pivots = []
    # held[c] lists the unit pivots, by position, whose rows of V hold
    # column c: the index through which V^{-1} is read (`_InverseColumns`).
    held = {}

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
        # This pivot's row of V is e times the pivot row, its own column
        # first, where `_InverseColumns` reads it; the shared e_j for a pivot
        # alone in its row.  Its column of U, the pivot column as it stands,
        # is not kept: U's unit-pivot columns are derived from U^{-1} on read
        # (`_unit_pivot_columns`).
        if len(pivot_row) > 1:
            R_inv[j] = {j: 1, **(pivot_row if e == 1 else {c: -x for c, x in pivot_row.items()})}
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
        p = len(pivots)
        for c in pivot_row:
            col = in_col[c]
            col.discard(i)
            if c != j:
                held.setdefault(c, []).append(p)
                if col:
                    heappush(heap, len(col) * cols + c)
        S[i] = {}
        pivots.append((i, j))
        if e < 0:
            # D gets +1; the sign goes to this row of U^{-1}.
            L[i] = {k: -x for k, x in L[i].items()}

    # No unit entry is left: the rest is reduced Euclid style, on the same
    # sparse rows, with the transforms updated step by step.  The column
    # steps touch only the columns left, so R is kept on them alone: it is
    # W^{-1}, W the block of V on those columns.
    m = len(pivots)
    factors = [1] * m
    R = units[:cols]

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

    # Pivots first, then the rows and columns left zero: those the non-unit
    # phase saw before the others, each by index.
    row_order = [i for i, _ in pivots]
    col_order = [j for _, j in pivots]
    row_order += sorted(
        set(range(rows)).difference(row_order), key=lambda r: (r not in seen_rows, r))
    col_order += sorted(
        set(range(cols)).difference(col_order), key=lambda c: (c not in seen_cols, c))
    v_rows = list(map(R_inv.__getitem__, col_order))
    u_inv_rows = list(map(L.__getitem__, row_order))
    u_tail = list(map(L_inv.__getitem__, row_order[m:]))
    return SnfDecomposition(
        rows,
        cols,
        factors,
        _LazyHead(lambda: _unit_pivot_columns(u_inv_rows, u_tail), m, u_tail),
        u_inv_rows,
        v_rows,
        _InverseColumns((v_rows, col_order[:m], list(map(R.__getitem__, col_order[m:])),
                         list(map(tuple, map(held.get, range(cols), repeat(())))), {}), (), 0, cols),
    )


def _unit_pivot_columns(u_inv, tail):
    """U's columns at the unit pivots, derived from U^{-1} and `tail`, U's
    other columns.

    A unit pivot's row of U^{-1} holds its own row index i, with its sign d,
    and otherwise only earlier pivots' indices: it only ever received their
    rows.  U's columns at later pivots and past the unit pivots vanish at i,
    so column i of U U^{-1} = I gives pivot p's column of U as
    d * (e_i - sum U^{-1}[q][i] * U[:, q]) over the rows q != p of U^{-1}
    that hold i, and one backward sweep of `_combination`s builds them all.
    """
    m = len(u_inv) - len(tail)
    units = _units(len(u_inv))
    # pivot[i] is the position of the unit pivot in row i: the one index of
    # its row of U^{-1} that no earlier pivot's row holds.
    pivot = {}
    for p, row in enumerate(islice(u_inv, m)):
        (i,) = row.keys() - pivot.keys()
        pivot[i] = p
    # held[p] maps each other row q of U^{-1} that holds pivot p's index to
    # its entry there: pivot p's column of U^{-1}, less the diagonal.
    held = [{} for _ in range(m)]
    for q, row in enumerate(u_inv):
        for i, x in row.items():
            p = pivot.get(i)
            if p is not None and p != q:
                held[p][q] = x
    cols = [None] * m + tail
    for i, p in reversed(pivot.items()):
        d = u_inv[p][i]
        coeffs = {q: -d * x for q, x in held[p].items()}
        cols[p] = {i: d, **_combination(coeffs, cols)} if coeffs or d < 0 else units[i]
    return cols[:m]


class _InverseColumns:
    """The read-only list head + V^{-1}[:, start:stop] of a factorization,
    answered from V: V^{-1} is not stored.

    V's first rows, the unit pivots' in pivot order, each hold their own
    column first, at 1, and otherwise only columns that pivot later or
    never; its other rows, W, hold only those other columns.  So
    V = [[V_PP, V_PX], [0, W]] with V_PP unit triangular, and
    V^{-1} = [[V_PP^{-1}, -V_PP^{-1} V_PX W^{-1}], [0, W^{-1}]].  The
    slices of one V^{-1} share `core`: V's rows, the unit pivots' columns,
    W^{-1}'s columns (the shared units where no Euclid step reached), for
    each column of V the unit pivots whose rows hold it, and the built
    columns kept.  A whole read is one substitution over V's unit-pivot
    rows: `_dots` forward, `_solve` backward.  One item is built by a sparse
    backward substitution from its column of W^{-1}, or e_j at a unit
    pivot's column j, that reaches through the holders only the pivots it
    depends on; it is kept if it lies past the unit pivots.  `head + view`
    is the view with the list `head` before its items.
    """

    __slots__ = ("_core", "_head", "_start", "_stop")

    def __init__(self, core, head, start, stop):
        self._core, self._head, self._start, self._stop = core, head, start, stop

    def __len__(self):
        return len(self._head) + self._stop - self._start

    def __radd__(self, head):
        return _InverseColumns(self._core, [*head, *self._head], self._start, self._stop)

    def __getitem__(self, key):
        h = len(self._head)
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                return list(self)[key]
            stop = max(start, stop)
            return _InverseColumns(self._core, self._head[start:stop],
                                   self._start + max(start - h, 0), self._start + max(stop - h, 0))
        k = range(len(self))[key]
        return self._head[k] if k < h else self._column(self._start + k - h)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def _column(self, k):
        """Column k of V^{-1}, completed at the unit pivots' columns latest
        pivot first: pivot q's entry is minus the sum of V[q][c] x_c over
        the entries x_c found so far, each added in as it is found."""
        v, cols, w, held, kept = self._core
        if k in kept:
            return kept[k]
        m = len(cols)
        stored = w[k - m] if k >= m else _UNITS[cols[k]]
        acc = {}
        for c, x in stored.items():
            for q in held[c]:
                acc[q] = acc.get(q, 0) - x * v[q][c]
        if not acc:
            return stored
        col = dict(stored)
        heap = [-q for q in acc]
        heapify(heap)
        while heap:
            q = -heappop(heap)
            x = acc.pop(q)
            if x:
                j = cols[q]
                col[j] = x
                for p in held[j]:
                    if p not in acc:
                        acc[p] = 0
                        heappush(heap, -p)
                    acc[p] -= x * v[p][j]
        if len(col) == len(stored):
            # No pivot's entry is left: the column is the stored one.
            return stored
        if k >= m:
            kept[k] = col
        return col

    def _dots(self, vec):
        """[item . vec for item in self], by one forward substitution
        z V = vec: a unit pivot's z is what is left of vec at its column
        once the pivots before it are taken off, and past them z is W^{-1}'s
        columns dotted with what is left.  V's entries are almost all +-1,
        and a product costs as much as a sum when vec holds Fractions."""
        v, cols, w, _, _ = self._core
        start, stop, m = self._start, self._stop, len(cols)
        a = list(vec)
        for j, row in zip(cols[:stop], v):
            x = a[j]
            if x:
                items = iter(row.items())
                next(items)
                for c, y in items:
                    if y == 1:
                        a[c] -= x
                    elif y == -1:
                        a[c] += x
                    else:
                        a[c] -= x * y
        return (_dots(self._head, vec) + list(map(a.__getitem__, cols[start:stop]))
                + _dots(w[max(start - m, 0):max(stop - m, 0)], a))

    def _solve(self, y, zero):
        """V^{-1} y over the whole of V^{-1}, from `zero`, by one backward
        substitution V x = y: x is W^{-1} y past the unit pivots' columns,
        and then, latest pivot first, y's entry at the pivot less the rest of
        V's row there times x."""
        v, cols, w, _, _ = self._core
        m = len(cols)
        x = _accumulate(len(v), y[m:], w, zero)
        for q in reversed(range(m)):
            items = iter(v[q].items())
            next(items)
            acc = y[q]
            for c, t in items:
                acc -= t * x[c]
            x[cols[q]] = acc
        return x


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
    `combine(coordinates(v))`, and it fixes exactly the cycles.  The basis
    cycles are answered from V (`_InverseColumns`): `combine` and the
    presentations build the cycles they multiply, which stay kept, and
    `periods` reads them all through one substitution over V's rows.
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
        first read that reaches them: a solve reads all of U^{-1}.  Only then
        is U_N[:, :s] read, so a lift derives none of U_N's unit-pivot
        columns.  The complement columns are the view V^{-1}[:, :r], answered
        from V like V^{-1} itself, so a lift builds none of them.
        """
        snf = self.snf
        r = snf.rank
        s = rel_snf.rank
        cols, rows = self._cols, self._rows
        u_cols = _LazyHead(
            lambda: [_combination(col, cols) for col in rel_snf._u[:s]], s,
            [_combination(col, cols) for col in rel_snf._u[s:]] + snf._v_inv[:r])
        u_inv_rows = _LazyHead(
            lambda: [_combination(row, rows) for row in rel_snf._u_inv[:s]], s,
            [_combination(row, rows) for row in rel_snf._u_inv[s:]] + snf._v[:r])
        return SnfDecomposition(
            snf.cols, rel_snf.cols, rel_snf.factors, u_cols, u_inv_rows, rel_snf._v, rel_snf._v_inv
        )


class _LazyHead:
    """The read-only list build() + tail, where build() returns the first
    `size` items: it runs once, on the first read that reaches them, and a
    read within the tail runs nothing.  Once built, the whole list is kept
    as one plain list, or, where the tail is a view of V^{-1}, as that view
    with the head before it."""

    __slots__ = ("_build", "_size", "_tail", "_items")

    def __init__(self, build, size, tail):
        self._build, self._size, self._tail, self._items = build, size, tail, None

    def __len__(self):
        return self._size + len(self._tail)

    def _built(self):
        """The whole list as a plain list, its head built."""
        if self._items is None:
            self._items = self._build() + self._tail
        return self._items

    def __getitem__(self, key):
        s = self._size
        if isinstance(key, slice):
            start, stop, step = key.indices(s + len(self._tail))
            if step == 1 and start >= s:
                return self._tail[start - s:max(start, stop) - s]
            return self._built()[key]
        k = range(s + len(self._tail))[key]
        return self._built()[k] if k < s else self._tail[k - s]

    def __iter__(self):
        return iter(self._built())


def _dots(rows, vec):
    """[row . vec for row in rows], each sparse row against a dense vec.

    Starts every sum at the int 0, as sum() does: an empty row gives 0, and
    Fraction entries give Fractions.  V^{-1}'s columns are read by
    substitution instead (`_InverseColumns._dots`).
    """
    if type(rows) is _InverseColumns:
        return rows._dots(vec)
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
    """sum(c * v) over sparse vectors v, as a dense list of the given length.

    Reads vectors[k] only where coeffs[k] is nonzero, so a list that builds
    its vectors on read builds only those."""
    out = [zero] * length
    for k, c in enumerate(coeffs):
        if c:
            for i, x in vectors[k].items():
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
