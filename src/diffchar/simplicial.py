"""Finite simplicial complexes and their integer chain calculus.

Simplices are strictly increasing tuples of vertex indices and complexes are
closed under faces.  The staircase triangulation of a product comes with the
shuffle (Eilenberg-Zilber) and front/back (Alexander-Whitney) chain maps; the
sign conventions are pinned by the mechanized identities in the test suite,
not by transcription.

Values are checked where they enter (`Chain`, `TensorChain`, `ConeChain`,
`SimplicialMap`); results the library derives are built by the trusted
`_of` of `LinearCombination`, `DirectSum` and `SimplicialMap`.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import attrgetter

from diffchar.exact_linalg import (
    IntMatrix,
    InvariantViolation,
    smith_normal_form,
    cycle_splitting,
    homology as _homology_engine,
    cohomology as _cohomology_engine,
)


class NotManifold(ValueError):
    """The complex is not a pseudomanifold of its dimension."""


class NonOrientable(ValueError):
    """No coherent orientation of the top-dimensional simplices exists."""


def _validate_simplex(simplex, num_vertices):
    if len(simplex) == 0:
        raise ValueError("empty simplex")
    for v in simplex:
        if not isinstance(v, int) or v < 0 or v >= num_vertices:
            raise ValueError(f"vertex {v!r} out of range")
    if any(simplex[i] >= simplex[i + 1] for i in range(len(simplex) - 1)):
        raise ValueError(f"simplex {simplex} is not strictly increasing")


class _Memo:
    """The memoized tables of one complex, cone or map, in a `_memo` dict
    keyed by (kind, degree) that each subclass starts empty."""

    __slots__ = ()

    def _cached(self, kind, n, build):
        key = (kind, n)
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


class _Factorizations(_Memo):
    """The factorizations of a complex-like object, memoized by degree.

    Subclasses provide boundary_matrix(n).  Each degree n runs one Smith
    elimination, of N_n: the boundary d_n written in the cycle coordinates of
    C_{n-1} (d_n itself when C_{n-1} is zero), a matrix with a row per cycle
    of C_{n-1} rather than per chain.  Since ker d_n = ker N_n, that one
    factorization gives the cycle splitting of C_n, the relations of H_{n-1},
    and, with the splitting of C_{n-1}, the factorization of d_n, whose
    transpose is the coboundary's.
    """

    def relation_snf(self, n):
        """SNF of N_n, the one elimination of degree n."""

        def build():
            d = self.boundary_matrix(n)
            return smith_normal_form(d if d.rows == 0 else self.splitting(n - 1).relations(d))

        return self._cached("relations", n, build)

    def boundary_snf(self, n):
        """SNF of d_n, assembled from relation_snf(n) without a new elimination."""

        def build():
            if self.boundary_matrix(n).rows == 0:
                return self.relation_snf(n)
            return self.splitting(n - 1).lift(self.relation_snf(n))

        return self._cached("snf", n, build)

    def coboundary_snf(self, k):
        """SNF of the coboundary C^k -> C^{k+1}, read off boundary_snf(k + 1)."""
        return self._cached("cosnf", k, lambda: self.boundary_snf(k + 1).transpose())

    def splitting(self, n):
        return self._cached("splitting", n, lambda: cycle_splitting(self, n))

    def homology(self, n):
        return self._cached("homology", n, lambda: _homology_engine(self, n))

    def cohomology(self, k):
        return self._cached("cohomology", k, lambda: _cohomology_engine(self, k))


class Complex(_Factorizations):
    """A finite simplicial complex on vertices 0..num_vertices-1."""

    def __init__(self, num_vertices, simplices, name=""):
        self.num_vertices = num_vertices
        self.name = name
        by_dim = {}
        seen = set()
        stack = []
        for s in simplices:
            s = tuple(s)
            _validate_simplex(s, num_vertices)
            stack.append(s)
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            by_dim.setdefault(len(s) - 1, []).append(s)
            if len(s) > 1:
                stack.extend(combinations(s, len(s) - 1))
        self._by_dim = {d: tuple(sorted(ss)) for d, ss in sorted(by_dim.items())}
        self._index = {
            s: i for d, ss in self._by_dim.items() for i, s in enumerate(ss)
        }
        self._memo = {}

    @property
    def dim(self):
        return max(self._by_dim) if self._by_dim else -1

    def simplices(self, n):
        return self._by_dim.get(n, ())

    def all_simplices(self):
        for d in sorted(self._by_dim):
            yield from self._by_dim[d]

    def has_simplex(self, s):
        return tuple(s) in self._index

    def index_of(self, s):
        return self._index[tuple(s)]

    def __eq__(self, other):
        return (
            isinstance(other, Complex)
            and self.num_vertices == other.num_vertices
            and self._by_dim == other._by_dim
        )

    def __repr__(self):
        counts = ",".join(f"{d}:{len(s)}" for d, s in self._by_dim.items())
        label = self.name or "Complex"
        return f"<{label} vertices={self.num_vertices} simplices[{counts}]>"

    def boundary_matrix(self, n):
        """Matrix of the boundary map C_n -> C_{n-1} in the sorted bases."""
        return self._cached("boundary", n, lambda: self._build_boundary(n))

    def _build_boundary(self, n):
        """The face rule, written only here: the face without s[i] has sign (-1)^i."""
        rows = self.simplices(n - 1)
        cols = self.simplices(n)
        index = self._index
        entries = [{} for _ in rows]
        if n > 0:
            # combinations(s, n) drops s[n] first, then s[n - 1], ..., s[0].
            first = -1 if n % 2 else 1
            for j, s in enumerate(cols):
                sign = first
                for face in combinations(s, n):
                    entries[index[face]][j] = sign
                    sign = -sign
        return IntMatrix._trusted(len(rows), len(cols), tuple(entries))

    def _facet_rows(self, n):
        """Row j of the transposed d_n: {face index: sign} of the j-th n-simplex,
        in reverse drop order; read reversed, the face without s[0] comes first."""
        return self._cached("facets", n, lambda: self.boundary_matrix(n).transpose().entries)

    def chain(self, degree, coeffs=None):
        return Chain(self, degree, coeffs or {})

    def chain_from_vector(self, degree, vec):
        basis = self.simplices(degree)
        if len(vec) != len(basis):
            raise ValueError("vector length does not match simplex count")
        return Chain._of(self, degree, dict(zip(basis, vec)))

    def components(self):
        """Connected components as sorted vertex lists."""
        adj = {v: set() for v in range(self.num_vertices)}
        for e in self.simplices(1):
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
        seen = set()
        comps = []
        for v in range(self.num_vertices):
            if v in seen:
                continue
            comp = []
            todo = [v]
            seen.add(v)
            while todo:
                u = todo.pop()
                comp.append(u)
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            comps.append(sorted(comp))
        return comps


class LinearCombination:
    """A finite sum of cells with nonzero coefficients, over a fixed space.

    Chain, TensorChain and Cochain share this arithmetic.  `coeffs` maps each
    cell to its nonzero coefficient; `_space` names the attributes that fix
    the space (complex and degree, or the two factors of a tensor).  Each
    subclass checks cells and coefficients in its own constructor, where
    input enters; the library builds every result of its operations on
    checked values with the trusted `_of`, which only drops zeros.
    """

    __slots__ = ("coeffs",)
    _space = ()

    @classmethod
    def _of(cls, *args):
        """The combination with the given space attributes and coefficients,
        unchecked: args are the `_space` attributes in order, then the dict."""
        *space, coeffs = args
        out = object.__new__(cls)
        for name, value in zip(cls._space, space):
            setattr(out, name, value)
        out.coeffs = {k: c for k, c in coeffs.items() if c}
        return out

    def _spaces(self):
        return [getattr(self, name) for name in self._space]

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._spaces() == other._spaces()
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        space = self._spaces()
        if space != other._spaces():
            raise ValueError(self._mismatch)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return self._of(*space, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(*self._spaces(), {k: -c for k, c in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def to_vector(self):
        """Coefficients in the basis of the degree's simplices (not for tensors)."""
        return [self.coeffs.get(s, 0) for s in self.complex.simplices(self.degree)]


def _attributes(names):
    """A function giving the tuple of an object's attributes `names`."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda obj: (get(obj),)


class DirectSum:
    """A value made of linear parts over a fixed space, added part by part.

    Cone chains, characters, relative characters and flat classes share this
    group law and its equality.  `_space` names the attributes that fix the
    space (a complex or cone and a degree), `_parts` the linear parts (chains
    or cochains); `_mismatch` and `_scale_type` are the error texts.  Each
    subclass checks its parts in its own constructor, where input enters;
    results of the operations, and other values the library derives from
    checked ones, are built with the trusted `_of`, which checks nothing.

    Two values in one space are equal when their `_exact` parts agree and
    their `_lifts` parts, read as one vector, differ by integral periods on
    the cycles of `_cycles()`, as characters (homomorphisms from cycles to
    Q/Z) do; parts in neither list, the integral cocycles mu, follow.
    """

    __slots__ = ()
    _space = ()
    _parts = ()
    _exact = ()
    _lifts = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The group law reads the space and the parts on every call, so the
        # getters are built once per class.
        cls._space_of = staticmethod(_attributes(cls._space))
        cls._parts_of = staticmethod(_attributes(cls._parts))

    @classmethod
    def _of(cls, space, parts):
        """The value with these `_space` attributes and parts, unchecked."""
        out = object.__new__(cls)
        for name, value in zip(cls._space + cls._parts, (*space, *parts)):
            setattr(out, name, value)
        return out

    def _integral(self, lifts):
        """Whether the lifts, one vector, pair integrally with the cycles of
        `_cycles()`, the subclass's CycleSplitting in the lifts' degree."""
        return not lifts or self._cycles().integral_periods(
            [x for a in lifts for x in a.to_vector()])

    def __eq__(self, other):
        if type(other) is not type(self) or self._space_of(self) != other._space_of(other):
            return False
        if any(getattr(self, n) != getattr(other, n) for n in self._exact):
            return False
        return self._integral(
            [getattr(self, n) - getattr(other, n) for n in self._lifts])

    def __add__(self, other):
        space = self._space_of(self)
        if space != other._space_of(other):
            raise ValueError(self._mismatch)
        parts = zip(self._parts_of(self), self._parts_of(other))
        return self._of(space, [a + b for a, b in parts])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self._space_of(self), [-a for a in self._parts_of(self)])

    def scale(self, n):
        if not isinstance(n, int):
            raise TypeError(self._scale_type)
        return self._of(self._space_of(self), [a.scale(n) for a in self._parts_of(self)])

    def is_zero(self):
        return (all(getattr(self, n).is_zero() for n in self._exact)
                and self._integral([getattr(self, n) for n in self._lifts]))


class Chain(LinearCombination):
    """Integer simplicial chain of a fixed degree."""

    __slots__ = ("complex", "degree")
    _space = ("complex", "degree")
    _mismatch = "chains live on different complexes or degrees"

    def __init__(self, complex, degree, coeffs):
        self.complex = complex
        self.degree = degree
        clean = {}
        for s, c in coeffs.items():
            s = tuple(s)
            if not isinstance(c, int):
                raise TypeError("chain coefficients must be int")
            if len(s) - 1 != degree:
                raise ValueError(f"simplex {s} does not have degree {degree}")
            if not complex.has_simplex(s):
                raise ValueError(f"simplex {s} is not in the complex")
            if c != 0:
                clean[s] = clean.get(s, 0) + c
        self.coeffs = {s: c for s, c in clean.items() if c != 0}

    def scale(self, n):
        if not isinstance(n, int):
            raise TypeError("chain scaling must be by int")
        return Chain._of(self.complex, self.degree, {s: n * c for s, c in self.coeffs.items()})

    def boundary(self):
        K, n = self.complex, self.degree
        if n == 0:
            return Chain._of(K, -1, {})
        faces, rows, index = K.simplices(n - 1), K._facet_rows(n), K._index
        out = {}
        for s, c in self.coeffs.items():
            for i, sign in reversed(rows[index[s]].items()):
                face = faces[i]
                out[face] = out.get(face, 0) + sign * c
        return Chain._of(K, n - 1, out)

    def is_cycle(self):
        return self.boundary().is_zero()

    def __repr__(self):
        terms = " + ".join(f"{c}*{list(s)}" for s, c in sorted(self.coeffs.items()))
        return f"Chain(deg {self.degree}: {terms or '0'})"


class TensorChain(LinearCombination):
    """Integer chain on a tensor product of two complexes.

    Terms are pairs (left simplex, right simplex) of possibly mixed
    bidegrees; the total degree of a term is the sum of the two dimensions.
    """

    __slots__ = ("left", "right")
    _space = ("left", "right")
    _mismatch = "tensor chains on different products"

    def __init__(self, left, right, coeffs):
        self.left = left
        self.right = right
        clean = {}
        for (s, t), c in coeffs.items():
            s, t = tuple(s), tuple(t)
            if not isinstance(c, int):
                raise TypeError("tensor coefficients must be int")
            if not left.has_simplex(s):
                raise ValueError(f"left simplex {s} not in complex")
            if not right.has_simplex(t):
                raise ValueError(f"right simplex {t} not in complex")
            if c != 0:
                key = (s, t)
                clean[key] = clean.get(key, 0) + c
        self.coeffs = {k: c for k, c in clean.items() if c != 0}

    def boundary(self):
        """Tensor differential: d(s@t) = ds@t + (-1)^{dim s} s@dt."""
        out = {}

        def bump(s, t, c):
            key = (s, t)
            out[key] = out.get(key, 0) + c

        L, R = self.left, self.right
        for (s, t), c in self.coeffs.items():
            p, q = len(s) - 1, len(t) - 1
            if p > 0:
                faces = L.simplices(p - 1)
                for i, sign in reversed(L._facet_rows(p)[L._index[s]].items()):
                    bump(faces[i], t, sign * c)
            if q > 0:
                koszul = -1 if p % 2 else 1
                faces = R.simplices(q - 1)
                for i, sign in reversed(R._facet_rows(q)[R._index[t]].items()):
                    bump(s, faces[i], koszul * sign * c)
        return TensorChain._of(L, R, out)

    def __repr__(self):
        terms = " + ".join(
            f"{c}*({list(s)}@{list(t)})" for (s, t), c in sorted(self.coeffs.items())
        )
        return f"TensorChain({terms or '0'})"


def tensor(chain_left, chain_right):
    """Elementary tensor of two chains."""
    coeffs = {}
    for s, a in chain_left.coeffs.items():
        for t, b in chain_right.coeffs.items():
            coeffs[(s, t)] = coeffs.get((s, t), 0) + a * b
    return TensorChain._of(chain_left.complex, chain_right.complex, coeffs)


class SimplicialMap(_Memo):
    """Vertex map carrying simplices to simplices (collapses allowed)."""

    __slots__ = ("source", "target", "vertex_map", "_memo")

    def __init__(self, source, target, vertex_map):
        vertex_map = tuple(vertex_map)
        if len(vertex_map) != source.num_vertices:
            raise ValueError("vertex map length does not match source vertices")
        for w in vertex_map:
            if not isinstance(w, int) or w < 0 or w >= target.num_vertices:
                raise ValueError(f"target vertex {w!r} out of range")
        for s in source.all_simplices():
            image = tuple(sorted(set(vertex_map[v] for v in s)))
            if not target.has_simplex(image):
                raise ValueError(
                    f"image of simplex {s} is {image}, not a simplex of the target"
                )
        self.source = source
        self.target = target
        self.vertex_map = vertex_map
        self._memo = {}

    @classmethod
    def _of(cls, source, target, vertex_map):
        """The map with this vertex map, unchecked: for maps the library builds
        from valid data (identities, composites, inclusions into a product,
        and the maps out of one that `ProductComplex._map_of` builds)."""
        out = object.__new__(cls)
        out.source = source
        out.target = target
        out.vertex_map = tuple(vertex_map)
        out._memo = {}
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialMap)
            and self.source == other.source
            and self.target == other.target
            and self.vertex_map == other.vertex_map
        )

    def push_table(self, n):
        """(sign, image) of each source n-simplex in basis order, (0, None) where
        the image collapses: phi_* read forwards, phi^* read backwards."""
        return self._cached("push", n, lambda: self._build_push(n))

    def _build_push(self, n):
        """The image rule, written only here: the sign is the parity of sorting the image."""
        table = []
        for s in self.source.simplices(n):
            image = [self.vertex_map[v] for v in s]
            if len(set(image)) != len(image):
                table.append((0, None))
                continue
            sign = 1
            for i in range(len(image)):
                for j in range(i + 1, len(image)):
                    if image[i] > image[j]:
                        sign = -sign
            table.append((sign, tuple(sorted(image))))
        return tuple(table)

    def push_chain(self, chain):
        if chain.complex != self.source:
            raise ValueError("chain does not live on the source complex")
        table, index = self.push_table(chain.degree), self.source._index
        out = {}
        for s, c in chain.coeffs.items():
            sign, image = table[index[s]]
            if sign != 0:
                out[image] = out.get(image, 0) + sign * c
        return Chain._of(self.target, chain.degree, out)

    def matrix(self, n):
        """Matrix of the induced chain map in degree n."""
        rows = self.target.simplices(n)
        index = self.target._index
        entries = [{} for _ in rows]
        table = self.push_table(n)
        for j, (sign, image) in enumerate(table):
            if sign != 0:
                entries[index[image]][j] = sign
        return IntMatrix._trusted(len(rows), len(table), tuple(entries))

    def __repr__(self):
        return f"SimplicialMap({list(self.vertex_map)})"


def compose_maps(outer, inner):
    """outer after inner."""
    if inner.target != outer.source:
        raise ValueError("maps do not compose")
    return SimplicialMap._of(
        inner.source, outer.target, [outer.vertex_map[w] for w in inner.vertex_map]
    )


def identity_map(complex):
    return SimplicialMap._of(complex, complex, range(complex.num_vertices))


@lru_cache(maxsize=None)
def _staircase(p, q):
    """The staircase paths through a p-simplex times a q-simplex.

    One (shuffle sign, index pairs) per path: the path visits vertex pairs
    (s[a], t[b]) for its (a, b), starting at (0, 0) and advancing one
    coordinate per step.  The sign is the parity of the interleaving: a left
    step taken at position j, as the i-th left step, passes j - i right
    steps.
    """
    paths = []
    for left_steps in combinations(range(p + q), p):
        left_set = set(left_steps)
        a = 0
        pairs = [(0, 0)]
        for step in range(p + q):
            if step in left_set:
                a += 1
            pairs.append((a, step + 1 - a))
        sign = -1 if (sum(left_steps) - p * (p - 1) // 2) % 2 else 1
        paths.append((sign, tuple(pairs)))
    return tuple(paths)


class ProductComplex(Complex):
    """Staircase triangulation of a product of two complexes.

    Vertices are pairs encoded as u * (right vertex count) + v; simplices are
    the componentwise weakly monotone chains of distinct pairs whose
    projections span simplices of the factors.
    """

    def __init__(self, left, right, name=""):
        self.left = left
        self.right = right
        nr = right.num_vertices
        simplices = set()
        for s in left.all_simplices():
            for t in right.all_simplices():
                for _, pairs in _staircase(len(s) - 1, len(t) - 1):
                    simplices.add(tuple(s[a] * nr + t[b] for a, b in pairs))
        super().__init__(
            left.num_vertices * nr,
            simplices,
            name or f"({left.name}x{right.name})",
        )

    def encode(self, u, v):
        return u * self.right.num_vertices + v

    def decode(self, w):
        return divmod(w, self.right.num_vertices)

    def _map_of(self, target, image):
        """The map sending vertex (u, v) to image(u, v), unchecked: the one
        coordinate rule behind the maps the library builds out of a product."""
        right = range(self.right.num_vertices)
        return SimplicialMap._of(
            self, target, [image(u, v) for u in range(self.left.num_vertices) for v in right]
        )

    def projection_left(self):
        return self._cached("projection", 0, lambda: self._map_of(self.left, lambda u, v: u))

    def projection_right(self):
        return self._cached("projection", 1, lambda: self._map_of(self.right, lambda u, v: v))

    def include_at_right(self, v0):
        """Inclusion u -> (u, v0) of the left factor."""
        return SimplicialMap._of(
            self.left, self, [self.encode(u, v0) for u in range(self.left.num_vertices)]
        )

    def include_at_left(self, u0):
        """Inclusion v -> (u0, v) of the right factor."""
        return SimplicialMap._of(
            self.right, self, [self.encode(u0, v) for v in range(self.right.num_vertices)]
        )


def staircase_product(left, right, name=""):
    return ProductComplex(left, right, name)


def product_face_count(left, right):
    """The number of faces of staircase_product(left, right), unbuilt.

    A face projects onto a p-simplex of the left factor and a q-simplex of
    the right one, and over each such pair lie as many faces as there are
    paths from (0, 0) to (p, q) by unit steps right, up and diagonally: the
    Delannoy number sum_k C(p, k) C(q, k) 2^k.
    """
    return sum(
        len(left.simplices(p)) * len(right.simplices(q))
        * sum(comb(p, k) * comb(q, k) << k for k in range(min(p, q) + 1))
        for p in range(left.dim + 1)
        for q in range(right.dim + 1)
    )


def product_map(left_map, right_map, source, target):
    """The map (u,v) -> (left u, right v) between staircase products.

    Well defined whenever the factor maps are weakly monotone on every
    simplex; otherwise some image chain is not a staircase simplex and the
    constructor rejects it.
    """
    if source.left != left_map.source or source.right != right_map.source:
        raise ValueError("source factors do not match the maps")
    if target.left != left_map.target or target.right != right_map.target:
        raise ValueError("target factors do not match the maps")
    f, g = left_map.vertex_map, right_map.vertex_map
    rule = source._map_of(target, lambda u, v: target.encode(f[u], g[v]))
    return SimplicialMap(source, target, rule.vertex_map)


def transpose_map(product, flipped):
    """The coordinate swap (u,v) -> (v,u) as a simplicial isomorphism."""
    if product.left != flipped.right or product.right != flipped.left:
        raise ValueError("transpose requires the same factors in swapped order")
    return product._map_of(flipped, lambda u, v: flipped.encode(v, u))


def eilenberg_zilber(tensor_chain, product):
    """Shuffle map from the tensor product to the staircase product.

    A chain map for the tensor differential; together with the front/back map
    it satisfies AW o EZ = id.  Both identities are enforced by tests.  The
    degree is read off the terms; a zero tensor chain maps to degree 0.
    """
    degree = next((len(s) + len(t) - 2 for s, t in tensor_chain.coeffs), 0)
    return _shuffle(tensor_chain, product, degree)


def ez(chain_left, chain_right, product):
    """Shuffle map of an elementary tensor of chains, in the sum of their degrees."""
    return _shuffle(
        tensor(chain_left, chain_right), product, chain_left.degree + chain_right.degree
    )


def _shuffle(tensor_chain, product, degree):
    if product.left != tensor_chain.left or product.right != tensor_chain.right:
        raise ValueError("tensor chain factors do not match the product")
    out = {}
    for (s, t), c in tensor_chain.coeffs.items():
        for sign, pairs in _staircase(len(s) - 1, len(t) - 1):
            key = tuple(product.encode(s[a], t[b]) for a, b in pairs)
            out[key] = out.get(key, 0) + sign * c
    return Chain._of(product, degree, out)


def alexander_whitney(chain):
    """Front/back face decomposition of a chain on a staircase product."""
    product = chain.complex
    if not isinstance(product, ProductComplex):
        raise TypeError("alexander_whitney needs a chain on a ProductComplex")
    out = {}
    for s, c in chain.coeffs.items():
        pairs = [product.decode(w) for w in s]
        d = len(pairs) - 1
        for i in range(d + 1):
            front = [u for u, _ in pairs[: i + 1]]
            back = [v for _, v in pairs[i:]]
            if any(front[a] >= front[a + 1] for a in range(len(front) - 1)):
                continue
            if any(back[a] >= back[a + 1] for a in range(len(back) - 1)):
                continue
            key = (tuple(front), tuple(back))
            out[key] = out.get(key, 0) + c
    return TensorChain._of(product.left, product.right, out)


def maximal_simplices(complex):
    """The simplices that are a face of no other, by dimension and then
    lexicographically: the n-simplices outside the set of facets of the
    (n+1)-simplices.  It reads no table, so it leaves the memo as it is."""
    out = []
    for n in range(complex.dim + 1):
        facets = {f for s in complex.simplices(n + 1) for f in combinations(s, n + 1)}
        out += [s for s in complex.simplices(n) if s not in facets]
    return out


def _refuse_crowded_faces(complex, error, cofaces_named):
    """Raise error for the first facet of a top simplex, in their order, that
    has more than two top cofaces."""
    d = complex.dim
    cofaces = complex.boundary_matrix(d).entries
    for row in complex._facet_rows(d):
        for i in reversed(row):
            if len(cofaces[i]) > 2:
                face = complex.simplices(d - 1)[i]
                raise error(f"face {face} has {len(cofaces[i])} {cofaces_named}")


def fundamental_cycle(complex):
    """Coherently oriented sum of the top simplices.

    Raises NotManifold when the complex is not pure or some codimension-one
    face has more than two cofaces, NonOrientable when no coherent
    orientation exists.  For a complex with boundary the result is a
    fundamental chain whose boundary is the fundamental cycle of the
    boundary; orientations are chosen per component starting with +1 on the
    lexicographically least top simplex.
    """
    d = complex.dim
    if d < 0:
        raise NotManifold("empty complex")
    tops = complex.simplices(d)
    for s in maximal_simplices(complex):
        if len(s) <= d:
            raise NotManifold(f"simplex {s} is maximal but has dimension {len(s) - 1}")
    if d == 0:
        return Chain._of(complex, 0, {s: 1 for s in tops})
    _refuse_crowded_faces(complex, NotManifold, "cofaces")
    faces, cofaces = complex.simplices(d - 1), complex.boundary_matrix(d).entries
    facets = complex._facet_rows(d)
    orientation = {}
    for start in range(len(tops)):
        if start in orientation:
            continue
        orientation[start] = 1
        queue = deque([start])
        while queue:
            t = queue.popleft()
            eps = orientation[t]
            for face, s1 in reversed(facets[t].items()):
                for other, s2 in cofaces[face].items():
                    if other == t:
                        continue
                    needed = -eps * s1 * s2
                    if other in orientation:
                        if orientation[other] != needed:
                            raise NonOrientable(
                                f"orientation conflict across face {faces[face]}"
                            )
                    else:
                        orientation[other] = needed
                        queue.append(other)
    if len(orientation) != len(tops):
        raise InvariantViolation("orientation search missed a top simplex")
    return Chain._of(complex, d, {tops[t]: eps for t, eps in orientation.items()})


class NotFundamentalChain(ValueError):
    """The chain is not a coherently oriented cover of the top simplices."""


def validate_fundamental_chain(chain):
    """Check that a chain can play the role of a fundamental chain.

    Requires top degree, coefficients +-1 on every top simplex, at most two
    top cofaces per codimension-one face, and boundary coefficients in
    {-1,0,+1} so the orientations match across interior faces.
    """
    complex = chain.complex
    d = complex.dim
    if chain.degree != d:
        raise NotFundamentalChain(
            f"chain degree {chain.degree} is not the complex dimension {d}"
        )
    for s in complex.simplices(d):
        if chain.coeffs.get(s, 0) not in (1, -1):
            raise NotFundamentalChain(f"top simplex {s} has coefficient not +-1")
    if d > 0:
        _refuse_crowded_faces(complex, NotFundamentalChain, "top cofaces")
        for s, c in chain.boundary().coeffs.items():
            if c not in (1, -1):
                raise NotFundamentalChain(
                    f"boundary coefficient {c} on {s}; orientations clash"
                )
    return chain


class ConeChain(DirectSum):
    """Chain of the mapping cone of phi: a pair (s on X, t on A).

    In cone degree k the pair is (s in C_k(X), t in C_{k-1}(A)) and the cone
    boundary is (ds + phi_* t, -dt).
    """

    __slots__ = ("cone", "degree", "x_part", "a_part")
    _space = ("cone", "degree")
    _parts = _exact = ("x_part", "a_part")
    _mismatch = "cone chains do not match"
    _scale_type = "cone chains scale by integers"

    def __init__(self, cone, degree, x_part, a_part):
        if x_part.complex != cone.phi.target or x_part.degree != degree:
            raise ValueError("X part has the wrong complex or degree")
        if a_part.degree != degree - 1 or a_part.complex != cone.phi.source:
            raise ValueError("A part has the wrong complex or degree")
        self.cone = cone
        self.degree = degree
        self.x_part = x_part
        self.a_part = a_part

    def boundary(self):
        phi = self.cone.phi
        x = self.x_part.boundary() + phi.push_chain(self.a_part)
        return ConeChain._of((self.cone, self.degree - 1), (x, -self.a_part.boundary()))

    def is_cycle(self):
        return self.boundary().is_zero()

    def __repr__(self):
        return f"ConeChain(deg {self.degree}, X: {self.x_part!r}, A: {self.a_part!r})"


class MappingCone(_Factorizations):
    """Mapping cone of a simplicial map phi: A -> X.

    Exposes boundary_matrix(n) in the basis (n-simplices of X, then
    (n-1)-simplices of A), so the linear algebra engine applies unchanged.
    """

    def __init__(self, phi):
        self.phi = phi
        self._memo = {}

    def __eq__(self, other):
        return isinstance(other, MappingCone) and self.phi == other.phi

    def basis_sizes(self, n):
        x = len(self.phi.target.simplices(n))
        a = len(self.phi.source.simplices(n - 1)) if n - 1 >= 0 else 0
        return x, a

    def boundary_matrix(self, n):
        return self._cached("boundary", n, lambda: self._build_boundary(n))

    def _build_boundary(self, n):
        # Block rows [d_X | phi_*] over [0 | -d_A], the A columns shifted past
        # the columns of d_X; the blocks are empty in degrees A does not have.
        A, dx = self.phi.source, self.phi.target.boundary_matrix(n)
        entries = [dict(row) for row in dx.entries]
        for row, block in zip(entries, self.phi.matrix(n - 1).entries):
            row.update((dx.cols + j, x) for j, x in block.items())
        entries += [{dx.cols + j: -x for j, x in block.items()}
                    for block in A.boundary_matrix(n - 1).entries]
        return IntMatrix._trusted(len(entries), dx.cols + len(A.simplices(n - 1)), tuple(entries))

    def chain(self, degree, x_coeffs=None, a_coeffs=None):
        X, A = self.phi.target, self.phi.source
        x = Chain(X, degree, x_coeffs or {})
        a = Chain(A, degree - 1, a_coeffs or {})
        return ConeChain._of((self, degree), (x, a))

    def chain_from_vector(self, degree, vec):
        X, A = self.phi.target, self.phi.source
        nx = len(X.simplices(degree))
        x = X.chain_from_vector(degree, vec[:nx])
        a = A.chain_from_vector(degree - 1, vec[nx:])
        return ConeChain._of((self, degree), (x, a))

    def __repr__(self):
        return f"MappingCone({self.phi!r})"


def mapping_cone(phi):
    return MappingCone(phi)
