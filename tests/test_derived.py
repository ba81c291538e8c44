"""Values the library derives from checked ones pass the checks they skip,
and the identities of `diffchar.verify` hold on whatever the library derives.

Chains and cochains built by library operations skip the constructor's
check, characters and relative characters derived from checked ones carry
their integral cocycles instead of recomputing them, and the maps the
library builds from valid data skip the image check.  The `_check_*`
helpers rebuild each such value through the public, checking constructor
and compare.

`Algebra` is a stateful machine: it builds complexes, products, maps,
cones, transfers, chains and cycles, derives characters, relative
characters and flat classes from them step by step, and checks every value
it makes by its rebuild and every operation by verify's identities, plus the
identities no suite checks: the cochain-level Leibniz rule, cup
associativity, Steenrod's identity for cup_1, the unit law, AW o EZ = id,
naturality of the pairing and of the boundary under pushforward, the
product's integral cocycle and the boundary integral's covariant part on
the nose, and io round trips.  A failing identity reports verify's witness
(lhs - rhs part by part); hypothesis prints the steps that led to it.  The properties before the machine rebuild
values it also reaches, on random flag complexes, monotone maps and product
transfers; ROADMAP item 5 lists them for deletion.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    multiple,
    rule,
    run_state_machine_as_test,
)

from diffchar import fixtures, io, verify
from diffchar.characters import (
    DiffChar,
    FlatClass,
    _derived,
    flat_holonomy_class,
    fractional_torsion_class,
    from_curvature,
    iota,
    pullback,
    random_character,
    random_flat_character,
)
from diffchar.cochain import (
    Cochain,
    coboundary,
    cup,
    cup_1,
    is_closed,
    pair,
    pullback as pullback_cochain,
    slant_fiber,
    zero_cochain,
)
from diffchar.fiber_integration import (
    boundary_fiber_integrate,
    combined_transfer,
    fiber_integrate,
    product_transfer,
    rebracket_map,
)
from diffchar.products import external_product, internal_product
from diffchar.relative import (
    NoSection,
    RelChar,
    cov_inverse,
    descend_kernel,
    find_section,
    incl_flat,
    project,
)
from diffchar.simplicial import (
    Chain,
    Complex,
    ConeChain,
    ProductComplex,
    SimplicialMap,
    TensorChain,
    alexander_whitney,
    compose_maps,
    ez,
    fundamental_cycle,
    identity_map,
    mapping_cone,
    product_face_count,
    staircase_product,
    tensor,
    transpose_map,
)
from strategies import flag_complexes, mapping_cones, monotone_maps, random_cochain


def _rng(data):
    return random.Random(data.draw(st.integers(0, 2**32 - 1)))


def _check_cochain(c):
    assert all(x != 0 for x in c.coeffs.values())
    assert all(type(x) in (int, Fraction) for x in c.coeffs.values())
    assert Cochain(c.complex, c.degree, c.coeffs) == c


def _check_chain(z):
    assert all(type(c) is int and c != 0 for c in z.coeffs.values())
    if isinstance(z, TensorChain):
        assert TensorChain(z.left, z.right, z.coeffs) == z
    else:
        assert Chain(z.complex, z.degree, z.coeffs) == z


def _check_cone_chain(z):
    _check_chain(z.x_part)
    _check_chain(z.a_part)
    assert ConeChain(z.cone, z.degree, z.x_part, z.a_part) == z


def _check_character(h):
    for c in (h.curvature, h.lift, h.mu):
        _check_cochain(c)
    assert h.mu == h.curvature - coboundary(h.lift)
    assert h.mu.is_integer_valued()
    assert is_closed(h.curvature)
    rebuilt = DiffChar(h.curvature, h.lift)
    assert type(rebuilt) is type(h)
    assert rebuilt == h
    assert rebuilt.mu == h.mu


def _check_flat_class(u):
    _check_cochain(u.cochain)
    rebuilt = FlatClass(u.cochain)
    assert (rebuilt.complex, rebuilt.degree) == (u.complex, u.degree)
    assert rebuilt == u


def _check_relative(f):
    """The checking constructor accepts f's data and finds the same parts,
    its integral cocycles mu_x and mu_a included."""
    for c in (getattr(f, name) for name in RelChar._parts):
        _check_cochain(c)
    rebuilt = RelChar(f.cone, f.curvature, f.cov, f.lift_x, f.lift_a)
    assert rebuilt.degree == f.degree
    assert [getattr(rebuilt, name) for name in RelChar._parts] == [
        getattr(f, name) for name in RelChar._parts
    ]
    assert rebuilt == f


def _check_map(f):
    assert type(f.vertex_map) is tuple
    assert SimplicialMap(f.source, f.target, f.vertex_map) == f


def _draw_character(data, K, rng):
    return random_character(K, data.draw(st.integers(1, K.dim + 1)), rng)


# Small flag complexes seldom have cohomology in the drawn degree, and on
# those that have none the integral part of `from_curvature` is zero; T2_9
# has free classes in degrees 1 and 2, RP2_6 a torsion class in degree 2.
CLASSES = tuple(map(fixtures.complex_by_name, ("T2_9", "RP2_6")))


@settings(max_examples=40, deadline=None)
@given(st.one_of(flag_complexes(max_vertices=6), st.sampled_from(CLASSES)), st.data())
def test_group_operations_carry_mu(K, data):
    rng = _rng(data)
    h = _draw_character(data, K, rng)
    f = random_character(K, h.degree, rng)
    n = data.draw(st.integers(-3, 3))
    for out in (h, h + f, h - f, -h, h.scale(n), from_curvature(h.curvature)):
        _check_character(out)


@settings(max_examples=40, deadline=None)
@given(flag_complexes(max_vertices=5), st.data())
def test_internal_products_carry_mu(K, data):
    rng = _rng(data)
    h, f = _draw_character(data, K, rng), _draw_character(data, K, rng)
    _check_character(internal_product(h, f))


@settings(max_examples=40, deadline=None)
@given(monotone_maps(), st.data())
def test_pullbacks_carry_mu(phi, data):
    h = _draw_character(data, phi.target, _rng(data))
    _check_character(pullback(phi, h))


@settings(max_examples=15, deadline=None)
@given(flag_complexes(max_vertices=4), st.data())
def test_fiber_integration_over_the_circle_carries_mu(K, data):
    tr = product_transfer(K, fixtures.circle())
    h = random_character(tr.total, data.draw(st.integers(1, 3)), _rng(data))
    _check_character(fiber_integrate(h, tr))


@settings(max_examples=40, deadline=None)
@given(monotone_maps(), st.data())
def test_library_chains_and_cochains_match_their_checked_rebuilds(phi, data):
    K = phi.target
    rng = _rng(data)
    p = data.draw(st.integers(0, K.dim))
    q = data.draw(st.integers(0, K.dim - p))
    a, a2 = random_character(K, p + 1, rng).lift, random_character(K, p + 1, rng).lift
    b = random_character(K, q + 1, rng).lift
    ints = [rng.randint(-3, 3) for _ in K.simplices(p)]
    n = data.draw(st.integers(-3, 3))
    for c in (a + a2, a - a, -a, a.scale(Fraction(n, 2)), coboundary(a), cup(a, b),
              cup_1(a, b), pullback_cochain(phi, a), zero_cochain(K, p),
              Cochain.from_vector(K, p, ints)):
        _check_cochain(c)
    z = phi.source.chain_from_vector(p, [rng.randint(-3, 3) for _ in phi.source.simplices(p)])
    y = K.chain_from_vector(q, [rng.randint(-3, 3) for _ in K.simplices(q)])
    w = K.chain_from_vector(p, ints)
    for c in (z, z.boundary(), phi.push_chain(z), w + w.scale(n), -w, w - w,
              tensor(w, y), tensor(w, y).boundary()):
        _check_chain(c)
    S1 = fixtures.circle()
    P = staircase_product(K, S1)
    cF = fundamental_cycle(S1)
    for c in (cF, ez(w, cF, P), alexander_whitney(ez(w, cF, P))):
        _check_chain(c)
    big = random_character(P, p + 2, rng).lift
    _check_cochain(slant_fiber(big, cF))


@settings(max_examples=30, deadline=None)
@given(flag_complexes(max_vertices=5), st.data())
def test_cov_inverse_carries_mu(K, data):
    rng = _rng(data)
    theta = _draw_character(data, K, rng).lift
    _check_relative(cov_inverse(theta))


@settings(max_examples=15, deadline=None)
@given(flag_complexes(max_vertices=4), st.data())
def test_boundary_fiber_integration_carries_mu(K, data):
    tr = product_transfer(K, fixtures.interval())
    h = random_character(tr.total, data.draw(st.integers(1, 3)), _rng(data))
    out = boundary_fiber_integrate(h, tr)
    _check_character(out.over_boundary)
    _check_relative(out.relative)


@settings(max_examples=30, deadline=None)
@given(mapping_cones(), st.data())
def test_cone_chains_match_their_checked_rebuilds(drawn, data):
    cone, top = drawn
    k = data.draw(st.integers(0, top))
    size = cone.chain_count(k)
    c, c2 = (cone.chain_from_vector(k, [data.draw(st.integers(-3, 3)) for _ in range(size)])
             for _ in range(2))
    n = data.draw(st.integers(-3, 3))
    for z in (c, c.boundary(), c + c2, c - c2, -c, c.scale(n),
              cone.chain(k, c.x_part.coeffs, c.a_part.coeffs)):
        _check_cone_chain(z)


@settings(max_examples=30, deadline=None)
@given(flag_complexes(max_vertices=5), st.data())
def test_flat_classes_match_their_checked_rebuilds(K, data):
    rng = _rng(data)
    k = data.draw(st.integers(1, K.dim + 1))
    u, u2 = (flat_holonomy_class(random_flat_character(K, k, rng)) for _ in range(2))
    n = data.draw(st.integers(-3, 3))
    for v in (u, u + u2, u - u2, -u, u.scale(n)):
        _check_flat_class(v)


def test_fractional_torsion_classes_match_their_checked_rebuilds():
    RP2, S1 = fixtures.complex_by_name("RP2_6"), fixtures.complex_by_name("S1_3")
    seen = 0
    for K in (RP2, fixtures.complex_by_name("Klein_K"), staircase_product(S1, RP2)):
        for k in range(K.dim + 1):
            for i, d in enumerate(K.homology(k).torsion):
                for numerator in range(d + 1):
                    u = fractional_torsion_class(K, k, i, numerator)
                    _check_flat_class(u)
                    assert u.is_zero() == (numerator % d == 0)
                    seen += 1
    assert seen == 3 + 3 + 2 * 3


@settings(max_examples=30, deadline=None)
@given(monotone_maps())
def test_identities_and_composites_are_simplicial(phi):
    for f in (identity_map(phi.source), identity_map(phi.target),
              compose_maps(phi, identity_map(phi.source)),
              compose_maps(identity_map(phi.target), phi)):
        _check_map(f)


@settings(max_examples=15, deadline=None)
@given(flag_complexes(max_vertices=3), flag_complexes(max_vertices=3), st.data())
def test_product_maps_are_simplicial(K, L, data):
    P, Q = staircase_product(K, L), staircase_product(L, K)
    u0 = data.draw(st.integers(0, K.num_vertices - 1))
    v0 = data.draw(st.integers(0, L.num_vertices - 1))
    for f in (P.projection_left(), P.projection_right(), P.include_at_right(v0),
              P.include_at_left(u0), transpose_map(P, Q)):
        _check_map(f)
    I = fixtures.interval()
    flat = staircase_product(K, staircase_product(L, I))
    nested = staircase_product(staircase_product(K, L), I)
    _check_map(rebracket_map(flat, nested))


@settings(max_examples=5, deadline=None)
@given(flag_complexes(max_vertices=2), flag_complexes(max_vertices=2))
def test_the_combined_transfer_swap_is_simplicial(K, L):
    I = fixtures.interval()
    _check_map(combined_transfer(product_transfer(K, I), product_transfer(L, I))[1])


# -- the stateful machine ----------------------------------------------------


FACE_CAP = 400
# The surface fixtures and the full 4-simplex, where products of characters
# have curvatures of degree 3 and 4 that need not vanish.
SIMPLEX_4 = Complex(5, [tuple(range(5))], "simplex_4")
FIXTURES = (*map(fixtures.complex_by_name, ("S1_3", "S2_4", "T2_9", "RP2_6", "Klein_K")), SIMPLEX_4)
FIBERS = ("point", "two_points", "S1_3", "interval")
# Bases small enough that a combined transfer over two of them, each with
# a circle or an interval fiber, stays within FACE_CAP.
SMALL_BASES = ("point", "two_points")


def _holds(conditions):
    """Assert an identity from verify; a failure reads like a suite's
    witness: lhs - rhs part by part as JSON cochains."""
    witness = verify.violation(conditions)
    assert witness is None, json.dumps(witness, sort_keys=True)


def _leibniz(a, b):
    """d(a cup b) = da cup b + (-1)^p a cup db, on the cochain level."""
    sign = -1 if a.degree % 2 else 1
    yield coboundary(cup(a, b)), cup(coboundary(a), b) + cup(a, coboundary(b)).scale(sign)


def _unit(h):
    """The degree-0 character 1 is a two-sided unit of the product."""
    K = h.complex
    one = DiffChar(Cochain.from_vector(K, 0, [1] * len(K.simplices(0))), zero_cochain(K, -1))
    yield verify.internal_product(one, h), h
    yield verify.internal_product(h, one), h


def _cup_1_coboundary(a, b):
    """d(a cup_1 b) = da cup_1 b + (-1)^p a cup_1 db + (-1)^(p+q-1) a cup b
    + (-1)^(p+q+pq) b cup a, Steenrod's identity, in every degree."""
    p, q = a.degree, b.degree
    rhs = (cup_1(coboundary(a), b) + cup_1(a, coboundary(b)).scale(-1 if p % 2 else 1)
           + cup(a, b).scale(-1 if (p + q - 1) % 2 else 1)
           + cup(b, a).scale(-1 if (p + q + p * q) % 2 else 1))
    yield coboundary(cup_1(a, b)), rhs


def _cup_associativity(a, b, c):
    """(a cup b) cup c = a cup (b cup c), on the cochain level."""
    yield cup(cup(a, b), c), cup(a, cup(b, c))


def _io_round_trip(h):
    """A character read back from its JSON is the character."""
    text = io.dumps(io.character_to_json(h))
    yield io.character_from_json(json.loads(text), h.complex), h


def _rel_io_round_trip(f):
    """A relative character read back from its JSON is the character."""
    text = io.dumps(io.rel_character_to_json(f))
    yield io.rel_character_from_json(json.loads(text), f.cone), f


def _random_chain(K, degree, rng):
    return K.chain_from_vector(degree, [rng.randint(-3, 3) for _ in K.simplices(degree)])


class Algebra(RuleBasedStateMachine):
    """Builds complexes, products, maps, cones and transfers, and derives
    chains, characters, relative characters and flat classes from them by
    the library's operations; every derived value passes its checked
    rebuild (a character also the unit law), and every operation passes the
    identities of verify that it enters.

    Each example starts from a fixture, with kernel sections on its identity
    cone, and from the product of two degree-2 characters on the full
    4-simplex.  Products and transfers are built only up to FACE_CAP faces,
    flag complexes have at most 5 vertices, and a drawn degree is 1 or 2
    (above the fiber degree for fiber integration; 2 or 3 for kernel and
    unique sections).
    """

    complexes = Bundle("complexes")
    products = Bundle("products")
    maps = Bundle("maps")
    cones = Bundle("cones")
    transfers = Bundle("transfers")
    cycles = Bundle("cycles")
    characters = Bundle("characters")
    relatives = Bundle("relatives")

    def __init__(self):
        super().__init__()
        self.made = []
        self.made_relative = []
        self.made_flat = []

    def _rng(self, data):
        return random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def _character(self, data, K, k=None):
        """A character on K, of degree k if given: one made before, or a new
        random one."""
        made = [h for h in self.made if h.complex is K and k in (None, h.degree)]
        if made and data.draw(st.booleans(), label="made"):
            return made[data.draw(st.integers(0, len(made) - 1), label="which")]
        if k is None:
            k = data.draw(st.integers(1, min(K.dim + 1, 2)), label="degree")
        return random_character(K, k, self._rng(data))

    def _keep(self, h):
        _check_character(h)
        _holds(_unit(h))
        self.made.append(h)
        return h

    def _keep_relative(self, f):
        _check_relative(f)
        self.made_relative.append(f)
        return f

    def _descend(self, f):
        """A relative character of degree >= 2 in the kernel of the
        projection is incl_flat of its descent."""
        if f.degree >= 2 and project(f).is_zero():
            _holds(verify.kernel_descends(f))
            self._keep(descend_kernel(f))

    def _torsion_class(self, K, data):
        """A fractional torsion class of K, if K has torsion."""
        torsion = [(k, i, d) for k in range(K.dim + 1)
                   for i, d in enumerate(K.homology(k).torsion)]
        if torsion:
            k, i, d = data.draw(st.sampled_from(torsion), label="torsion factor")
            numerator = data.draw(st.integers(0, d), label="numerator")
            u = fractional_torsion_class(K, k, i, numerator)
            assert u.is_zero() == (numerator % d == 0)
            self._keep_flat(u, data)

    def _keep_flat(self, u, data):
        """Check u and its group law with a flat class made before (or u)."""
        like = [v for v in self.made_flat if v.complex is u.complex and v.degree == u.degree]
        v = like[data.draw(st.integers(0, len(like) - 1), label="partner")] if like else u
        for w in (u, u + v, u - v, -u, u.scale(data.draw(st.integers(-3, 3), label="n"))):
            _check_flat_class(w)
        self.made_flat.append(u)

    # -- spaces, maps and chains

    @initialize(target=complexes, K=st.sampled_from(FIXTURES), data=st.data())
    def start(self, K, data):
        """A fixture, kernel sections in degree 2 on its identity cone, and a
        fractional torsion class."""
        self._kernel_sections(mapping_cone(identity_map(K)), 2, self._rng(data))
        self._torsion_class(K, data)
        return K

    @rule(target=complexes, K=st.one_of(st.sampled_from(FIXTURES), flag_complexes(max_vertices=5)))
    def space(self, K):
        return K

    def _product_maps(self, P, data):
        """The projections, the inclusions at drawn vertices and the
        transpose of a product."""
        u0 = data.draw(st.integers(0, P.left.num_vertices - 1), label="u0")
        v0 = data.draw(st.integers(0, P.right.num_vertices - 1), label="v0")
        return (P.projection_left(), P.projection_right(), P.include_at_right(v0),
                P.include_at_left(u0), transpose_map(P, staircase_product(P.right, P.left)))

    def _check_product(self, P, data):
        """Its maps; tensor, shuffle and front/back chains, AW o EZ = id,
        and the slant of a character's cochains over a right factor chain."""
        for f in self._product_maps(P, data):
            _check_map(f)
        rng = self._rng(data)
        p = data.draw(st.integers(0, P.left.dim), label="left degree")
        q = data.draw(st.integers(0, P.right.dim), label="right degree")
        w, y = _random_chain(P.left, p, rng), _random_chain(P.right, q, rng)
        t, e = tensor(w, y), ez(w, y, P)
        back = alexander_whitney(e)
        for c in (t, t.boundary(), e, back):
            _check_chain(c)
        _holds([(back, t)])
        h = self._character(data, P, q + data.draw(st.integers(1, 2), label="degree"))
        for c in (h.curvature, h.lift):
            _check_cochain(slant_fiber(c, y))
        return P

    @rule(targets=(complexes, products), K=complexes, L=complexes, data=st.data())
    def product(self, K, L, data):
        if product_face_count(K, L) > FACE_CAP:
            return multiple()
        return self._check_product(staircase_product(K, L), data)

    @rule(target=maps, phi=monotone_maps())
    def monotone_map(self, phi):
        for f in (identity_map(phi.source), identity_map(phi.target),
                  compose_maps(phi, identity_map(phi.source)),
                  compose_maps(identity_map(phi.target), phi)):
            _check_map(f)
        return phi

    @rule(target=maps, K=complexes, i=st.integers(0, 2))
    def map_into(self, K, i):
        maps = verify._monotone_maps_into(K)
        return maps[i % len(maps)]

    @rule(target=maps, P=products, data=st.data())
    def product_map(self, P, data):
        maps = self._product_maps(P, data)
        return maps[data.draw(st.integers(0, len(maps) - 1), label="map")]

    def _check_cone(self, cone, data):
        """Cone chains: their boundary, +, -, negation and scale."""
        X, A = cone.phi.target, cone.phi.source
        k = data.draw(st.integers(0, max(X.dim, A.dim + 1)), label="degree")
        rng, size = self._rng(data), cone.chain_count(k)
        c, c2 = (cone.chain_from_vector(k, [rng.randint(-3, 3) for _ in range(size)]) for _ in "ab")
        n = data.draw(st.integers(-3, 3), label="n")
        for z in (c, c.boundary(), c + c2, c - c2, -c, c.scale(n),
                  cone.chain(k, c.x_part.coeffs, c.a_part.coeffs)):
            _check_cone_chain(z)
        return cone

    @rule(target=cones, phi=maps, data=st.data())
    def cone(self, phi, data):
        return self._check_cone(mapping_cone(phi), data)

    def _kernel_sections(self, cone, k, rng):
        """Sections s1, s2 of iota(theta) and iota(theta + c) on the identity
        cone of X, for an integer cocycle c, and g = incl_flat of a character
        on X: s1 - s2 + g has zero projection but the X lift -c, whose
        integral part enters the mu of its descent."""
        X = cone.phi.target
        theta = random_character(X, k, rng).lift
        c = random_character(X, k - 1, rng).mu
        s1, s2 = find_section(iota(theta), cone), find_section(iota(theta + c), cone)
        g = incl_flat(random_character(X, k - 1, rng), cone)
        self._descend(self._keep_relative(s1 - s2 + g))

    @rule(target=cones, K=complexes, data=st.data())
    def identity_cone(self, K, data):
        cone, rng = mapping_cone(identity_map(K)), self._rng(data)
        for k in (2, 3):
            self._kernel_sections(cone, k, rng)
        return self._check_cone(cone, data)

    @rule(target=cones, drawn=mapping_cones(), data=st.data())
    def random_cone(self, drawn, data):
        return self._check_cone(drawn[0], data)

    @rule(target=transfers, base=complexes, fiber=st.sampled_from(FIBERS), data=st.data())
    def transfer(self, base, fiber, data):
        F = fixtures.complex_by_name(fiber)
        if product_face_count(base, F) > FACE_CAP:
            return multiple()
        tr = product_transfer(base, F)
        _check_chain(tr.fiber_chain)
        self._check_product(tr.total, data)
        if not tr.fiber_chain.is_cycle():
            self.integrate_with_boundary(tr, data)
        return tr

    @rule(target=complexes, tr=transfers)
    def total(self, tr):
        return tr.total

    @rule(target=cycles, K=complexes, data=st.data())
    def cycle(self, K, data):
        k = data.draw(st.integers(0, K.dim), label="degree")
        basis = K.splitting(k).cycle_basis
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
        z = K.chain_from_vector(k, [sum(c * v[j] for c, v in zip(coeffs, basis))
                                    for j in range(len(K.simplices(k)))])
        for c in (z, z.boundary()):
            _check_chain(c)
        return z

    @rule(phi=maps, data=st.data())
    def push(self, phi, data):
        """Chains pushed forward and cochains pulled back along phi: the
        pairing is natural and the pushforward commutes with the boundary."""
        rng = self._rng(data)
        p = data.draw(st.integers(0, phi.source.dim), label="degree")
        n = data.draw(st.integers(-3, 3), label="n")
        z = _random_chain(phi.source, p, rng)
        for c in (z, z.boundary(), phi.push_chain(z), z + z.scale(n), -z, z - z):
            _check_chain(c)
        if p > 0:
            _holds([(phi.push_chain(z.boundary()), phi.push_chain(z).boundary())])
        b = random_cochain(phi.target, p, rng)
        pulled = pullback_cochain(phi, b)
        for c in (b, pulled, b.scale(Fraction(n, 2)), b - b, coboundary(b),
                  zero_cochain(phi.target, p)):
            _check_cochain(c)
        _holds([(pair(pulled, z), pair(b, phi.push_chain(z)))])

    # -- characters and flat classes

    @rule(target=characters, K=complexes, data=st.data())
    def character(self, K, data):
        h = self._character(data, K)
        _holds(verify.curvature_of_iota(h.lift))
        _holds(verify.iota_kernel(h.lift, h.mu))
        _holds(verify.trivialization_round_trip(h))
        _holds(verify.curvature_lifting(h))
        _holds(_io_round_trip(h))
        _check_character(from_curvature(h.curvature))
        return self._keep(h)

    @rule(target=characters, K=complexes, data=st.data())
    def flat(self, K, data):
        k = data.draw(st.integers(1, min(K.dim + 1, 2)), label="degree")
        g = random_flat_character(K, k, self._rng(data))
        _holds(verify.flat_classes(g))
        self._keep_flat(flat_holonomy_class(g), data)
        self._torsion_class(K, data)
        return self._keep(g)

    @rule(target=characters, h=characters, n=st.integers(-3, 3), data=st.data())
    def group_law(self, h, n, data):
        f = self._character(data, h.complex, h.degree)
        for out in (h - f, -h, h.scale(n)):
            _check_character(out)
        return self._keep(h + f)

    @rule(target=characters, phi=maps, data=st.data())
    def pull(self, phi, data):
        h, f = self._character(data, phi.target), self._character(data, phi.target)
        # through verify, so that one patch there reaches the rule and the identities
        _holds(verify.naturality(phi, h, f, verify.internal_product(h, f)))
        return self._keep(pullback(phi, h))

    def _product_laws(self, h, f, data):
        """The identities h f enters, with characters g and h2 (of h's
        degree) and a flat cochain u drawn beside them; keeps h f."""
        K = h.complex
        g, h2 = self._character(data, K), self._character(data, K, h.degree)
        u = random_flat_character(K, h.degree, self._rng(data)).lift
        hf, fh = verify.internal_product(h, f), verify.internal_product(f, h)
        _holds(verify.bilinearity(h, h2, f, hf, fh))
        _holds(verify.associativity(h, f, g, hf))
        _holds(verify.multiplicativity(h, f, hf))
        _holds([(hf.mu, cup(h.mu, f.mu))])
        _holds(verify.iota_compatibility(h2.lift, f))
        _holds(verify.flat_compatibility(u, f))
        _holds(verify.commutativity_defect(h, f, hf, fh))
        _holds(_leibniz(h.lift, f.lift))
        _holds(_cup_associativity(h.lift, f.lift, g.lift))
        _holds(_cup_1_coboundary(h.lift, f.lift))
        for c in (cup(h.lift, f.lift), cup_1(h.lift, f.lift), coboundary(h.lift)):
            _check_cochain(c)
        return self._keep(hf)

    @initialize(target=characters, data=st.data())
    def simplex(self, data):
        """Two degree-2 characters on the full 4-simplex, whose commutativity
        defect has a curvature of degree 4, and their product."""
        rng = self._rng(data)
        h, f = (random_character(SIMPLEX_4, 2, rng) for _ in "hf")
        hf, fh = verify.internal_product(h, f), verify.internal_product(f, h)
        _holds(verify.commutativity_defect(h, f, hf, fh))
        return self._keep(hf)

    @rule(target=characters, h=characters, data=st.data())
    def internal(self, h, data):
        return self._product_laws(h, self._character(data, h.complex), data)

    @rule(target=characters, P=products, data=st.data())
    def external(self, P, data):
        h, f = self._character(data, P.left), self._character(data, P.right)
        d = h.degree + f.degree - 1
        if 0 <= d <= P.dim:
            cycles = [P.chain_from_vector(d, v) for v in P.splitting(d).cycle_basis[:4]]
            _holds(verify.bb_formula(h, f, P, cycles))
        return self._keep(external_product(h, f, P))

    @rule(z=cycles, data=st.data())
    def evaluate(self, z, data):
        P = z.complex
        h = self._character(data, P, z.degree + 1)
        _holds(verify.torsion_formula(h, [z]))
        if isinstance(P, ProductComplex) and z.degree > 0:
            k = data.draw(st.integers(1, z.degree), label="left degree")
            hl = self._character(data, P.left, k)
            hr = self._character(data, P.right, z.degree + 1 - k)
            _holds(verify.bb_formula(hl, hr, P, [z]))

    # -- fiber integration

    @rule(target=characters, tr=transfers, data=st.data())
    def integrate(self, tr, data):
        if not tr.fiber_chain.is_cycle():
            return multiple()
        k = data.draw(st.integers(1, 2), label="degree") + tr.fiber_degree
        h = self._character(data, tr.total, k)
        b = self._character(data, tr.total, k).lift
        hb = self._character(data, tr.base)
        g = verify._monotone_maps_into(tr.base)[data.draw(st.integers(0, 1), label="map")]
        _holds(verify.fiber_curvature(h, tr))
        _holds(verify.fiber_iota(b, tr))
        _holds(verify.orientation_reversal(h, tr))
        _holds(verify.fiber_naturality(g, h, tr))
        _holds(verify.projection_formula(hb, h, tr))
        return self._keep(fiber_integrate(h, tr))

    @rule(targets=(complexes, products), X=complexes, fibers=st.tuples(
        st.sampled_from(FIBERS), st.sampled_from(FIBERS)), data=st.data())
    def iterate(self, X, fibers, data):
        """(X x F1) x F2 and its rebracketing X x (F1 x F2); over closed
        fibers, integrating over F2 and then F1 is integrating over both."""
        F1, F2 = map(fixtures.complex_by_name, fibers)
        if product_face_count(X, F1) > FACE_CAP:
            return multiple()
        XF1 = staircase_product(X, F1)
        if product_face_count(XF1, F2) > FACE_CAP:
            return multiple()
        nested = staircase_product(XF1, F2)
        _check_map(rebracket_map(staircase_product(X, staircase_product(F1, F2)), nested))
        if "interval" not in fibers:
            k = F1.dim + F2.dim + data.draw(st.integers(1, 2), label="degree")
            _holds(verify.iterated_fibers(self._character(data, nested, k)))
        return self._check_product(nested, data)

    @rule(bases=st.tuples(st.sampled_from(SMALL_BASES), st.sampled_from(SMALL_BASES)),
          fibers=st.tuples(st.sampled_from(("S1_3", "interval")),
                           st.sampled_from(("S1_3", "interval"))), data=st.data())
    def combine_transfers(self, bases, fibers, data):
        """The swap of the combined transfer is simplicial; over two circle
        fibers, integrating h x f over it is the product of the integrals."""
        tr, tr2 = (product_transfer(*map(fixtures.complex_by_name, names))
                   for names in zip(bases, fibers))
        if product_face_count(tr.total, tr2.total) > FACE_CAP:
            return
        combined = combined_transfer(tr, tr2)
        _check_map(combined[1])
        if fibers == ("S1_3", "S1_3"):
            h, f = self._character(data, tr.total), self._character(data, tr2.total)
            _holds(verify.fiber_product_formula(h, f, tr, tr2, combined))

    @rule(target=relatives, tr=transfers, data=st.data())
    def integrate_with_boundary(self, tr, data):
        if tr.fiber_chain.is_cycle():
            return multiple()
        h = self._character(data, tr.total)
        out = boundary_fiber_integrate(h, tr)
        _holds(verify.boundary_integral_is_iota(h, tr, out))
        _holds(verify.boundary_relative_projects(out))
        _holds(verify.endpoint_quotient(h, tr, out))
        sign = -1 if (h.degree - 1) % 2 else 1
        _holds([(out.cov, slant_fiber(h.curvature, tr.fiber_chain).scale(sign))])
        _check_character(out.over_boundary)
        return self._keep_relative(out.relative)

    # -- relative characters

    @rule(target=relatives, cone=cones, data=st.data())
    def section(self, cone, data):
        h = self._character(data, cone.phi.target)
        _holds(verify.section_gate(h, cone))
        _holds(verify.section_projects(h, cone))
        try:
            return self._keep_relative(find_section(h, cone))
        except NoSection:
            return multiple()

    @rule(target=relatives, cone=cones, data=st.data())
    def include(self, cone, data):
        g = self._character(data, cone.phi.source)
        _holds(verify.inclusion_in_kernel(g, cone))
        f = self._keep_relative(incl_flat(g, cone))
        self._descend(f)
        return f

    @rule(target=relatives, K=complexes, data=st.data())
    def covariant_inverse(self, K, data):
        """The relative character of a covariant part theta, on the cone of
        the identity."""
        theta = self._character(data, K).lift
        f = cov_inverse(theta)
        _holds([(project(f), iota(theta))])
        return self._keep_relative(f)

    @rule(target=relatives, cone=cones, data=st.data())
    def unique_section(self, cone, data):
        rng = self._rng(data)
        k = data.draw(st.integers(2, 3), label="degree")
        h = iota(random_character(cone.phi.target, k, rng).lift)
        g = random_flat_character(cone.phi.source, k - 1, rng)
        _holds(verify.equal_cov_sections(h, g, cone))
        return self._keep_relative(find_section(h, cone))

    @rule(target=relatives, f=relatives, data=st.data(), n=st.integers(-3, 3))
    def combine(self, f, data, n):
        like = [e for e in self.made_relative if e.cone is f.cone and e.degree == f.degree]
        f2 = like[data.draw(st.integers(0, len(like) - 1), label="partner")]
        for out in (f + f2, f - f2, -f2):
            _check_relative(out)
        _holds(_rel_io_round_trip(f))
        return self._keep_relative(f.scale(n))


# No shrink phase: a failing run reports its unshrunk steps, its witness and
# a @reproduce_failure blob at once instead of shrinking for minutes.
MACHINE = settings(max_examples=40, stateful_step_count=20, deadline=None, print_blob=True,
                   phases=(Phase.explicit, Phase.reuse, Phase.generate))
TestAlgebra = Algebra.TestCase
TestAlgebra.settings = MACHINE


def test_the_machine_catches_half_mu_on_the_product_lift(monkeypatch):
    """Adding mu_h/2 to the lift of h f for deg f = 1 keeps mu and passes
    every checked rebuild; the identities of the product must catch it."""
    product = verify.internal_product

    def shifted(h, f):
        hf = product(h, f)
        if f.degree != 1:
            return hf
        return _derived(hf.curvature, hf.lift + h.mu.scale(Fraction(1, 2)), hf.mu)

    monkeypatch.setattr(verify, "internal_product", shifted)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(Algebra, settings=settings(
            MACHINE, phases=[Phase.generate], derandomize=True, database=None))
