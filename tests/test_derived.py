"""Values the library derives from checked ones pass the checks they skip,
and the identities of `diffchar.verify` hold on whatever the library derives.

Chains and cochains built by library operations skip the constructor's
check, characters and relative characters derived from checked ones carry
their integral cocycles instead of recomputing them, and the maps the
library builds from valid data skip the image check.  The properties below
rebuild each such value through the public, checking constructor and
compare, on random flag complexes, monotone maps, mapping cones and
product transfers over a circle or an interval fiber.

`Algebra` is a stateful machine over the same strategies: it builds
complexes, products, maps, cones, transfers and cycles, derives characters
and relative characters from them step by step, and checks every value it
makes by its rebuild and every operation by verify's identities, plus the
cochain-level Leibniz rule, cup associativity, Steenrod's identity for
cup_1, the unit law and io round trips, which no suite checks.  A failing
identity reports verify's witness (lhs - rhs part by part); hypothesis
prints the steps that led to it.
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
    FlatClass,
    LowDegreeChar,
    _derived,
    character,
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
from strategies import flag_complexes, mapping_cones, monotone_maps


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


def _check_character(h):
    for c in (h.curvature, h.lift, h.mu):
        _check_cochain(c)
    assert h.mu == h.curvature - coboundary(h.lift)
    assert h.mu.is_integer_valued()
    assert is_closed(h.curvature)
    rebuilt = character(h.curvature, h.lift)
    assert type(rebuilt) is type(h)
    assert rebuilt == h
    assert rebuilt.mu == h.mu


def _draw_character(data, K, rng):
    return random_character(K, data.draw(st.integers(1, K.dim + 1)), rng)


@settings(max_examples=40, deadline=None)
@given(flag_complexes(max_vertices=6), st.data())
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


def _check_relative_algebra(cone, k, rng, n):
    """Library-built relative characters of degree k on the cone, and what
    descend_kernel makes of those in the kernel of the projection.

    Besides incl_flat of a character on A and a section of a random
    character on X, the draws are the sections of two characters on X whose
    class is zero, one the other plus iota of an integer cocycle c: their
    difference has zero projection but the X lift -c, whose integral part
    enters the mu of its descent.
    """
    X, A = cone.phi.target, cone.phi.source
    theta = random_character(X, k, rng).lift
    c = random_character(X, k - 1, rng).mu
    s1, s2 = find_section(iota(theta), cone), find_section(iota(theta + c), cone)
    g = incl_flat(random_character(A, k - 1, rng), cone)
    outs = [g, s1, s2, g + s1, g - s1, -g, s1.scale(n), s1 - s2 + g]
    try:
        outs.append(find_section(random_character(X, k, rng), cone))
    except ValueError:
        pass
    for f in outs:
        _check_relative(f)
    if k >= 2:
        _check_character(descend_kernel(g))
        _check_character(descend_kernel(s1 - s2 + g))


@settings(max_examples=40, deadline=None)
@given(mapping_cones(), st.data())
def test_relative_characters_carry_mu(drawn, data):
    cone = drawn[0]
    X, A = cone.phi.target, cone.phi.source
    k = data.draw(st.integers(1, max(X.dim, A.dim + 1, 1)))
    _check_relative_algebra(cone, k, _rng(data), data.draw(st.integers(-3, 3)))


def test_relative_characters_carry_mu_on_identity_cones():
    """The X lifts drawn above have a nonzero integral part on A here, which
    random cones seldom give."""
    rng = random.Random(13)
    for X in (fixtures.circle(), fixtures.torus()):
        cone = mapping_cone(identity_map(X))
        for k in (1, 2, 3):
            _check_relative_algebra(cone, k, rng, 2)


@settings(max_examples=30, deadline=None)
@given(flag_complexes(max_vertices=5), st.data())
def test_cov_inverse_carries_mu(K, data):
    rng = _rng(data)
    theta = _draw_character(data, K, rng).lift
    _check_relative(cov_inverse(theta))
    _check_relative(cov_inverse(theta, mapping_cone(identity_map(K))))


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
    size = sum(cone.basis_sizes(k))
    c, c2 = (cone.chain_from_vector(k, [data.draw(st.integers(-3, 3)) for _ in range(size)])
             for _ in range(2))
    n = data.draw(st.integers(-3, 3))
    for z in (c, c.boundary(), c + c2, c - c2, -c, c.scale(n),
              cone.chain(k, c.x_part.coeffs, c.a_part.coeffs)):
        _check_chain(z.x_part)
        _check_chain(z.a_part)
        assert ConeChain(z.cone, z.degree, z.x_part, z.a_part) == z


@settings(max_examples=30, deadline=None)
@given(flag_complexes(max_vertices=5), st.data())
def test_flat_classes_match_their_checked_rebuilds(K, data):
    rng = _rng(data)
    k = data.draw(st.integers(1, K.dim + 1))
    u, u2 = (flat_holonomy_class(random_flat_character(K, k, rng)) for _ in range(2))
    n = data.draw(st.integers(-3, 3))
    for v in (u, u + u2, u - u2, -u, u.scale(n)):
        _check_cochain(v.cochain)
        rebuilt = FlatClass(v.cochain)
        assert (rebuilt.complex, rebuilt.degree) == (v.complex, v.degree)
        assert rebuilt == v


def test_fractional_torsion_classes_match_their_checked_rebuilds():
    RP2, S1 = fixtures.complex_by_name("RP2_6"), fixtures.complex_by_name("S1_3")
    seen = 0
    for K in (RP2, fixtures.complex_by_name("Klein_K"), staircase_product(S1, RP2)):
        for k in range(K.dim + 1):
            for i, d in enumerate(K.homology(k).torsion):
                for numerator in range(d + 1):
                    u = fractional_torsion_class(K, k, i, numerator)
                    _check_cochain(u.cochain)
                    rebuilt = FlatClass(u.cochain)
                    assert (rebuilt.complex, rebuilt.degree) == (u.complex, u.degree)
                    assert rebuilt == u
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
FIXTURES = ("S1_3", "S2_4", "T2_9", "RP2_6", "Klein_K")
FIBERS = ("point", "two_points", "S1_3", "interval")


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
    one = LowDegreeChar(K, 0, Cochain.from_vector(K, 0, [1] * len(K.simplices(0))))
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


class Algebra(RuleBasedStateMachine):
    """Builds complexes, products, maps, cones and transfers, and derives
    characters and relative characters from them by the library's
    operations; every derived value passes its checked rebuild, and every
    operation passes the identities of verify that it enters.

    Products and transfers are built only up to FACE_CAP faces, flag
    complexes have at most 5 vertices, and a drawn degree is 1 or 2 (above
    the fiber degree for fiber integration; 2 or 3 for unique sections).
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

    def _rng(self, data):
        return random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def _character(self, data, K, k=None):
        """A character on K, of degree k if given: one made before, or a new
        random one."""
        made = [h for h in self.made if h.complex is K and k in (None, h.degree)]
        i = data.draw(st.integers(0, len(made)), label="made")
        if i:
            return made[i - 1]
        if k is None:
            k = data.draw(st.integers(1, min(K.dim + 1, 2)), label="degree")
        return random_character(K, k, self._rng(data))

    def _keep(self, h):
        _check_character(h)
        self.made.append(h)
        return h

    def _keep_relative(self, f):
        _check_relative(f)
        self.made_relative.append(f)
        return f

    # -- spaces and maps

    @initialize(target=complexes, name=st.sampled_from(FIXTURES))
    def start(self, name):
        return fixtures.complex_by_name(name)

    @rule(target=complexes, K=flag_complexes(max_vertices=5))
    def flag_complex(self, K):
        return K

    @rule(target=complexes, name=st.sampled_from(FIXTURES))
    def fixture(self, name):
        return fixtures.complex_by_name(name)

    @rule(targets=(complexes, products), K=complexes, L=complexes)
    def product(self, K, L):
        if product_face_count(K, L) > FACE_CAP:
            return multiple()
        P = staircase_product(K, L)
        for f in (P.projection_left(), P.projection_right(), P.include_at_right(0),
                  P.include_at_left(0)):
            _check_map(f)
        return P

    @rule(target=maps, phi=monotone_maps())
    def monotone_map(self, phi):
        for f in (identity_map(phi.source), compose_maps(identity_map(phi.target), phi)):
            _check_map(f)
        return phi

    @rule(target=maps, K=complexes, i=st.integers(0, 2))
    def map_into(self, K, i):
        maps = verify._monotone_maps_into(K)
        return maps[i % len(maps)]

    @rule(target=maps, P=products, left=st.booleans())
    def projection(self, P, left):
        return P.projection_left() if left else P.projection_right()

    @rule(target=cones, phi=maps)
    def cone(self, phi):
        return mapping_cone(phi)

    @rule(target=cones, K=complexes)
    def identity_cone(self, K):
        return mapping_cone(identity_map(K))

    @rule(target=cones, drawn=mapping_cones())
    def random_cone(self, drawn):
        return drawn[0]

    @rule(target=transfers, base=complexes, fiber=st.sampled_from(FIBERS))
    def transfer(self, base, fiber):
        F = fixtures.complex_by_name(fiber)
        if product_face_count(base, F) > FACE_CAP:
            return multiple()
        return product_transfer(base, F)

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

    # -- characters

    @rule(target=characters, K=complexes, data=st.data())
    def character(self, K, data):
        h = self._character(data, K)
        _holds(verify.curvature_of_iota(h.lift))
        _holds(verify.iota_kernel(h.lift, h.mu))
        _holds(verify.trivialization_round_trip(h))
        _holds(verify.curvature_lifting(h))
        _holds(_unit(h))
        _holds(_io_round_trip(h))
        return self._keep(h)

    @rule(target=characters, K=complexes, data=st.data())
    def flat(self, K, data):
        k = data.draw(st.integers(1, min(K.dim + 1, 2)), label="degree")
        g = random_flat_character(K, k, self._rng(data))
        _holds(verify.flat_classes(g))
        return self._keep(g)

    @rule(target=characters, h=characters, data=st.data())
    def add(self, h, data):
        return self._keep(h + self._character(data, h.complex, h.degree))

    @rule(target=characters, h=characters, data=st.data())
    def subtract(self, h, data):
        return self._keep(h - self._character(data, h.complex, h.degree))

    @rule(target=characters, h=characters, n=st.integers(-3, 3))
    def scale(self, h, n):
        _check_character(-h)
        return self._keep(h.scale(n))

    @rule(target=characters, phi=maps, data=st.data())
    def pull(self, phi, data):
        h, f = self._character(data, phi.target), self._character(data, phi.target)
        _holds(verify.naturality(phi, h, f))
        return self._keep(pullback(phi, h))

    @rule(target=characters, h=characters, data=st.data())
    def internal(self, h, data):
        K = h.complex
        f, g = self._character(data, K), self._character(data, K)
        h2 = self._character(data, K, h.degree)
        u = random_flat_character(K, h.degree, self._rng(data)).lift
        _holds(verify.bilinearity(h, h2, f))
        _holds(verify.associativity(h, f, g))
        _holds(verify.multiplicativity(h, f))
        _holds(verify.iota_compatibility(h2.lift, f))
        _holds(verify.flat_compatibility(u, f))
        _holds(verify.commutativity_defect(h, f))
        _holds(_leibniz(h.lift, f.lift))
        _holds(_cup_associativity(h.lift, f.lift, g.lift))
        _holds(_cup_1_coboundary(h.lift, f.lift))
        for c in (cup(h.lift, f.lift), cup_1(h.lift, f.lift), coboundary(h.lift)):
            _check_cochain(c)
        # through verify, so that one patch there reaches the rule and the identities
        return self._keep(verify.internal_product(h, f))

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

    @rule(target=relatives, tr=transfers, data=st.data())
    def integrate_with_boundary(self, tr, data):
        if tr.fiber_chain.is_cycle():
            return multiple()
        h = self._character(data, tr.total)
        _holds(verify.boundary_integral_is_iota(h, tr))
        _holds(verify.boundary_relative_projects(h, tr))
        _holds(verify.endpoint_quotient(h, tr))
        out = boundary_fiber_integrate(h, tr)
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
        return self._keep_relative(incl_flat(g, cone))

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
        return self._keep_relative(f.scale(n))

    @rule(target=characters, f=relatives)
    def descend(self, f):
        if f.degree < 2 or not project(f).is_zero():
            return multiple()
        _holds(verify.kernel_descends(f))
        return self._keep(descend_kernel(f))

    @rule(f=relatives)
    def relative_io(self, f):
        _holds(_rel_io_round_trip(f))


MACHINE = settings(max_examples=40, stateful_step_count=20, deadline=None, print_blob=True)
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
