"""Verification suites: the executable form of the library's contracts.

Each identity a suite checks is written once, here, as a generator over
drawn inputs (`bilinearity(h, h2, f)`, `fiber_naturality(g, h, tr)`, ...).
It yields its conditions in order: a pair (lhs, rhs) that must be equal,
optionally with a dict naming where it was taken (`{"cycle": j}`), or a bool
that must hold.  The first condition that fails ends the identity, so a
later one that needs it (the commutativity defect's trivialization, say) is
never built.  `violation(conditions)` reads an identity on any inputs: None,
or the first failure's witness.  Frozen values of the bundled fixtures (the
holonomy suite, say) are compared in the suites themselves.

Each suite is a draw loop: fixed seed, fixed fixture order and fixed draw
order, so its report is byte-identical from run to run.  It hands every
identity to one `_Recorder` with the check's name and the instance; a check
passes when all of its conditions hold.  Its first failing condition
becomes its witness: the suite seed, the instance index, the fixture and
the degrees drawn, and, for two compared cochains or characters (any
`DirectSum` of cochains), lhs - rhs part by part as JSON cochains.  Nothing
is built for a condition that holds.  A suite that raises stops with a
`SuiteFault` naming the instance in flight.

An identity about an operation's result takes the result as input (`hf`,
`fh`, `out`, `kernel_descends`'s `f`); its caller computes it once, through
this module's names.  Every identity is an invariant of the stateful machine
`Algebra` in `tests/test_derived.py`, run on what it derives from flag
complexes, the fixtures, products of at most `FACE_CAP` faces, maps, cones
and transfers.  No test restates an identity checked here.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from diffchar import fixtures
from diffchar.simplicial import (
    Complex,
    DirectSum,
    SimplicialMap,
    fundamental_cycle,
    identity_map,
    mapping_cone,
    product_map,
    staircase_product,
    ez,
)
from diffchar.cochain import (
    Cochain,
    coboundary,
    cup,
    cup_1,
    has_integral_periods,
    is_closed,
    pair,
    pullback as pullback_cochain,
    slant_fiber,
    zero_cochain,
)
from diffchar.characters import (
    DiffChar,
    IntegralClass,
    NoTrivialization,
    char_class,
    evaluate,
    evaluate_torsion,
    flat_character,
    flat_holonomy_class,
    from_curvature,
    iota,
    pullback,
    random_character,
    random_flat_character,
    trivialization,
)
from diffchar.products import bb_evaluate, external_product, internal_product
from diffchar.fiber_integration import (
    TransferData,
    boundary_fiber_integrate,
    combined_transfer,
    fiber_integrate,
    product_transfer,
    rebracket_map,
)
from diffchar.relative import (
    NoSection,
    descend_kernel,
    find_section,
    flat_class_pulled_back,
    incl_flat,
    project,
    pushforward_injective,
)
from diffchar.holonomy import Filling, Phased, holonomy, transition_factor, hermitian_pairing
from diffchar.io import cochain_to_json, fraction_to_str


class UnknownSuite(KeyError):
    """The requested verification suite does not exist."""


class SuiteFault(Exception):
    """A suite raised: an internal fault, never bad input.  The message names
    the exception, `witness` the seed and the instance in flight, if any."""

    def __init__(self, cause, witness):
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.witness = witness


def violation(conditions):
    """None if every condition an identity yields holds; else the witness of
    the first that fails: {} for a bool, or where it was taken and the
    discrepancy of its two sides for a comparison."""
    for condition in conditions:
        if type(condition) is tuple:
            lhs, rhs, *where = condition
            if not lhs == rhs:
                return dict(*where, discrepancy=_discrepancy(lhs, rhs))
        elif not condition:
            return {}
    return None


class _Recorder:
    """The checks of one suite run, in the order they are first declared or
    evaluated, each kept as a report entry {"name", "pass"[, "witness"]}."""

    def __init__(self, seed):
        self.seed = seed
        self._entries = {}
        self.in_flight = {}

    def at(self, index, fixture, **degrees):
        """The instance the work that follows is on, as its witness names it;
        it stays in flight until the next `at` or `declare`."""
        self.in_flight = {"instance": index, "fixture": fixture, "degrees": degrees}
        return self.in_flight

    def declare(self, label, *names):
        """Report the checks `name [label]` here, in this order, also those
        that no instance reaches; returns their full names."""
        self.in_flight = {}
        full = [f"{name} [{label}]" for name in names]
        for name in full:
            self._entries[name] = {"name": name, "pass": True}
        return full

    def holds(self, name, conditions, instance):
        """Record the conditions an identity yields as check `name`; returns
        whether they all hold."""
        entry = self._entries.setdefault(name, {"name": name, "pass": True})
        failure = violation(conditions)
        if failure is not None and entry["pass"]:
            entry["pass"] = False
            entry["witness"] = {"seed": self.seed, **instance, **failure}
        return failure is None

    def check(self, name, passed, instance):
        """Record the condition `passed` of check `name`."""
        return self.holds(name, [passed], instance)

    def equal(self, name, lhs, rhs, instance):
        """Record the condition lhs == rhs of check `name`."""
        return self.holds(name, [(lhs, rhs)], instance)

    @property
    def checks(self):
        return list(self._entries.values())

    @staticmethod
    def report(suite, checks):
        return {"suite": suite, "pass": all(c["pass"] for c in checks), "checks": checks}


def _suite(seed):
    """The runner of a suite body(rec, rng, **options): a fresh recorder and
    random draws with this seed; it returns the recorder's checks, or raises
    a SuiteFault if the body raises."""

    def wrap(body):
        @functools.wraps(body)
        def run(**options):
            rec = _Recorder(seed)
            try:
                body(rec, random.Random(seed), **options)
            except Exception as exc:
                raise SuiteFault(exc, {"seed": seed, **rec.in_flight}) from exc
            return rec.checks

        return run

    return wrap


def _discrepancy(lhs, rhs):
    """What separates two compared values: both numbers, or lhs - rhs part
    by part (a cochain is its own one part), or both reprs for values with
    no difference (integral classes) or none in one space."""
    if isinstance(lhs, (int, Fraction)):
        return {"lhs": fraction_to_str(lhs), "rhs": fraction_to_str(rhs)}
    try:
        if not isinstance(lhs, DirectSum):
            return {"cochain": cochain_to_json(lhs - rhs)}
        return {n: cochain_to_json(getattr(lhs, n) - getattr(rhs, n)) for n in lhs._parts}
    except (TypeError, ValueError):  # no `-`, or the group law's space mismatch
        return {"lhs": repr(lhs), "rhs": repr(rhs)}


def _raises(error, fn, *args):
    try:
        fn(*args)
    except error:
        return True
    return False


def _surface_fixtures():
    return [
        fixtures.circle(),
        fixtures.sphere(),
        fixtures.torus(),
        fixtures.projective_plane(),
        fixtures.klein_bottle(),
    ]


# -- diagram33 ---------------------------------------------------------------


def curvature_of_iota(eta):
    """(v) The curvature of iota(eta) is d(eta)."""
    yield iota(eta).curvature, coboundary(eta)


def iota_kernel(eta, eta0):
    """(i) iota(eta) has class zero, and is zero exactly when eta is closed
    with integral periods; eta0 is such a cochain."""
    yield char_class(iota(eta)).is_zero()
    yield iota(eta).is_zero() == (is_closed(eta) and has_integral_periods(eta))
    yield iota(eta0).is_zero()


def trivialization_round_trip(h):
    """(ii) A character of class zero, such as iota of h's lift, is iota of
    its trivialization; h has none unless its class is zero."""
    trivial = iota(h.lift)
    yield iota(trivialization(trivial)), trivial
    if not char_class(h).is_zero():
        yield _raises(NoTrivialization, trivialization, h)


def flat_classes(g):
    """(iii) A flat character is the flat character of its holonomy class."""
    yield g.curvature.is_zero()
    yield flat_character(flat_holonomy_class(g)), g


def curvature_lifting(h):
    """(iv) from_curvature is a right inverse of taking curvature."""
    yield from_curvature(h.curvature).curvature, h.curvature


def torsion_formula(h, cycles):
    """evaluate_torsion agrees with evaluate on each cycle of finite order."""
    for j, z in enumerate(cycles):
        if h.complex.homology(z.degree).class_order(z.to_vector()) > 0:
            yield evaluate_torsion(h, z), evaluate(h, z), {"cycle": j}


@_suite(20260813)
def run_diagram33(rec, rng):
    for K in _surface_fixtures():
        for k in (1, 2, 3):
            kernel, triv, flat, lifting, curv = rec.declare(f"{K.name} deg {k}",
                "iota kernel/class", "trivialization", "flat classes", "curvature lifting", "curv of iota")
            for i in range(3):
                at = rec.at(i, K.name, k=k)
                h = random_character(K, k, rng)
                # closed with integral periods: on the nose in the kernel
                if k == 1:
                    c = rng.randint(-3, 3)
                    eta0 = Cochain.from_vector(K, 0, [c] * len(K.simplices(0)))
                else:
                    g0 = random_character(K, k - 1, rng)
                    eta0 = g0.mu + coboundary(g0.lift)
                g = random_flat_character(K, k, rng)
                rec.holds(curv, curvature_of_iota(h.lift), at)
                rec.holds(kernel, iota_kernel(h.lift, eta0), at)
                rec.holds(triv, trivialization_round_trip(h), at)
                rec.holds(flat, flat_classes(g), at)
                rec.holds(lifting, curvature_lifting(h), at)
    # torsion evaluation story on the two nonorientable fixtures
    RP2 = fixtures.projective_plane()
    ju = fixtures.rp2_flat_character()
    at = rec.at(0, RP2.name, k=ju.degree)
    rec.equal("j(u) on torsion loop is 1/2", evaluate(ju, fixtures.torsion_loop()), Fraction(1, 2), at)
    for K in (RP2, fixtures.klein_bottle()):
        (agree,) = rec.declare(K.name, "torsion formula agrees")
        for k in (1, 2):
            cycles = [K.chain_from_vector(k - 1, vec) for vec in K.splitting(k - 1).cycle_basis]
            for i in range(4):
                at = rec.at(i, K.name, k=k)
                rec.holds(agree, torsion_formula(random_character(K, k, rng), cycles), at)


# -- product-axioms ----------------------------------------------------------


def bilinearity(h, h2, f, hf, fh):
    """The internal product is additive in each factor; hf = h f, fh = f h."""
    yield internal_product(h + h2, f), hf + internal_product(h2, f)
    yield internal_product(f, h + h2), fh + internal_product(f, h2)


def associativity(h, f, g, hf):
    """(h f) g = h (f g) on the cochain level: curvature and lift."""
    lhs = internal_product(hf, g)
    rhs = internal_product(h, internal_product(f, g))
    yield lhs.curvature, rhs.curvature
    yield lhs.lift, rhs.lift


def naturality(phi, h, f, hf):
    """Pullback along phi is multiplicative."""
    yield pullback(phi, hf), internal_product(pullback(phi, h), pullback(phi, f))


def multiplicativity(h, f, hf):
    """Class and curvature of hf = h f are the cup products of the factors'."""
    yield char_class(hf), IntegralClass(h.complex, h.degree + f.degree, cup(h.mu, f.mu))
    yield hf.curvature, cup(h.curvature, f.curvature)


def iota_compatibility(rho, f):
    """iota(rho) f = iota(rho cup curv f)."""
    yield internal_product(iota(rho), f), iota(cup(rho, f.curvature))


def flat_compatibility(u, f):
    """A flat character times f is flat: j(u) f = j(u cup mu_f)."""
    yield internal_product(flat_character(u), f), flat_character(cup(u, f.mu))


def commutativity_defect(h, f, hf, fh):
    """hf - (-1)^(kl) fh has class zero, is iota of its trivialization,
    and has curvature (-1)^(k+l+kl) d(curv f cup_1 curv h), which is
    -d(curv f cup_1 curv h) unless k and l are both even."""
    k, l = h.degree, f.degree
    defect = hf - fh.scale(-1 if k * l % 2 else 1)
    yield char_class(defect).is_zero()
    yield defect, iota(trivialization(defect))
    sign = -1 if (k + l + k * l) % 2 else 1
    yield defect.curvature, coboundary(cup_1(f.curvature, h.curvature)).scale(sign)


def _monotone_maps_into(K):
    """A few order-preserving maps with target K, for naturality checks."""
    maps = []
    pt = fixtures.point()
    iv = fixtures.interval()
    if K.simplices(1):
        e = K.simplices(1)[0]
        maps.append(SimplicialMap(iv, K, [e[0], e[1]]))
    maps.append(SimplicialMap(pt, K, [0]))
    maps.append(SimplicialMap(K, K, [0] * K.num_vertices))
    return maps


@_suite(9157)
def run_product_axioms(rec, rng, instances=100):
    for K in _surface_fixtures():
        bilinear, assoc, natural, mult, iota_compat, flat_compat, commut = rec.declare(
            K.name, "bilinearity", "associativity", "naturality", "class and curvature multiplicative",
            "iota compatibility", "flat compatibility", "commutativity defect")
        maps = _monotone_maps_into(K)
        for i in range(instances):
            k = rng.choice([1, 2])
            l = rng.choice([1, 2])
            rec.at(i, K.name, k=k, l=l)
            h = random_character(K, k, rng)
            h2 = random_character(K, k, rng)
            f = random_character(K, l, rng)
            m = rng.choice([1, 2])
            at = rec.at(i, K.name, k=k, l=l, m=m)
            g = random_character(K, m, rng)
            phi = maps[rng.randrange(len(maps))]
            u = random_flat_character(K, k, rng).lift
            hf, fh = internal_product(h, f), internal_product(f, h)
            rec.holds(bilinear, bilinearity(h, h2, f, hf, fh), at)
            rec.holds(assoc, associativity(h, f, g, hf), at)
            rec.holds(natural, naturality(phi, h, f, hf), at)
            rec.holds(mult, multiplicativity(h, f, hf), at)
            rec.holds(iota_compat, iota_compatibility(h2.lift, f), at)
            rec.holds(flat_compat, flat_compatibility(u, f), at)
            rec.holds(commut, commutativity_defect(h, f, hf, fh), at)


# -- bb-oracle ---------------------------------------------------------------


def bb_formula(h, f, product, cycles):
    """bb_evaluate(h, f, z) is the external product h x f evaluated on z,
    for each cycle z of the product."""
    hf = external_product(h, f, product)
    for j, z in enumerate(cycles):
        yield bb_evaluate(h, f, z, product=product), evaluate(hf, z), {"cycle": j}


@_suite(40961)
def run_bb_oracle(rec, rng):
    S1 = fixtures.circle()
    configs = [
        (fixtures.torus(), S1, fixtures.circle(), 1, 1),
        (staircase_product(S1, fixtures.projective_plane()), S1,
         fixtures.projective_plane(), 1, 1),
        (staircase_product(S1, fixtures.projective_plane()), S1,
         fixtures.projective_plane(), 1, 2),
    ]
    for P, L, R, k, kp in configs:
        degree = k + kp - 1
        (formula,) = rec.declare(f"{P.name} k={k} k'={kp}", f"bb formula on Z_{degree} basis")
        cycles = [P.chain_from_vector(degree, vec) for vec in P.splitting(degree).cycle_basis]
        for i in range(2):
            at = rec.at(i, P.name, k=k, kp=kp)
            h = random_character(L, k, rng)
            f = random_character(R, kp, rng)
            rec.holds(formula, bb_formula(h, f, P, cycles), at)


# -- fiber-axioms ------------------------------------------------------------


def fiber_curvature(h, tr):
    """The curvature of the fiber integral is the slant of the curvature."""
    yield fiber_integrate(h, tr).curvature, slant_fiber(h.curvature, tr.fiber_chain)


def fiber_iota(b, tr):
    """The fiber integral of iota(b) is iota of the slant of b."""
    yield fiber_integrate(iota(b), tr), iota(slant_fiber(b, tr.fiber_chain))


def orientation_reversal(h, tr):
    """Reversing the fiber chain negates the fiber integral."""
    yield fiber_integrate(h, TransferData(tr.total, tr.fiber_chain.scale(-1))), -fiber_integrate(h, tr)


def fiber_naturality(g, h, tr):
    """Integration commutes with pullback along g x id, for g into the base."""
    EY = staircase_product(g.source, tr.fiber)
    gx = product_map(g, identity_map(tr.fiber), EY, tr.total)
    yield (fiber_integrate(pullback(gx, h), TransferData(EY, tr.fiber_chain)),
           pullback(g, fiber_integrate(h, tr)))


def iterated_fibers(h):
    """On (X x F1) x F2, integrating over F2 and then F1 is integrating over
    F1 x F2 after rebracketing to X x (F1 x F2)."""
    nested = h.complex
    XF1, F2 = nested.left, nested.right
    FF = staircase_product(XF1.right, F2)
    flat = staircase_product(XF1.left, FF)
    c1, c2 = fundamental_cycle(XF1.right), fundamental_cycle(F2)
    lhs = fiber_integrate(fiber_integrate(h, TransferData(nested, c2)), TransferData(XF1, c1))
    rebracketed = pullback(rebracket_map(flat, nested), h)
    yield lhs, fiber_integrate(rebracketed, TransferData(flat, ez(c1, c2, FF)))


@_suite(7321)
def run_fiber_axioms(rec, rng):
    S1 = fixtures.circle()
    bases = [S1, fixtures.torus()]
    fibers = [fixtures.point(), fixtures.two_points(), S1]
    for base in bases:
        for F in fibers:
            E = staircase_product(base, F)
            tr = product_transfer(base, F, total=E)
            n = tr.fiber_degree
            curv, iota_compat, reversal, natural = rec.declare(f"{base.name} x {F.name}",
                "curvature compatibility", "iota compatibility", "orientation reversal", "naturality")
            for k in (n + 1, n + 2):
                for i in range(3):
                    at = rec.at(i, E.name, k=k)
                    h = random_character(E, k, rng)
                    b = random_character(E, k, rng).lift
                    rec.holds(curv, fiber_curvature(h, tr), at)
                    rec.holds(iota_compat, fiber_iota(b, tr), at)
                    rec.holds(reversal, orientation_reversal(h, tr), at)
            for i, g in enumerate(_monotone_maps_into(base)):
                at = rec.at(i, E.name, k=n + 1)
                rec.holds(natural, fiber_naturality(g, random_character(E, n + 1, rng), tr), at)
    for i, (F1, F2) in enumerate([(fixtures.point(), S1), (fixtures.two_points(), S1),
                                  (S1, fixtures.point()), (S1, S1)]):
        nested = staircase_product(staircase_product(S1, F1), F2)
        at = rec.at(i, nested.name, k=F1.dim + F2.dim + 1)
        h = random_character(nested, F1.dim + F2.dim + 1, rng)
        rec.holds("functoriality of iterated fibers", iterated_fibers(h), at)
    # the bundled example: integrating the torus character gives the circle one
    T2 = fixtures.torus()
    at = rec.at(0, T2.name, k=2)
    tr = product_transfer(S1, S1, total=T2)
    rec.equal("integrating i x i over the second circle returns i",
              fiber_integrate(fixtures.torus_character(), tr), fixtures.winding_character(), at)


# -- boundary-fiber ----------------------------------------------------------


def boundary_integral_is_iota(h, tr, out):
    """Over an interval fiber, the boundary integral of out, the result of
    boundary_fiber_integrate(h, tr), is iota of (-1)^(k-1) times the
    curvature integral."""
    sign = -1 if (h.degree - 1) % 2 else 1
    yield out.over_boundary, iota(slant_fiber(h.curvature, tr.fiber_chain).scale(sign))


def boundary_relative_projects(out):
    """The relative output projects to the boundary integral."""
    yield project(out.relative), out.over_boundary


def endpoint_quotient(h, tr, out):
    """In degree 1 over the interval, the boundary integral is h at the top
    end minus h at the bottom one."""
    if h.degree == 1:
        top, bottom = (pullback(tr.total.include_at_right(v), h) for v in (1, 0))
        yield out.over_boundary, top - bottom


@_suite(5077)
def run_boundary_fiber(rec, rng, instances=50):
    iv = fixtures.interval()
    for base in (fixtures.circle(), fixtures.torus()):
        E = staircase_product(base, iv)
        tr = product_transfer(base, iv, fiber_chain=fundamental_cycle(iv), total=E)
        iota_form, proj, endpoints = rec.declare(
            base.name, "boundary integral is iota of the curvature integral",
            "relative output projects to the boundary integral", "degree-1 endpoint quotient")
        for i in range(instances):
            k = rng.choice([1, 2])
            at = rec.at(i, E.name, k=k)
            h = random_character(E, k, rng)
            out = boundary_fiber_integrate(h, tr)
            rec.holds(iota_form, boundary_integral_is_iota(h, tr, out), at)
            rec.holds(proj, boundary_relative_projects(out), at)
            rec.holds(endpoints, endpoint_quotient(h, tr, out), at)


# -- updown ------------------------------------------------------------------


def projection_formula(h, f, tr):
    """Integrating pi^*(h) f over the fiber gives h times the integral of f."""
    pulled = pullback(tr.total.projection_left(), h)
    yield fiber_integrate(internal_product(pulled, f), tr), internal_product(h, fiber_integrate(f, tr))


def fiber_product_formula(h, f, tr, tr2, combined):
    """Over circle fibers, integrating h x f over the combined transfer
    (`combined_transfer(tr, tr2)`, built once by the caller) is the product
    of the two fiber integrals, negated when deg f is even."""
    comb, swap = combined
    lhs = fiber_integrate(pullback(swap, external_product(h, f, swap.target)), comb)
    rhs = external_product(fiber_integrate(h, tr), fiber_integrate(f, tr2), comb.total.left)
    yield lhs, (-rhs if (f.degree - 1) % 2 else rhs)


@_suite(66191)
def run_updown(rec, rng):
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    tr = product_transfer(S1, S1, total=T2)
    for k in (1, 2):
        for l in (1, 2):
            for i in range(3):
                at = rec.at(i, T2.name, k=k, l=l)
                h = random_character(S1, k, rng)
                f = random_character(T2, l, rng)
                rec.holds(f"projection formula k={k} l={l}", projection_formula(h, f, tr), at)
    combined = combined_transfer(tr, tr)
    for k in (1, 2):
        for l in (1, 2):
            at = rec.at(0, T2.name, k=k, l=l)
            h = random_character(T2, k, rng)
            f = random_character(T2, l, rng)
            rec.holds(f"fiber product formula k={k} l={l}",
                      fiber_product_formula(h, f, tr, tr, combined), at)


# -- relative-exact ----------------------------------------------------------


def section_gate(h, cone):
    """h has a section over the cone exactly when its class pulls back to
    zero on A; otherwise NoSection carries the nonzero obstruction."""
    A = cone.phi.source
    pulled = IntegralClass(A, h.degree, pullback_cochain(cone.phi, h.mu))
    try:
        find_section(h, cone)
    except NoSection as exc:
        yield not pulled.is_zero()
        yield not exc.witness.is_zero()
    else:
        yield pulled.is_zero()


def section_projects(h, cone):
    """A section projects to the character it lifts."""
    try:
        s = find_section(h, cone)
    except NoSection:
        return
    yield project(s), h


def inclusion_in_kernel(g, cone):
    """Flat inclusion lands in the kernel of the projection."""
    yield project(incl_flat(g, cone)).is_zero()


def kernel_descends(f):
    """A relative character in the kernel of the projection is incl_flat of
    its descent."""
    yield incl_flat(descend_kernel(f), f.cone), f


def equal_cov_sections(h, g, cone):
    """For h with a section s (iota of a cochain always has one) and a flat
    g, s and s + incl_flat(g) have equal covariant parts; where the
    pushforward is injective two degrees below h, they coincide."""
    if pushforward_injective(cone.phi, h.degree - 2):
        s1 = find_section(h, cone)
        s2 = s1 + incl_flat(g, cone)
        yield s2.cov, s1.cov
        yield s2, s1


@_suite(31511)
def run_relative_exact(rec, rng):
    pairs = [
        ("equator in S2_4p", fixtures.equator_cone()),
        ("torsion loop in RP2_6", fixtures.torsion_loop_cone()),
    ]
    for label, cone in pairs:
        X, A = cone.phi.target, cone.phi.source
        gate, proj, kernel, descend = rec.declare(
            label, "section exists iff class pulls back to zero", "sections project to the input",
            "inclusion lands in the projection kernel", "kernel instances descend")
        for k in (1, 2):
            for i in range(8):
                at = rec.at(i, label, k=k)
                h = random_character(X, k, rng)
                g = random_character(A, k, rng)
                rec.holds(gate, section_gate(h, cone), at)
                rec.holds(proj, section_projects(h, cone), at)
                rec.holds(kernel, inclusion_in_kernel(g, cone), at)
                rec.holds(descend, kernel_descends(incl_flat(g, cone)), at)
    # both outcomes must actually occur: the identity cone on RP2_6 with the
    # flat order-2 character is obstructed, the suspension pair never is
    RP2 = fixtures.projective_plane()
    cone_id = mapping_cone(identity_map(RP2))
    on_id = "identity cone on RP2_6"
    ju = fixtures.rp2_flat_character()
    both = "order-2 class obstructs, its double does not"
    at = rec.at(0, on_id, k=ju.degree)
    try:
        find_section(ju, cone_id)
    except NoSection as exc:
        rec.check(both, not exc.witness.is_zero(), at)
    else:
        rec.check(both, False, at)
    at = rec.at(1, on_id, k=ju.degree)
    rec.check(both, not _raises(NoSection, find_section, ju + ju, cone_id), at)
    # uniqueness: for degree-k sections the hypothesis is injectivity of the
    # pushforward two degrees down; the identity cone is the clean instance
    unique = "sections with equal covariant part coincide (injective pushforward)"
    at = rec.at(0, on_id)
    rec.check(unique, pushforward_injective(identity_map(RP2), 0)
              and pushforward_injective(identity_map(RP2), 1), at)
    for k in (2, 3):
        for i in range(4):
            at = rec.at(i, on_id, k=k)
            h = iota(random_character(RP2, k, rng).lift)
            g = random_flat_character(RP2, k - 1, rng)
            rec.holds(unique, equal_cov_sections(h, g, cone_id), at)
    # non-injective contrast: a flat circle character whose class does not
    # extend over the suspension feeds a nonzero kernel element with zero
    # covariant part, so equal-cov sections are not unique there
    cone_eq = fixtures.equator_cone()
    S1 = fixtures.circle()
    eta13 = Cochain.from_vector(
        S1, 1, [Fraction(1, 3) if e == (0, 1) else Fraction(0) for e in S1.simplices(1)]
    )
    flat_g = DiffChar(zero_cochain(S1, 2), eta13)
    at = rec.at(0, "equator in S2_4p", k=flat_g.degree)
    wobble = incl_flat(flat_g, cone_eq)
    rec.check("non-injective pushforward admits distinct equal-cov sections",
              (not wobble.is_zero()) and wobble.cov.is_zero()
              and not pushforward_injective(cone_eq.phi, 1), at)
    # the q/z long exact sequence junction: vanishing inclusion means the
    # flat class is pulled back
    junction = "pulled-back test separates extendable flat classes"
    for i in range(5):
        at = rec.at(i, on_id, k=2)
        u = flat_holonomy_class(random_flat_character(RP2, 2, rng))
        rec.check(junction, flat_class_pulled_back(u, identity_map(RP2)), at)
    # the winding class does not extend over the disk directions
    at = rec.at(0, "equator in S2_4p", k=flat_g.degree)
    rec.check(junction, not flat_class_pulled_back(flat_holonomy_class(flat_g), cone_eq.phi), at)


# -- holonomy ----------------------------------------------------------------


@_suite(8887)
def run_holonomy(rec, rng):
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    hh = fixtures.torus_character()
    on_T2 = rec.at(0, T2.name, k=hh.degree)
    z = fixtures.circle_cycle()
    emb1 = T2.include_at_right(0)
    emb2 = T2.include_at_left(0)
    rec.equal("holonomy along the first circle factor", holonomy(hh, emb1, z), 0, on_T2)
    rec.equal("holonomy along the second circle factor", holonomy(hh, emb2, z), 0, on_T2)
    collapse = SimplicialMap(S1, T2, [T2.encode(0, 0)] * 3)
    rec.equal("collapsed image has zero holonomy", holonomy(hh, collapse, z), 0, on_T2)
    # disjoint union of two circles: holonomy adds
    two_circles = Complex(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], "S1+S1")
    zz = fundamental_cycle(two_circles)
    sheets = SimplicialMap(two_circles, T2, [T2.encode(u, 0) for u in (0, 1, 2)] + [T2.encode(u, 1) for u in (0, 1, 2)])
    lift_sum = holonomy(hh, sheets, zz)
    part1 = holonomy(hh, T2.include_at_right(0), z)
    part2 = holonomy(hh, T2.include_at_right(1), z)
    rec.equal("holonomy additive over disjoint union", lift_sum, (part1 + part2) % 1, on_T2)
    # transition factors: flat degree-2 characters on the circle are exactly
    # parallel transports along paths
    eta = random_character(S1, 2, rng).lift
    h2 = iota(eta)
    on_S1 = rec.at(0, S1.name, k=h2.degree)
    iv = fixtures.interval()
    cI = fundamental_cycle(iv)
    path2 = fixtures.path_complex(2)
    cP = fundamental_cycle(path2)
    direct = Filling(SimplicialMap(iv, S1, [0, 1]), cI)
    around = Filling(SimplicialMap(path2, S1, [0, 2, 1]), cP)
    stopover = Filling(SimplicialMap(path2, S1, [0, 1, 1]), cP)
    fac = transition_factor(h2, around, direct)
    rec.equal("edge-path factor is the loop pairing", fac, pair(eta, z) % 1, on_S1)
    rec.equal("factor of a filling against itself", transition_factor(h2, direct, direct), 0, on_S1)
    t_ab = transition_factor(h2, direct, around)
    t_bc = transition_factor(h2, around, stopover)
    t_ac = transition_factor(h2, direct, stopover)
    rec.equal("cocycle law over three fillings", (t_ab + t_bc) % 1, t_ac, on_S1)
    unit = hermitian_pairing(h2, direct, Phased(Fraction(1), Fraction(0)), direct, Phased(Fraction(1), Fraction(0)))
    rec.check("pairing of a filling with itself is the unit",
              unit.modulus == 1 and unit.phase == 0, on_S1)
    c1 = Phased(Fraction(2), Fraction(1, 3))
    c2 = Phased(Fraction(3, 2), Fraction(1, 4))
    amp = hermitian_pairing(h2, direct, c1, around, c2)
    rec.equal("pairing phase is the transition factor plus coefficient phases",
              amp.phase, (c1.phase - c2.phase + transition_factor(h2, around, direct)) % 1, on_S1)
    # equivalence invariance: replace (direct, c) by the around-filling with
    # the transported coefficient
    moved = Phased(Fraction(1), transition_factor(h2, around, direct))
    inv = hermitian_pairing(h2, around, moved, direct, Phased(Fraction(1), Fraction(0)))
    base_amp = hermitian_pairing(h2, direct, Phased(Fraction(1), Fraction(0)), direct, Phased(Fraction(1), Fraction(0)))
    rec.check("pairing invariant under equivalent replacement",
              inv.modulus == base_amp.modulus and inv.phase == base_amp.phase, on_S1)
    # cobordism: a cylinder in the torus between two parallel circles; the
    # holonomy difference of the ends is the curvature flux through it
    on_T2 = rec.at(0, T2.name, k=hh.degree)
    W = staircase_product(S1, iv)
    incl = SimplicialMap(iv, S1, [0, 1])
    Phi = product_map(identity_map(S1), incl, W, T2)
    cW = fundamental_cycle(W)
    ends = Phi.push_chain(cW.boundary())
    top_cycle = T2.include_at_right(1).push_chain(z)
    bottom_cycle = T2.include_at_right(0).push_chain(z)
    rec.check("cylinder boundary is the two end circles",
              ends in (top_cycle - bottom_cycle, bottom_cycle - top_cycle), on_T2)
    rec.equal("holonomy difference of the ends equals the flux",
              evaluate(hh, ends), pair(hh.curvature, Phi.push_chain(cW)) % 1, on_T2)


SUITES = {
    "diagram33": run_diagram33,
    "product-axioms": run_product_axioms,
    "bb-oracle": run_bb_oracle,
    "fiber-axioms": run_fiber_axioms,
    "boundary-fiber": run_boundary_fiber,
    "updown": run_updown,
    "relative-exact": run_relative_exact,
    "holonomy": run_holonomy,
}


def suite_names():
    return sorted(SUITES)


def run_suite(name):
    try:
        runner = SUITES[name]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}"
        ) from None
    return _Recorder.report(name, runner())
