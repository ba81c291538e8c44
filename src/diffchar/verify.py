"""Verification suites: the executable form of the library's contracts.

Each suite runs a deterministic batch of identity checks (fixed seeds, fixed
fixture order) and hands every condition it evaluates to one `_Recorder`,
with the check's name and the instance; a check passes when all of its
conditions hold.  Its first failing condition becomes its witness: the suite
seed, the instance index, the fixture and the degrees drawn, and, for two
compared cochains or characters (any `DirectSum` of cochains), lhs - rhs part
by part as JSON cochains.  Nothing is built for a condition that holds.
A suite that raises stops with a `SuiteFault` naming the instance in flight.
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

    def check(self, name, passed, instance, compared=None):
        """Record one condition of check `name`; returns whether it holds."""
        entry = self._entries.setdefault(name, {"name": name, "pass": True})
        if not passed and entry["pass"]:
            entry["pass"] = False
            entry["witness"] = {"seed": self.seed, **instance}
            if compared is not None:
                entry["witness"]["discrepancy"] = _discrepancy(*compared)
        return bool(passed)

    def equal(self, name, lhs, rhs, instance):
        """Record the condition lhs == rhs of check `name`."""
        return self.check(name, lhs == rhs, instance, (lhs, rhs))

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


def _surface_fixtures():
    return [
        fixtures.circle(),
        fixtures.sphere(),
        fixtures.torus(),
        fixtures.projective_plane(),
        fixtures.klein_bottle(),
    ]


# -- diagram33 ---------------------------------------------------------------


@_suite(20260813)
def run_diagram33(rec, rng):
    for K in _surface_fixtures():
        for k in (1, 2, 3):
            kernel, triv, flat, lifting, curv = rec.declare(f"{K.name} deg {k}",
                "iota kernel/class", "trivialization", "flat classes", "curvature lifting", "curv of iota")
            for i in range(3):
                at = rec.at(i, K.name, k=k)
                h = random_character(K, k, rng)
                eta = h.lift
                # (v) curvature of iota is the coboundary
                rec.equal(curv, iota(eta).curvature, coboundary(eta), at)
                # (i) class of iota vanishes; iota kills exactly the closed
                # integral-period cochains
                rec.check(kernel, char_class(iota(eta)).is_zero(), at)
                vanish = iota(eta).is_zero()
                flatness = is_closed(eta) and has_integral_periods(eta)
                rec.check(kernel, vanish == flatness, at)
                # closed with integral periods: on the nose in the kernel
                if k == 1:
                    c = rng.randint(-3, 3)
                    eta0 = Cochain.from_vector(K, 0, [c] * len(K.simplices(0)))
                else:
                    g0 = random_character(K, k - 1, rng)
                    eta0 = g0.mu + coboundary(g0.lift)
                rec.check(kernel, iota(eta0).is_zero(), at)
                # (ii) class zero means a trivialization exists and round-trips
                triv_h = iota(eta)
                rec.equal(triv, iota(trivialization(triv_h)), triv_h, at)
                if not char_class(h).is_zero():
                    try:
                        trivialization(h)
                    except NoTrivialization:
                        pass
                    else:
                        rec.check(triv, False, at)
                # (iii) flat characters are exactly the circle-class ones
                g = random_flat_character(K, k, rng)
                rec.check(flat, g.curvature.is_zero(), at)
                rec.equal(flat, flat_character(flat_holonomy_class(g)), g, at)
                # (iv) from_curvature is a right inverse of taking curvature
                rec.equal(lifting, from_curvature(h.curvature).curvature, h.curvature, at)
    # torsion evaluation story on the two nonorientable fixtures
    RP2 = fixtures.projective_plane()
    z = fixtures.torsion_loop()
    ju = fixtures.rp2_flat_character()
    at = rec.at(0, RP2.name, k=ju.degree)
    rec.equal("j(u) on torsion loop is 1/2", evaluate(ju, z), Fraction(1, 2), at)
    for K in (RP2, fixtures.klein_bottle()):
        (agree,) = rec.declare(K.name, "torsion formula agrees")
        for k in (1, 2):
            basis = K.splitting(k - 1).cycle_basis
            for i in range(4):
                at = rec.at(i, K.name, k=k)
                h = random_character(K, k, rng)
                for j, vec in enumerate(basis):
                    zz = K.chain_from_vector(k - 1, vec)
                    order = K.homology(k - 1).class_order(zz.to_vector())
                    if order > 0:
                        rec.equal(agree, evaluate_torsion(h, zz), evaluate(h, zz),
                                  dict(at, cycle=j))


# -- product-axioms ----------------------------------------------------------


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
            hf = internal_product(h, f)
            rec.equal(bilinear, internal_product(h + h2, f), hf + internal_product(h2, f), at)
            rec.equal(bilinear, internal_product(f, h + h2),
                      internal_product(f, h) + internal_product(f, h2), at)
            lhs = internal_product(hf, g)
            rhs = internal_product(h, internal_product(f, g))
            rec.equal(assoc, lhs.curvature, rhs.curvature, at)
            rec.equal(assoc, lhs.lift, rhs.lift, at)
            phi = maps[rng.randrange(len(maps))]
            rec.equal(natural, pullback(phi, hf),
                      internal_product(pullback(phi, h), pullback(phi, f)), at)
            rec.equal(mult, char_class(hf), IntegralClass(K, k + l, cup(h.mu, f.mu)), at)
            rec.equal(mult, hf.curvature, cup(h.curvature, f.curvature), at)
            rho = h2.lift
            rec.equal(iota_compat, internal_product(iota(rho), f), iota(cup(rho, f.curvature)), at)
            u = random_flat_character(K, k, rng).lift
            rec.equal(flat_compat, internal_product(flat_character(u), f),
                      flat_character(cup(u, f.mu)), at)
            sign = -1 if (k * l) % 2 else 1
            defect = hf - internal_product(f, h).scale(sign)
            if (rec.check(commut, char_class(defect).is_zero(), at)
                    and rec.equal(commut, defect, iota(trivialization(defect)), at)):
                rec.equal(commut, defect.curvature,
                          coboundary(cup_1(f.curvature, h.curvature)).scale(-1), at)


# -- bb-oracle ---------------------------------------------------------------


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
        basis = P.splitting(degree).cycle_basis
        for i in range(2):
            at = rec.at(i, P.name, k=k, kp=kp)
            h = random_character(L, k, rng)
            f = random_character(R, kp, rng)
            hf = external_product(h, f, P)
            for j, vec in enumerate(basis):
                z = P.chain_from_vector(degree, vec)
                rec.equal(formula, bb_evaluate(h, f, z, product=P), evaluate(hf, z),
                          dict(at, cycle=j))


# -- fiber-axioms ------------------------------------------------------------


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
                    ph = fiber_integrate(h, tr)
                    rec.equal(curv, ph.curvature, slant_fiber(h.curvature, tr.fiber_chain), at)
                    b = random_character(E, k, rng).lift
                    rec.equal(iota_compat, fiber_integrate(iota(b), tr),
                              iota(slant_fiber(b, tr.fiber_chain)), at)
                    rev = product_transfer(base, F, fiber_chain=tr.fiber_chain.scale(-1), total=E)
                    rec.equal(reversal, fiber_integrate(h, rev), -ph, at)
            for i, g in enumerate(_monotone_maps_into(base)):
                at = rec.at(i, E.name, k=n + 1)
                Y = g.source
                EY = staircase_product(Y, F)
                gx = product_map(g, identity_map(F), EY, E)
                trY = product_transfer(Y, F, fiber_chain=tr.fiber_chain, total=EY)
                h = random_character(E, n + 1, rng)
                rec.equal(natural, fiber_integrate(pullback(gx, h), trY),
                          pullback(g, fiber_integrate(h, tr)), at)
    # functoriality of iterated integration
    for i, (F1, F2) in enumerate([(fixtures.point(), S1), (fixtures.two_points(), S1),
                                  (S1, fixtures.point()), (S1, S1)]):
        XF1 = staircase_product(S1, F1)
        nested = staircase_product(XF1, F2)
        rec.at(i, nested.name)
        FF = staircase_product(F1, F2)
        flat = staircase_product(S1, FF)
        rb = rebracket_map(flat, nested)
        c1, c2 = fundamental_cycle(F1), fundamental_cycle(F2)
        k = c1.degree + c2.degree + 1
        at = rec.at(i, nested.name, k=k)
        h = random_character(nested, k, rng)
        lhs = fiber_integrate(fiber_integrate(h, TransferData(nested, c2)), TransferData(XF1, c1))
        rhs = fiber_integrate(pullback(rb, h), TransferData(flat, ez(c1, c2, FF)))
        rec.equal("functoriality of iterated fibers", lhs, rhs, at)
    # the bundled example: integrating the torus character gives the circle one
    T2 = fixtures.torus()
    at = rec.at(0, T2.name, k=2)
    tr = product_transfer(S1, S1, total=T2)
    rec.equal("integrating i x i over the second circle returns i",
              fiber_integrate(fixtures.torus_character(), tr), fixtures.winding_character(), at)


# -- boundary-fiber ----------------------------------------------------------


@_suite(5077)
def run_boundary_fiber(rec, rng, instances=50):
    iv = fixtures.interval()
    cI = fundamental_cycle(iv)
    for base in (fixtures.circle(), fixtures.torus()):
        E = staircase_product(base, iv)
        tr = product_transfer(base, iv, fiber_chain=cI, total=E)
        iota_form, proj, endpoints = rec.declare(
            base.name, "boundary integral is iota of the curvature integral",
            "relative output projects to the boundary integral", "degree-1 endpoint quotient")
        for i in range(instances):
            k = rng.choice([1, 2])
            at = rec.at(i, E.name, k=k)
            h = random_character(E, k, rng)
            out = boundary_fiber_integrate(h, tr)
            sign = -1 if (k - 1) % 2 else 1
            rec.equal(iota_form, out.over_boundary,
                      iota(slant_fiber(h.curvature, cI).scale(sign)), at)
            rec.equal(proj, project(out.relative), out.over_boundary, at)
            if k == 1:
                top = pullback(E.include_at_right(1), h)
                bottom = pullback(E.include_at_right(0), h)
                rec.equal(endpoints, out.over_boundary, top - bottom, at)


# -- updown ------------------------------------------------------------------


@_suite(66191)
def run_updown(rec, rng):
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    tr = product_transfer(S1, S1, total=T2)
    pi = T2.projection_left()
    for k in (1, 2):
        for l in (1, 2):
            for i in range(3):
                at = rec.at(i, T2.name, k=k, l=l)
                h = random_character(S1, k, rng)
                f = random_character(T2, l, rng)
                lhs = fiber_integrate(internal_product(pullback(pi, h), f), tr)
                rhs = internal_product(h, fiber_integrate(f, tr))
                rec.equal(f"projection formula k={k} l={l}", lhs, rhs, at)
    comb, swap = combined_transfer(tr, tr)
    base_prod = comb.total.left
    for k in (1, 2):
        for l in (1, 2):
            at = rec.at(0, T2.name, k=k, l=l)
            h = random_character(T2, k, rng)
            f = random_character(T2, l, rng)
            hf = external_product(h, f, swap.target)
            lhs = fiber_integrate(pullback(swap, hf), comb)
            rhs = external_product(fiber_integrate(h, tr), fiber_integrate(f, tr), base_prod)
            if (l - 1) % 2:
                rhs = -rhs
            rec.equal(f"fiber product formula k={k} l={l}", lhs, rhs, at)


# -- relative-exact ----------------------------------------------------------


@_suite(31511)
def run_relative_exact(rec, rng):
    pairs = [
        ("equator in S2_4p", fixtures.equator_cone()),
        ("torsion loop in RP2_6", fixtures.torsion_loop_cone()),
    ]
    for label, cone in pairs:
        phi = cone.phi
        X, A = phi.target, phi.source
        gate, proj, kernel, descend = rec.declare(
            label, "section exists iff class pulls back to zero", "sections project to the input",
            "inclusion lands in the projection kernel", "kernel instances descend")
        for k in (1, 2):
            for i in range(8):
                at = rec.at(i, label, k=k)
                h = random_character(X, k, rng)
                pulled = IntegralClass(A, k, pullback_cochain(phi, h.mu))
                try:
                    s = find_section(h, cone)
                except NoSection as exc:
                    rec.check(gate, not pulled.is_zero(), at)
                    rec.check(gate, not exc.witness.is_zero(), at)
                else:
                    rec.check(gate, pulled.is_zero(), at)
                    rec.equal(proj, project(s), h, at)
                # every kernel instance descends and the round trip closes
                g = random_character(A, k, rng)
                f = incl_flat(g, cone)
                rec.check(kernel, project(f).is_zero(), at)
                back = descend_kernel(f)
                rec.equal(descend, incl_flat(back, cone), f, at)
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
    try:
        find_section(ju + ju, cone_id)
    except NoSection:
        rec.check(both, False, at)
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
            s1 = find_section(h, cone_id)
            g = random_flat_character(RP2, k - 1, rng)
            s2 = s1 + incl_flat(g, cone_id)
            if rec.equal(unique, s2.cov, s1.cov, at):
                rec.equal(unique, s2, s1, at)
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
