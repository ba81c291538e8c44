"""Verification suites: the executable form of the library's contracts.

Each suite runs a deterministic batch of identity checks (fixed seeds, fixed
fixture order) and returns a structured report.  A check that fails carries
a witness dict with enough data to reproduce it; the CLI turns the overall
result into its exit status.
"""

from __future__ import annotations

import random
from fractions import Fraction

from diffchar import fixtures
from diffchar.simplicial import (
    Complex,
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
    LowDegreeChar,
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
from diffchar.products import (
    bb_evaluate,
    external_product,
    internal_product,
)
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
from diffchar.io import cochain_to_json


class UnknownSuite(KeyError):
    """The requested verification suite does not exist."""


def _check(name, passed, witness=None):
    entry = {"name": name, "pass": bool(passed)}
    if witness is not None and not passed:
        entry["witness"] = witness
    return entry


def _surface_fixtures():
    return [
        fixtures.circle(),
        fixtures.sphere(),
        fixtures.torus(),
        fixtures.projective_plane(),
        fixtures.klein_bottle(),
    ]


# -- diagram33 ---------------------------------------------------------------


def run_diagram33():
    checks = []
    rng = random.Random(20260813)
    for K in _surface_fixtures():
        for k in (1, 2, 3):
            ok_i = ok_ii = ok_iii = ok_iv = ok_v = True
            for _ in range(3):
                h = random_character(K, k, rng)
                eta = h.lift
                # (v) curvature of iota is the coboundary
                ok_v = ok_v and iota(eta).curvature == coboundary(eta)
                # (i) class of iota vanishes; iota kills exactly the closed
                # integral-period cochains
                ok_i = ok_i and char_class(iota(eta)).is_zero()
                vanish = iota(eta).is_zero()
                flatness = is_closed(eta) and has_integral_periods(eta)
                ok_i = ok_i and (vanish == flatness)
                # closed with integral periods: on the nose in the kernel
                if k == 1:
                    c = rng.randint(-3, 3)
                    eta0 = Cochain.from_vector(
                        K, 0, [Fraction(c)] * len(K.simplices(0))
                    )
                else:
                    g0 = random_character(K, k - 1, rng)
                    eta0 = Cochain.from_vector(
                        K, k - 1, [Fraction(x) for x in g0.mu.to_vector()]
                    ) + coboundary(g0.lift)
                ok_i = ok_i and iota(eta0).is_zero()
                # (ii) class zero means a trivialization exists and round-trips
                triv_h = iota(eta)
                eta2 = trivialization(triv_h)
                ok_ii = ok_ii and iota(eta2) == triv_h
                if not char_class(h).is_zero():
                    try:
                        trivialization(h)
                        ok_ii = False
                    except NoTrivialization:
                        pass
                # (iii) flat characters are exactly the circle-class ones
                g = random_flat_character(K, k, rng)
                ok_iii = ok_iii and g.curvature.is_zero()
                ok_iii = ok_iii and flat_character(flat_holonomy_class(g)) == g
                # (iv) from_curvature is a right inverse of taking curvature
                ok_iv = ok_iv and from_curvature(h.curvature).curvature == h.curvature
            label = f"{K.name} deg {k}"
            checks.append(_check(f"iota kernel/class [{label}]", ok_i))
            checks.append(_check(f"trivialization [{label}]", ok_ii))
            checks.append(_check(f"flat classes [{label}]", ok_iii))
            checks.append(_check(f"curvature lifting [{label}]", ok_iv))
            checks.append(_check(f"curv of iota [{label}]", ok_v))
    # torsion evaluation story on the two nonorientable fixtures
    RP2 = fixtures.projective_plane()
    z = fixtures.torsion_loop()
    ju = fixtures.rp2_flat_character()
    checks.append(_check("j(u) on torsion loop is 1/2", evaluate(ju, z) == Fraction(1, 2)))
    for K in (RP2, fixtures.klein_bottle()):
        agree = True
        for k in (1, 2):
            basis = K.splitting(k - 1).cycle_basis
            for _ in range(4):
                h = random_character(K, k, rng)
                for vec in basis:
                    zz = K.chain_from_vector(k - 1, vec)
                    order = K.homology(k - 1).class_order(zz.to_vector())
                    if order > 0 and evaluate_torsion(h, zz) != evaluate(h, zz):
                        agree = False
        checks.append(_check(f"torsion formula agrees [{K.name}]", agree))
    return checks


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


def run_product_axioms(instances=100):
    checks = []
    rng = random.Random(9157)
    for K in _surface_fixtures():
        ok = {
            "bilinearity": True,
            "associativity": True,
            "naturality": True,
            "class and curvature multiplicative": True,
            "iota compatibility": True,
            "flat compatibility": True,
            "commutativity defect": True,
        }
        maps = _monotone_maps_into(K)
        for _ in range(instances):
            k = rng.choice([1, 2])
            l = rng.choice([1, 2])
            h = random_character(K, k, rng)
            h2 = random_character(K, k, rng)
            f = random_character(K, l, rng)
            g = random_character(K, rng.choice([1, 2]), rng)
            hf = internal_product(h, f)
            if internal_product(h + h2, f) != hf + internal_product(h2, f):
                ok["bilinearity"] = False
            if internal_product(f, h + h2) != internal_product(f, h) + internal_product(f, h2):
                ok["bilinearity"] = False
            lhs = internal_product(hf, g)
            rhs = internal_product(h, internal_product(f, g))
            if lhs.curvature != rhs.curvature or lhs.lift != rhs.lift:
                ok["associativity"] = False
            phi = maps[rng.randrange(len(maps))]
            if pullback(phi, hf) != internal_product(pullback(phi, h), pullback(phi, f)):
                ok["naturality"] = False
            if char_class(hf) != IntegralClass(K, k + l, cup(h.mu, f.mu)):
                ok["class and curvature multiplicative"] = False
            if hf.curvature != cup(h.curvature, f.curvature):
                ok["class and curvature multiplicative"] = False
            rho = h2.lift
            if internal_product(iota(rho), f) != iota(cup(rho, f.curvature)):
                ok["iota compatibility"] = False
            u = random_flat_character(K, k, rng).lift
            if internal_product(flat_character(u), f) != flat_character(cup(u, f.mu)):
                ok["flat compatibility"] = False
            sign = -1 if (k * l) % 2 else 1
            defect = hf - internal_product(f, h).scale(sign)
            if not char_class(defect).is_zero():
                ok["commutativity defect"] = False
            elif defect != iota(trivialization(defect)):
                ok["commutativity defect"] = False
            elif defect.curvature != coboundary(cup_1(f.curvature, h.curvature)).scale(-1):
                ok["commutativity defect"] = False
        for name, passed in ok.items():
            checks.append(_check(f"{name} [{K.name}]", passed))
    return checks


# -- bb-oracle ---------------------------------------------------------------


def run_bb_oracle():
    checks = []
    rng = random.Random(40961)
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
        basis = P.splitting(degree).cycle_basis
        mismatches = 0
        for _ in range(2):
            h = random_character(L, k, rng)
            f = random_character(R, kp, rng)
            hf = external_product(h, f, P)
            for vec in basis:
                z = P.chain_from_vector(degree, vec)
                if bb_evaluate(h, f, z, product=P) != evaluate(hf, z):
                    mismatches += 1
        checks.append(
            _check(
                f"bb formula on Z_{degree} basis [{P.name} k={k} k'={kp}]",
                mismatches == 0,
                {"mismatches": mismatches, "basis": len(basis)},
            )
        )
    return checks


# -- fiber-axioms ------------------------------------------------------------


def run_fiber_axioms():
    checks = []
    rng = random.Random(7321)
    S1 = fixtures.circle()
    bases = [S1, fixtures.torus()]
    fibers = [fixtures.point(), fixtures.two_points(), S1]
    for base in bases:
        for F in fibers:
            E = staircase_product(base, F)
            tr = product_transfer(base, F, total=E)
            n = tr.fiber_degree
            label = f"{base.name} x {F.name}"
            ok_curv = ok_iota = ok_nat = ok_rev = True
            for k in (n + 1, n + 2):
                for _ in range(3):
                    h = random_character(E, k, rng)
                    ph = fiber_integrate(h, tr)
                    if ph.curvature != slant_fiber(h.curvature, tr.fiber_chain):
                        ok_curv = False
                    b = random_character(E, k, rng).lift
                    if fiber_integrate(iota(b), tr) != iota(slant_fiber(b, tr.fiber_chain)):
                        ok_iota = False
                    rev = product_transfer(base, F, fiber_chain=tr.fiber_chain.scale(-1), total=E)
                    if fiber_integrate(h, rev) != -ph:
                        ok_rev = False
            for g in _monotone_maps_into(base):
                Y = g.source
                EY = staircase_product(Y, F)
                gx = product_map(g, identity_map(F), EY, E)
                trY = product_transfer(Y, F, fiber_chain=tr.fiber_chain, total=EY)
                h = random_character(E, n + 1, rng)
                if fiber_integrate(pullback(gx, h), trY) != pullback(g, fiber_integrate(h, tr)):
                    ok_nat = False
            checks.append(_check(f"curvature compatibility [{label}]", ok_curv))
            checks.append(_check(f"iota compatibility [{label}]", ok_iota))
            checks.append(_check(f"orientation reversal [{label}]", ok_rev))
            checks.append(_check(f"naturality [{label}]", ok_nat))
    # functoriality of iterated integration
    ok_fun = True
    for F1, F2 in [(fixtures.point(), S1), (fixtures.two_points(), S1),
                   (S1, fixtures.point()), (S1, S1)]:
        XF1 = staircase_product(S1, F1)
        nested = staircase_product(XF1, F2)
        FF = staircase_product(F1, F2)
        flat = staircase_product(S1, FF)
        rb = rebracket_map(flat, nested)
        c1, c2 = fundamental_cycle(F1), fundamental_cycle(F2)
        h = random_character(nested, c1.degree + c2.degree + 1, rng)
        lhs = fiber_integrate(fiber_integrate(h, TransferData(nested, c2)), TransferData(XF1, c1))
        rhs = fiber_integrate(pullback(rb, h), TransferData(flat, ez(c1, c2, FF)))
        if lhs != rhs:
            ok_fun = False
    checks.append(_check("functoriality of iterated fibers", ok_fun))
    # the bundled example: integrating the torus character gives the circle one
    tr = product_transfer(S1, S1, total=fixtures.torus())
    checks.append(
        _check(
            "integrating i x i over the second circle returns i",
            fiber_integrate(fixtures.torus_character(), tr) == fixtures.winding_character(),
        )
    )
    return checks


# -- boundary-fiber ----------------------------------------------------------


def run_boundary_fiber(instances=50):
    checks = []
    rng = random.Random(5077)
    iv = fixtures.interval()
    cI = fundamental_cycle(iv)
    for base in (fixtures.circle(), fixtures.torus()):
        E = staircase_product(base, iv)
        tr = product_transfer(base, iv, fiber_chain=cI, total=E)
        ok_iota_form = ok_deg1 = ok_proj = True
        for _ in range(instances):
            k = rng.choice([1, 2])
            h = random_character(E, k, rng)
            out = boundary_fiber_integrate(h, tr)
            sign = -1 if (k - 1) % 2 else 1
            if out.over_boundary != iota(slant_fiber(h.curvature, cI).scale(sign)):
                ok_iota_form = False
            if project(out.relative) != out.over_boundary:
                ok_proj = False
            if k == 1:
                top = pullback(E.include_at_right(1), h)
                bottom = pullback(E.include_at_right(0), h)
                if out.over_boundary != top - bottom:
                    ok_deg1 = False
        checks.append(_check(f"boundary integral is iota of the curvature integral [{base.name}]", ok_iota_form))
        checks.append(_check(f"relative output projects to the boundary integral [{base.name}]", ok_proj))
        checks.append(_check(f"degree-1 endpoint quotient [{base.name}]", ok_deg1))
    return checks


# -- updown ------------------------------------------------------------------


def _character_witness(tag, lhs, rhs):
    if isinstance(lhs, LowDegreeChar) or isinstance(rhs, LowDegreeChar):
        return {
            "instance": tag,
            "lhs": cochain_to_json(lhs.cocycle),
            "rhs": cochain_to_json(rhs.cocycle),
        }
    return {
        "instance": tag,
        "curvature discrepancy": cochain_to_json(lhs.curvature - rhs.curvature),
        "lift discrepancy": cochain_to_json(lhs.lift - rhs.lift),
    }


def run_updown():
    checks = []
    rng = random.Random(66191)
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    tr = product_transfer(S1, S1, total=T2)
    pi = T2.projection_left()
    for k in (1, 2):
        for l in (1, 2):
            ok = True
            witness = None
            for _ in range(3):
                h = random_character(S1, k, rng)
                f = random_character(T2, l, rng)
                lhs = fiber_integrate(internal_product(pullback(pi, h), f), tr)
                rhs = internal_product(h, fiber_integrate(f, tr))
                if lhs != rhs:
                    ok = False
                    witness = _character_witness(f"k={k} l={l}", lhs, rhs)
            checks.append(_check(f"projection formula k={k} l={l}", ok, witness))
    comb, swap = combined_transfer(tr, tr)
    base_prod = comb.total.left
    for k in (1, 2):
        for l in (1, 2):
            h = random_character(T2, k, rng)
            f = random_character(T2, l, rng)
            hf = external_product(h, f, swap.target)
            lhs = fiber_integrate(pullback(swap, hf), comb)
            rhs = external_product(fiber_integrate(h, tr), fiber_integrate(f, tr), base_prod)
            if (l - 1) % 2:
                rhs = -rhs
            ok = lhs == rhs
            witness = None if ok else _character_witness(f"k={k} l={l}", lhs, rhs)
            checks.append(_check(f"fiber product formula k={k} l={l}", ok, witness))
    return checks


# -- relative-exact ----------------------------------------------------------


def run_relative_exact():
    checks = []
    rng = random.Random(31511)
    pairs = [
        ("equator in S2_4p", fixtures.equator_cone()),
        ("torsion loop in RP2_6", fixtures.torsion_loop_cone()),
    ]
    for label, cone in pairs:
        phi = cone.phi
        X, A = phi.target, phi.source
        ok_gate = ok_proj = ok_descend = ok_pi = True
        section_found = obstructed = 0
        for k in (1, 2):
            for _ in range(8):
                h = random_character(X, k, rng)
                pulled = IntegralClass(A, k, pullback_cochain(phi, h.mu))
                try:
                    s = find_section(h, cone)
                    section_found += 1
                    if not pulled.is_zero():
                        ok_gate = False
                    if project(s) != h:
                        ok_proj = False
                except NoSection as exc:
                    obstructed += 1
                    if pulled.is_zero():
                        ok_gate = False
                    if exc.witness.is_zero():
                        ok_gate = False
                # every kernel instance descends and the round trip closes
                g = random_character(A, k, rng)
                f = incl_flat(g, cone)
                if not project(f).is_zero():
                    ok_pi = False
                back = descend_kernel(f)
                if incl_flat(back, cone) != f:
                    ok_descend = False
        checks.append(_check(f"section exists iff class pulls back to zero [{label}]", ok_gate))
        checks.append(_check(f"sections project to the input [{label}]", ok_proj))
        checks.append(_check(f"inclusion lands in the projection kernel [{label}]", ok_pi))
        checks.append(_check(f"kernel instances descend [{label}]", ok_descend))
    # both outcomes must actually occur: the identity cone on RP2_6 with the
    # flat order-2 character is obstructed, the suspension pair never is
    RP2 = fixtures.projective_plane()
    cone_id = mapping_cone(identity_map(RP2))
    ju = fixtures.rp2_flat_character()
    try:
        find_section(ju, cone_id)
        both = False
    except NoSection as exc:
        both = not exc.witness.is_zero()
    try:
        find_section(ju + ju, cone_id)
    except NoSection:
        both = False
    checks.append(_check("order-2 class obstructs, its double does not", both))
    # uniqueness: for degree-k sections the hypothesis is injectivity of the
    # pushforward two degrees down; the identity cone is the clean instance
    ok_unique = pushforward_injective(identity_map(RP2), 0) \
        and pushforward_injective(identity_map(RP2), 1)
    for k in (2, 3):
        for _ in range(4):
            h = iota(random_character(RP2, k, rng).lift)
            s1 = find_section(h, cone_id)
            g = random_flat_character(RP2, k - 1, rng)
            s2 = s1 + incl_flat(g, cone_id)
            if s2.cov != s1.cov or s2 != s1:
                ok_unique = False
    checks.append(_check("sections with equal covariant part coincide (injective pushforward)", ok_unique))
    # non-injective contrast: a flat circle character whose class does not
    # extend over the suspension feeds a nonzero kernel element with zero
    # covariant part, so equal-cov sections are not unique there
    cone_eq = fixtures.equator_cone()
    S1 = fixtures.circle()
    eta13 = Cochain.from_vector(
        S1, 1, [Fraction(1, 3) if e == (0, 1) else Fraction(0) for e in S1.simplices(1)]
    )
    flat_g = DiffChar(zero_cochain(S1, 2), eta13)
    wobble = incl_flat(flat_g, cone_eq)
    distinct = (not wobble.is_zero()) and wobble.cov.is_zero() \
        and not pushforward_injective(cone_eq.phi, 1)
    checks.append(_check("non-injective pushforward admits distinct equal-cov sections", distinct))
    # the q/z long exact sequence junction: vanishing inclusion means the
    # flat class is pulled back
    ok_junction = True
    for _ in range(5):
        u = flat_holonomy_class(random_flat_character(RP2, 2, rng))
        if not flat_class_pulled_back(u, identity_map(RP2)):
            ok_junction = False
    # the winding class does not extend over the disk directions
    if flat_class_pulled_back(flat_holonomy_class(flat_g), cone_eq.phi):
        ok_junction = False
    checks.append(_check("pulled-back test separates extendable flat classes", ok_junction))
    return checks


# -- holonomy ----------------------------------------------------------------


def run_holonomy():
    checks = []
    rng = random.Random(8887)
    S1 = fixtures.circle()
    T2 = fixtures.torus()
    hh = fixtures.torus_character()
    z = fixtures.circle_cycle()
    emb1 = T2.include_at_right(0)
    emb2 = T2.include_at_left(0)
    checks.append(_check("holonomy along the first circle factor", holonomy(hh, emb1, z) == 0))
    checks.append(_check("holonomy along the second circle factor", holonomy(hh, emb2, z) == 0))
    collapse = SimplicialMap(S1, T2, [T2.encode(0, 0)] * 3)
    checks.append(_check("collapsed image has zero holonomy", holonomy(hh, collapse, z) == 0))
    # disjoint union of two circles: holonomy adds
    two_circles = Complex(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], "S1+S1")
    zz = fundamental_cycle(two_circles)
    sheets = SimplicialMap(two_circles, T2, [T2.encode(u, 0) for u in (0, 1, 2)] + [T2.encode(u, 1) for u in (0, 1, 2)])
    lift_sum = holonomy(hh, sheets, zz)
    part1 = holonomy(hh, SimplicialMap(S1, T2, [T2.encode(u, 0) for u in (0, 1, 2)]), z)
    part2 = holonomy(hh, SimplicialMap(S1, T2, [T2.encode(u, 1) for u in (0, 1, 2)]), z)
    checks.append(_check("holonomy additive over disjoint union", lift_sum == (part1 + part2) % 1))
    # transition factors: flat degree-2 characters on the circle are exactly
    # parallel transports along paths
    eta = random_character(S1, 2, rng).lift
    h2 = iota(eta)
    iv = fixtures.interval()
    cI = fundamental_cycle(iv)
    path2 = fixtures.path_complex(2)
    cP = fundamental_cycle(path2)
    direct = Filling(SimplicialMap(iv, S1, [0, 1]), cI)
    around = Filling(SimplicialMap(path2, S1, [0, 2, 1]), cP)
    stopover = Filling(SimplicialMap(path2, S1, [0, 1, 1]), cP)
    fac = transition_factor(h2, around, direct)
    checks.append(_check("edge-path factor is the loop pairing", fac == pair(eta, z) % 1))
    checks.append(_check("factor of a filling against itself", transition_factor(h2, direct, direct) == 0))
    t_ab = transition_factor(h2, direct, around)
    t_bc = transition_factor(h2, around, stopover)
    t_ac = transition_factor(h2, direct, stopover)
    checks.append(_check("cocycle law over three fillings", (t_ab + t_bc) % 1 == t_ac))
    unit = hermitian_pairing(h2, direct, Phased(Fraction(1), Fraction(0)), direct, Phased(Fraction(1), Fraction(0)))
    checks.append(_check("pairing of a filling with itself is the unit", unit.modulus == 1 and unit.phase == 0))
    c1 = Phased(Fraction(2), Fraction(1, 3))
    c2 = Phased(Fraction(3, 2), Fraction(1, 4))
    amp = hermitian_pairing(h2, direct, c1, around, c2)
    checks.append(_check("pairing phase is the transition factor plus coefficient phases",
                         amp.phase == (c1.phase - c2.phase + transition_factor(h2, around, direct)) % 1))
    # equivalence invariance: replace (direct, c) by the around-filling with
    # the transported coefficient
    moved = Phased(Fraction(1), transition_factor(h2, around, direct))
    inv = hermitian_pairing(h2, around, moved, direct, Phased(Fraction(1), Fraction(0)))
    base_amp = hermitian_pairing(h2, direct, Phased(Fraction(1), Fraction(0)), direct, Phased(Fraction(1), Fraction(0)))
    checks.append(_check("pairing invariant under equivalent replacement",
                         inv.modulus == base_amp.modulus and inv.phase == base_amp.phase))
    # cobordism: a cylinder in the torus between two parallel circles; the
    # holonomy difference of the ends is the curvature flux through it
    W = staircase_product(S1, iv)
    incl = SimplicialMap(iv, S1, [0, 1])
    Phi = product_map(identity_map(S1), incl, W, T2)
    cW = fundamental_cycle(W)
    ends = Phi.push_chain(cW.boundary())
    top_cycle = T2.include_at_right(1).push_chain(z)
    bottom_cycle = T2.include_at_right(0).push_chain(z)
    two_ended = ends in (top_cycle - bottom_cycle, bottom_cycle - top_cycle)
    checks.append(_check("cylinder boundary is the two end circles", two_ended))
    flux_ok = evaluate(hh, ends) == pair(hh.curvature, Phi.push_chain(cW)) % 1
    checks.append(_check("holonomy difference of the ends equals the flux", flux_ok))
    return checks


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
    checks = runner()
    return {
        "suite": name,
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }
