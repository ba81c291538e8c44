"""Relative differential characters on the mapping cone of a simplicial map.

A degree-k relative character for phi: A -> X is a quadruple: a curvature on
X, a covariant cochain on A one degree down, and a pair of lifts (on X and
A) whose failure to trivialize the pair is integral.  Evaluation happens on
cone cycles and lands in Q/Z, so two relative characters are equal when
their pairs (curvature, cov) agree and their lift pairs differ by integral
periods on cone cycles; `simplicial.DirectSum` decides that from the parts
`RelChar` declares.

`RelChar(...)` checks its data where it enters; the relative characters and
characters this module derives (the group law of `simplicial.DirectSum`,
`incl_flat`, `cov_inverse`, `find_section`, `descend_kernel`) are built
unchecked with their integral cocycles in closed form.
"""

from __future__ import annotations

from diffchar.exact_linalg import kernel_basis, IntMatrix, solve_integer
from diffchar.simplicial import DirectSum, identity_map, mapping_cone
from diffchar.cochain import (
    Cochain,
    coboundary,
    pair,
    pullback as pullback_cochain,
    zero_cochain,
)
from diffchar.characters import (
    IntegralClass,
    LowDegreeChar,
    NotIntegrallyCompatible,
    _check_cycle_degree,
    _derived,
    _mod1,
    integral_decomposition,
)


class NotConeClosed(ValueError):
    """The pair (curvature, cov) fails the cone cocycle condition."""


class NotAConeCycle(ValueError):
    """Relative characters only evaluate on cone cycles."""


class NoSection(ValueError):
    """The character class restricts nontrivially, so no section exists.

    Carries the obstruction as `witness`: the pulled back integral class.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class KernelConditionFailed(ValueError):
    """descend_kernel needs the underlying absolute character to vanish."""


class RelChar(DirectSum):
    """Relative differential character of degree k >= 1.

    Its parts, integral cocycles mu_x = curvature - d(lift_x) and
    mu_a = cov - phi^*(lift_x) + d(lift_a) included, are linear in it.
    """

    __slots__ = ("cone", "degree", "curvature", "cov", "lift_x", "lift_a", "mu_x", "mu_a")
    _space = ("cone", "degree")
    _parts = ("curvature", "cov", "lift_x", "lift_a", "mu_x", "mu_a")
    _exact = ("curvature", "cov")
    _lifts = ("lift_x", "lift_a")
    _mismatch = "relative characters do not match"
    _scale_type = "relative characters scale by integers"

    def __init__(self, cone, curvature, cov, lift_x, lift_a):
        phi = cone.phi
        X, A = phi.target, phi.source
        k = curvature.degree
        if k < 1:
            raise ValueError("relative characters start in degree 1")
        if curvature.complex != X or cov.complex != A:
            raise ValueError("curvature lives on X and the covariant part on A")
        if cov.degree != k - 1:
            raise ValueError("covariant part must sit one degree down")
        if lift_x.complex != X or lift_x.degree != k - 1:
            raise ValueError("X lift has the wrong complex or degree")
        if lift_a.degree != k - 2 or (k - 2 >= 0 and lift_a.complex != A):
            raise ValueError("A lift has the wrong complex or degree")
        if not coboundary(curvature).is_zero():
            raise NotConeClosed("curvature must be closed")
        if pullback_cochain(phi, curvature) != coboundary(cov):
            raise NotConeClosed("curvature must pull back to the coboundary of cov")
        mu_x = curvature - coboundary(lift_x)
        mu_a = cov - pullback_cochain(phi, lift_x) + coboundary(lift_a)
        if not (mu_x.is_integer_valued() and mu_a.is_integer_valued()):
            raise NotIntegrallyCompatible(
                "pair minus cone coboundary of the lifts must be integral"
            )
        self.cone = cone
        self.degree = k
        self.curvature = curvature
        self.cov = cov
        self.lift_x = lift_x
        self.lift_a = lift_a
        self.mu_x = mu_x.coerced()
        self.mu_a = mu_a.coerced()

    @property
    def phi(self):
        return self.cone.phi

    def _lift_pair_on(self, cone_chain):
        return pair(self.lift_x, cone_chain.x_part) + pair(self.lift_a, cone_chain.a_part)

    def _cycles(self):
        return self.cone.splitting(self.degree - 1)

    def __repr__(self):
        return f"RelChar(deg {self.degree} for {self.phi!r})"


def evaluate_rel(f, cone_chain):
    """Value on a cone cycle, as a Fraction in [0,1)."""
    if cone_chain.cone != f.cone:
        raise ValueError("chain lives on a different mapping cone")
    _check_cycle_degree(f, cone_chain.degree, "cone cycles")
    if not cone_chain.is_cycle():
        raise NotAConeCycle("relative characters evaluate on cone cycles only")
    return _mod1(f._lift_pair_on(cone_chain))


def incl_flat(g, cone):
    """Relative characters from absolute ones a degree down.

    Sends a degree (k-1) character on A to the degree k relative character
    with zero X data, covariant part minus the curvature, and A lift the
    lift of g.  Degree-0 characters on A go to zero in degree 1.  The
    integral cocycles are mu_x = 0 and mu_a = -mu of g.
    """
    phi = cone.phi
    A, X = phi.source, phi.target
    if isinstance(g, LowDegreeChar):
        if g.complex != A or g.degree != 0:
            raise ValueError("expected a degree-0 character on A")
        g = LowDegreeChar(A, 0)
    if g.complex != A:
        raise ValueError("character does not live on the cone's source")
    k = g.degree + 1
    zero = zero_cochain(X, k)
    parts = (zero, -g.curvature, zero_cochain(X, k - 1), g.lift, zero, -g.mu)
    return RelChar._of((cone, k), parts)


def project(f):
    """Forget the relative data: the absolute character (curvature, X lift)."""
    return _derived(f.curvature, f.lift_x, f.mu_x)


def cov_inverse(theta, cone=None):
    """Relative character on the cone of the identity with given covariant part.

    Any rational cochain theta on X yields a valid quadruple
    (d theta, theta, theta, 0), with both integral cocycles zero; its
    projection is iota(theta).
    """
    X = theta.complex
    if cone is None:
        cone = mapping_cone(identity_map(X))
    elif (cone.phi.source != X or cone.phi.target != X
          or cone.phi.vertex_map != tuple(range(X.num_vertices))):
        raise ValueError("cone must be the mapping cone of the identity on X")
    k = theta.degree + 1
    if k < 1:
        raise ValueError("relative characters start in degree 1")
    parts = (coboundary(theta), theta, theta, zero_cochain(X, k - 2),
             zero_cochain(X, k), zero_cochain(X, k - 1))
    return RelChar._of((cone, k), parts)


def find_section(h, cone):
    """Lift an absolute character to a relative one when the class allows it.

    Solves for an integer cochain t on A with dt the pulled back integral
    cocycle; the covariant part is the pulled back lift plus t.  Raises
    NoSection carrying the obstruction class when no t exists.  In degree 1
    the covariant part is normalized to [0,1) at the least vertex of each
    component of A.  The integral cocycles are mu_x = mu of h and mu_a = t,
    plus that integer shift in degree 1.
    """
    phi = cone.phi
    A, X = phi.source, phi.target
    if h.complex != X:
        raise ValueError("character does not live on the cone's target")
    k = h.degree
    if k < 1:
        raise ValueError("relative characters start in degree 1")
    pulled_mu = pullback_cochain(phi, h.mu)
    t_vec = solve_integer(A.coboundary_snf(k - 1), pulled_mu.to_vector())
    if t_vec is None:
        raise NoSection(
            "character class pulls back nontrivially",
            IntegralClass(A, k, pulled_mu),
        )
    t = Cochain.from_vector(A, k - 1, t_vec)
    theta = pullback_cochain(phi, h.lift) + t
    if k == 1:
        shift = {}
        for comp in A.components():
            v = (min(comp),)
            base = theta.value(v)
            n = base - (base % 1)
            if n != 0:
                for u in comp:
                    shift[(u,)] = -n
        if shift:
            shift = Cochain._of(A, 0, shift)
            theta, t = theta + shift, t + shift
    parts = (h.curvature, theta, h.lift, zero_cochain(A, k - 2), h.mu, t)
    return RelChar._of((cone, k), parts)


def descend_kernel(f):
    """Express a relative character with vanishing projection through A.

    Given f with project(f) the zero character, produce g on A a degree down
    with incl_flat(g) == f.  In degree 1 only the zero character descends.
    """
    phi = f.phi
    A = phi.source
    k = f.degree
    absolute = project(f)
    if not absolute.is_zero():
        raise KernelConditionFailed("projection to X is a nonzero character")
    if k == 1:
        if f.is_zero():
            return LowDegreeChar(A, 0)
        raise KernelConditionFailed(
            "in degree 1 only the zero relative character descends"
        )
    # lift_x = m + d(s_a) with m integral; then mu = -mu_a - phi^*(m).
    m, s_a = integral_decomposition(f.lift_x)
    b_prime = f.lift_a - pullback_cochain(phi, s_a)
    return _derived(-f.cov, b_prime, -f.mu_a - pullback_cochain(phi, m))


def flat_class_pulled_back(u, phi):
    """Whether a circle-coefficient class on A is pulled back from X.

    Divisibility of the circle group turns this into a pairing condition:
    the class must kill every homology class of A that dies in X.
    """
    if u.complex != phi.source:
        raise ValueError("class does not live on the map's source")
    return all(pair(u.cochain, z) % 1 == 0 for z in _pushforward_kernel(phi, u.degree))


def pushforward_injective(phi, degree):
    """Whether the induced map on degree-d homology has trivial kernel."""
    hom_a = phi.source.homology(degree)
    return all(hom_a.is_zero(z.to_vector()) for z in _pushforward_kernel(phi, degree))


def _pushforward_kernel(phi, degree):
    """Cycles on A whose classes generate the kernel of phi_* on H_degree.

    A coefficient vector n over the homology generators of A belongs when
    the class sum(n_i * gens_i) dies in X: free coordinates of the pushed
    generators must cancel exactly, torsion coordinates modulo their
    orders.  Auxiliary columns absorb the moduli.
    """
    A, X = phi.source, phi.target
    basis = A.homology(degree).generators
    if not basis:
        return []
    pres_x = X.homology(degree)
    free = pres_x.free_positions()
    tors_pos = pres_x.torsion_positions()
    columns = [
        pres_x.adapted_coordinates(phi.push_chain(A.chain_from_vector(degree, g)).to_vector())
        for g in basis
    ]
    entries = [
        {j: col[i] for j, col in enumerate(columns) if col[i]} for i in free + tors_pos
    ]
    for idx, d in enumerate(pres_x.torsion):
        entries[len(free) + idx][len(basis) + idx] = d
    matrix = IntMatrix._trusted(len(entries), len(basis) + len(tors_pos), tuple(entries))
    # zip(vec, cell) stops at the generators, dropping the auxiliary columns.
    return [A.chain_from_vector(degree, [sum(c * x for c, x in zip(vec, cell))
                                         for cell in zip(*basis)])
            for vec in kernel_basis(matrix)]
