"""Differential characters: pairs (curvature, lift) with exact arithmetic.

A degree-k character is a closed rational k-cochain (the curvature) together
with a rational (k-1)-cochain lift whose failure to trivialize the curvature
is an integer cocycle.  Evaluation on cycles lands in Q/Z, represented as
Fractions in [0,1), so two characters are equal when their curvatures agree
and their lifts differ by a cochain with integral periods, and two flat
classes when their cochains do; `simplicial.DirectSum` decides both from
the parts each class declares.  The definition holds in every degree: in
degree k <= 0 the lift has negative degree, hence is zero, so a character is
its integral cocycle mu = curvature, and below degree 0 it is zero.

Characters are checked where they enter: `DiffChar(...)` checks that the
curvature is closed and that mu = curvature - d(lift) is integral, and
stores mu with int values, and so do `iota` and `flat_character`, which take
cochains from the user; `FlatClass(...)` checks that its coboundary is
integral.  A character the library derives from checked ones (sums,
multiples, pullbacks, fiber integrals, projections, `from_curvature`,
`random_character`, internal products) is built by `_derived` with its mu
carried along, unchecked, and so are the sums of flat classes and
`flat_holonomy_class`; the group law is `simplicial.DirectSum`'s.
`products.internal_product` alone recomputes its mu, raises
InvariantViolation if that is not integral and stores it with int values.
"""

from __future__ import annotations

from fractions import Fraction

from diffchar.exact_linalg import InvariantViolation, solve_integer, solve_rational
from diffchar.simplicial import DirectSum
from diffchar.cochain import (
    Cochain,
    coboundary,
    is_closed,
    pair,
    pullback as pullback_cochain,
    zero_cochain,
)


class NotClosed(ValueError):
    """A would-be curvature has nonzero coboundary."""


class NotIntegrallyCompatible(ValueError):
    """curvature - d(lift) is not an integer cochain."""


class NotACycle(ValueError):
    """Characters only evaluate on cycles."""


class NoTrivialization(ValueError):
    """The character class is nonzero, so no global trivialization exists."""


class NotIntegralPeriods(ValueError):
    """A closed cochain pairs non-integrally with some cycle."""


class NotFlat(ValueError):
    """The operation needs a character with vanishing curvature."""


class NotTorsion(ValueError):
    """The cycle's homology class has infinite order."""


class NotCocycle(ValueError):
    """Integer cocycle data required."""


def _check_cycle_degree(h, degree, cycles="cycles"):
    """A degree-k character evaluates on (k-1)-cycles; refuse any other degree."""
    if degree != h.degree - 1:
        raise ValueError(
            f"a degree-{h.degree} character evaluates on {cycles} of degree "
            f"{h.degree - 1}, not {degree}"
        )


def _mod1(x):
    return Fraction(x) % 1


class IntegralClass:
    """An integral cohomology class, stored as coordinates plus a representative."""

    __slots__ = ("complex", "degree", "representative", "free", "torsion_residues")

    def __init__(self, complex, degree, representative):
        if representative.complex != complex or representative.degree != degree:
            raise ValueError("class representative lives on another complex or degree")
        if not representative.is_integer_valued():
            raise NotCocycle("class representative must be an integer cochain")
        rep_vec = [int(x) for x in representative.to_vector()]
        coh = complex.cohomology(degree)
        try:
            free, tors = coh.coordinates(rep_vec)
        except ValueError:
            # The length matches, so the vector is not in the kernel.
            raise NotCocycle("class representative must be a cocycle") from None
        self.complex = complex
        self.degree = degree
        self.representative = representative
        self.free = free
        self.torsion_residues = tors

    def is_zero(self):
        return all(x == 0 for x in self.free) and all(
            x == 0 for x in self.torsion_residues
        )

    def __eq__(self, other):
        return (
            isinstance(other, IntegralClass)
            and self.complex == other.complex
            and self.degree == other.degree
            and self.free == other.free
            and self.torsion_residues == other.torsion_residues
        )

    def __repr__(self):
        return (
            f"IntegralClass(deg {self.degree}, free {list(self.free)}, "
            f"torsion {list(self.torsion_residues)})"
        )


class FlatClass(DirectSum):
    """A cohomology class with circle-group coefficients, degree d.

    Carried by a rational d-cochain whose coboundary is integral; two
    cochains represent the same class when their difference has integral
    periods, which is `DirectSum`'s equality with the cochain as the lift.
    """

    __slots__ = ("complex", "degree", "cochain")
    _space = ("complex", "degree")
    _parts = _lifts = ("cochain",)
    _mismatch = "flat classes on different complexes or degrees"
    _scale_type = "flat classes scale by integers"

    def __init__(self, cochain):
        if not coboundary(cochain).is_integer_valued():
            raise NotCocycle("flat class needs an integral coboundary")
        self.complex = cochain.complex
        self.degree = cochain.degree
        self.cochain = cochain

    def _cycles(self):
        return self.complex.splitting(self.degree)

    def __repr__(self):
        return f"FlatClass(deg {self.degree}, {self.cochain!r})"


class DiffChar(DirectSum):
    """Differential character of any degree k; for k <= 0 the lift is zero."""

    __slots__ = ("complex", "degree", "curvature", "lift", "mu")
    _space = ("complex", "degree")
    _parts = ("curvature", "lift", "mu")
    _exact = ("curvature",)
    _lifts = ("lift",)
    _mismatch = "characters on different complexes or degrees"
    _scale_type = "characters scale by integers"

    def __init__(self, curvature, lift):
        if curvature.complex != lift.complex:
            raise ValueError("curvature and lift on different complexes")
        if lift.degree != curvature.degree - 1:
            raise ValueError("lift degree must be one below curvature degree")
        if not is_closed(curvature):
            raise NotClosed("curvature must be a closed cochain")
        mu = curvature - coboundary(lift)
        if not mu.is_integer_valued():
            raise NotIntegrallyCompatible(
                "curvature - d(lift) must be an integer cocycle"
            )
        self.complex = curvature.complex
        self.degree = curvature.degree
        self.curvature = curvature
        self.lift = lift
        self.mu = mu.coerced()

    @classmethod
    def _of(cls, space, parts):
        """Through `_derived`, the one trusted builder of characters."""
        return _derived(*parts)

    def _cycles(self):
        return self.complex.splitting(self.degree - 1)

    def __repr__(self):
        return f"DiffChar(deg {self.degree} on {self.complex!r})"


def _derived(curvature, lift, mu):
    """The character (curvature, lift) built from checked ones, given its mu.

    Derived characters need no check: mu = curvature - d(lift) is additive,
    natural under pullback and commutes with integration over a closed fiber,
    so the caller passes the mu it carried along, and the curvature is closed
    because it differs from the cocycle mu by a coboundary.
    """
    h = object.__new__(DiffChar)
    h.complex, h.degree = curvature.complex, curvature.degree
    h.curvature, h.lift, h.mu = curvature, lift, mu
    return h


def evaluate(h, cycle):
    """Value of the character on a cycle, as a Fraction in [0,1)."""
    _check_cycle_degree(h, cycle.degree)
    if not cycle.is_cycle():
        raise NotACycle("characters evaluate on cycles only")
    return _mod1(pair(h.lift, cycle))


def char_class(h):
    """The integral cohomology class obstructing topological triviality."""
    return IntegralClass(h.complex, h.degree, h.mu)


def iota(eta):
    """Characters from cochains: (d eta, eta); kills closed integral cochains."""
    return DiffChar(coboundary(eta), eta)


def flat_character(u):
    """Inclusion of circle-coefficient classes as flat characters."""
    if isinstance(u, FlatClass):
        u = u.cochain
    return DiffChar(zero_cochain(u.complex, u.degree + 1), u)


j = flat_character


def flat_holonomy_class(h):
    """The circle-coefficient class of a flat character."""
    if not h.curvature.is_zero():
        raise NotFlat("character has nonzero curvature")
    # d(lift) = -mu is integral, since the curvature vanishes.
    return FlatClass._of((h.complex, h.degree - 1), (h.lift,))


def trivialization(h):
    """A cochain eta with iota(eta) = h, when the character class vanishes."""
    k = h.degree
    if not char_class(h).is_zero():
        raise NoTrivialization("character class is nonzero")
    t_vec = solve_integer(h.complex.coboundary_snf(k - 1), h.mu.to_vector())
    if t_vec is None:
        raise InvariantViolation("zero class must be an integral coboundary")
    t = Cochain.from_vector(h.complex, k - 1, t_vec)
    return h.lift + t


def from_curvature(omega):
    """A character with the given curvature; right inverse of taking curvature.

    The lift is the potential of integral_decomposition(omega): the
    projection onto cycles gives an integer cocycle in the class of the
    curvature exactly when the periods are integral, and the lift solves the
    remaining rational coboundary equation.
    """
    if omega.degree < 1:
        raise ValueError("degree must be at least 1")
    if not is_closed(omega):
        raise NotClosed("curvature must be closed")
    m, r = integral_decomposition(omega)
    return _derived(omega, r, m)


def pullback(phi, h):
    """Character pullback along a simplicial map."""
    if h.complex != phi.target:
        raise ValueError("character does not live on the map's target")
    return _derived(
        pullback_cochain(phi, h.curvature),
        pullback_cochain(phi, h.lift),
        pullback_cochain(phi, h.mu),
    )


def evaluate_torsion(h, cycle):
    """Evaluation on a torsion cycle through a filling of a multiple.

    For N minimal with N*z a boundary, pick dx = N*z and return
    (curvature(x) - mu(x)) / N mod 1.  Must agree with evaluate on the nose.
    """
    if cycle.complex != h.complex:
        raise ValueError("pairing across different complexes")
    _check_cycle_degree(h, cycle.degree)
    if not cycle.is_cycle():
        raise NotACycle("torsion evaluation needs a cycle")
    order, x = torsion_filling(cycle)
    if order == 0:
        raise NotTorsion("cycle class has infinite order")
    return _mod1(Fraction(pair(h.curvature, x) - pair(h.mu, x), order))


def torsion_filling(cycle):
    """(N, x) with N the order of the cycle's class and dx = N * cycle; (0, None)
    when the class has infinite order."""
    K, n = cycle.complex, cycle.degree
    vec = cycle.to_vector()
    order = K.homology(n).class_order(vec)
    if order == 0:
        return 0, None
    x_vec = solve_integer(K.boundary_snf(n + 1), [order * v for v in vec])
    if x_vec is None:
        raise InvariantViolation("a multiple of a torsion cycle must bound")
    return order, K.chain_from_vector(n + 1, x_vec)


def integral_decomposition(a):
    """Split a cochain with integral periods as (integer part, potential).

    Returns (m, r) with a = m + dr, m integer valued.  Raises
    NotIntegralPeriods when no such splitting exists.
    """
    K = a.complex
    split = K.splitting(a.degree)
    vec = a.to_vector()
    periods = split.periods(vec)
    if any(p.denominator != 1 for p in periods):
        raise NotIntegralPeriods("cochain pairs non-integrally with a cycle")
    # The cochain with a's periods that vanishes on the complement of the
    # cycles: integer valued, since the periods are.
    m_vec = split.dual(periods)
    m = Cochain.from_vector(K, a.degree, m_vec)
    if not m.is_integer_valued():
        raise InvariantViolation("integral periods must give an integer cochain")
    rhs = [x - y for x, y in zip(vec, m_vec)]
    r_vec = solve_rational(K.coboundary_snf(a.degree - 1), rhs)
    if r_vec is None:
        raise InvariantViolation("cochain vanishing on cycles must be a coboundary")
    r = Cochain.from_vector(K, a.degree - 1, r_vec)
    return m, r


def fractional_torsion_class(K, degree, index=0, numerator=1):
    """A flat class pairing to numerator/d with the index-th torsion generator.

    Built from the adapted coordinate functional of that generator; its
    coboundary is integral because boundaries have adapted coordinates
    divisible by the torsion order, so the class is built unchecked.
    """
    hom = K.homology(degree)
    if not 0 <= index < len(hom.torsion):
        raise IndexError("no such torsion factor")
    d = hom.torsion[index]
    values = [Fraction(numerator * x, d) for x in hom.torsion_functional(index)]
    return FlatClass._of((K, degree), (Cochain.from_vector(K, degree, values),))


# Random draws: integer coefficients in [-_SPAN, _SPAN] ([-_FLAT_SPAN,
# _FLAT_SPAN] for flat characters), rational values with denominators up
# to _DENOM.
_DENOM = 6
_SPAN = 4
_FLAT_SPAN = 3


def random_character(K, k, rng):
    """Deterministic pseudo-random character: random class plus random lift."""
    coh = K.cohomology(k)
    mu_vec = [0] * len(K.simplices(k))
    for gen in coh.generators:
        c = rng.randint(-_SPAN, _SPAN)
        if c:
            mu_vec = [a + c * b for a, b in zip(mu_vec, gen)]
    below = K.simplices(k - 1)
    if below:
        t_vec = [rng.randint(-_SPAN, _SPAN) for _ in below]
        t = Cochain.from_vector(K, k - 1, t_vec)
        mu_vec = [a + b for a, b in zip(mu_vec, coboundary(t).to_vector())]
    mu = Cochain.from_vector(K, k, mu_vec)
    lift_vals = [
        Fraction(rng.randint(-2 * _DENOM, 2 * _DENOM), rng.randint(1, _DENOM))
        for _ in below
    ]
    lift = Cochain.from_vector(K, k - 1, lift_vals)
    return _derived(mu + coboundary(lift), lift, mu)


def random_flat_character(K, k, rng):
    """Random flat character: torsion duals plus integers plus a coboundary."""
    below = K.simplices(k - 1)
    lift = zero_cochain(K, k - 1)
    hom = K.homology(k - 1)
    for idx, d in enumerate(hom.torsion):
        c = rng.randint(0, d - 1)
        if c:
            lift = lift + fractional_torsion_class(K, k - 1, idx, c).cochain
    if below:
        ints = Cochain.from_vector(
            K, k - 1, [rng.randint(-_FLAT_SPAN, _FLAT_SPAN) for _ in below]
        )
        lift = lift + ints
    if k - 2 >= 0:
        lower = K.simplices(k - 2)
        if lower:
            r_vals = [
                Fraction(rng.randint(-_DENOM, _DENOM), rng.randint(1, _DENOM)) for _ in lower
            ]
            r = Cochain.from_vector(K, k - 2, r_vals)
            lift = lift + coboundary(r)
    return flat_character(lift)
