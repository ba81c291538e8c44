"""Holonomy of characters around mapped cycles and its gluing data.

A degree-k character assigns a circle element to every map of a closed
oriented (k-1)-cycle; fillings of such maps by one dimension higher give
transition factors between them, and a hermitian pairing of filling-with-
coefficient pairs.  Circle elements are Fractions mod 1; phased amplitudes
are (modulus, phase) pairs of Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from diffchar.simplicial import validate_fundamental_chain
from diffchar.characters import evaluate, _mod1


class DimensionMismatch(ValueError):
    """Mapped chain degree does not fit the character degree."""


class BoundaryMismatch(ValueError):
    """Two fillings whose boundaries do not agree in the target."""


class Phased:
    """An amplitude: nonnegative rational modulus and a phase mod 1."""

    __slots__ = ("modulus", "phase")

    def __init__(self, modulus, phase=0):
        if not (isinstance(modulus, (int, Fraction)) and isinstance(phase, (int, Fraction))):
            raise TypeError("modulus and phase must be int or Fraction")
        if modulus < 0:
            raise ValueError("modulus must be nonnegative")
        self.modulus = Fraction(modulus)
        self.phase = _mod1(phase) if modulus != 0 else Fraction(0)

    def __eq__(self, other):
        return (
            isinstance(other, Phased)
            and self.modulus == other.modulus
            and self.phase == other.phase
        )

    def __mul__(self, other):
        return Phased(self.modulus * other.modulus, self.phase + other.phase)

    def conjugate(self):
        return Phased(self.modulus, -self.phase)

    def __repr__(self):
        return f"Phased({self.modulus}, phase {self.phase})"


class Filling:
    """A map from a complex with fundamental chain into the target.

    The chain is required to cover the top simplices coherently, so its
    boundary is the fundamental cycle of the boundary of the source.
    """

    __slots__ = ("map", "chain")

    def __init__(self, simplicial_map, chain):
        if chain.complex != simplicial_map.source:
            raise ValueError("chain does not live on the map's source")
        validate_fundamental_chain(chain)
        self.map = simplicial_map
        self.chain = chain

    @property
    def target(self):
        return self.map.target

    def pushed(self):
        return self.map.push_chain(self.chain)

    def pushed_boundary(self):
        return self.map.push_chain(self.chain.boundary())

    def __repr__(self):
        return f"Filling({self.map!r}, deg {self.chain.degree})"


def holonomy(h, phi, cycle):
    """Value of the character on the pushforward of a cycle.

    The cycle lives on the source of phi and must have degree one below the
    character; typically it is the fundamental cycle of a closed oriented
    pseudomanifold.
    """
    if phi.target != h.complex:
        raise ValueError("map does not land in the character's complex")
    if cycle.complex != phi.source:
        raise ValueError("cycle does not live on the map's source")
    if cycle.degree != h.degree - 1:
        raise DimensionMismatch(
            f"cycle degree {cycle.degree}, character degree {h.degree}"
        )
    return evaluate(h, phi.push_chain(cycle))


def transition_factor(h, fill_from, fill_to):
    """Phase relating the coefficients of two fillings with equal boundary.

    A coefficient attached to `fill_from` times this factor gives the
    coefficient attached to `fill_to` for the same glued object:
    c_from = factor + c_to as phases mod 1.
    """
    if fill_from.target != h.complex or fill_to.target != h.complex:
        raise ValueError("fillings do not land in the character's complex")
    if fill_from.chain.degree != h.degree - 1 or fill_to.chain.degree != h.degree - 1:
        raise DimensionMismatch("filling degree does not match the character")
    if fill_from.pushed_boundary() != fill_to.pushed_boundary():
        raise BoundaryMismatch("pushed boundaries differ; factors undefined")
    return evaluate(h, fill_to.pushed() - fill_from.pushed())


def hermitian_pairing(h, fill_1, coeff_1, fill_2, coeff_2):
    """Pairing of two filling-with-amplitude pairs for the same boundary.

    Sesquilinear in the amplitudes: the first enters directly, the second
    conjugated; the holonomy of the glued difference cycle supplies the
    relative phase.  Invariant under changing either filling when its
    amplitude is corrected by the transition factor.
    """
    glue = transition_factor(h, fill_2, fill_1)
    amp = coeff_1 * coeff_2.conjugate()
    return Phased(amp.modulus, amp.phase + glue)
