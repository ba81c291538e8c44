"""Bundled complexes, characters, maps, chains, and homotopies.

Everything is constructed on demand and memoized, so repeated lookups share
cached boundary factorizations.  The character builders import the cochain,
character and product modules when called, so that a process asking only
for complexes, chains and maps loads none of them.  The name tables at the
bottom are what the CLI resolves `--complex i`-style arguments against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from diffchar.simplicial import (
    Complex,
    SimplicialMap,
    ez,
    fundamental_cycle,
    mapping_cone,
    staircase_product,
)


@lru_cache(maxsize=None)
def point():
    return Complex(1, [(0,)], "point")


@lru_cache(maxsize=None)
def two_points():
    return Complex(2, [(0,), (1,)], "two_points")


@lru_cache(maxsize=None)
def interval():
    return Complex(2, [(0, 1)], "interval")


@lru_cache(maxsize=None)
def path_complex(segments):
    if segments < 1:
        raise ValueError("need at least one segment")
    edges = [(i, i + 1) for i in range(segments)]
    return Complex(segments + 1, edges, f"path_{segments}")


@lru_cache(maxsize=None)
def circle():
    return Complex(3, [(0, 1), (1, 2), (0, 2)], "S1_3")


@lru_cache(maxsize=None)
def hexagon():
    return Complex(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], "S1_6")


@lru_cache(maxsize=None)
def sphere():
    return Complex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], "S2_4")


@lru_cache(maxsize=None)
def suspension_sphere():
    """A sphere containing circle() as the subcomplex on vertices 0, 1, 2."""
    faces = [(0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 2, 4), (0, 2, 4)]
    return Complex(5, faces, "S2_4p")


@lru_cache(maxsize=None)
def torus():
    return staircase_product(circle(), circle(), "T2_9")


@lru_cache(maxsize=None)
def projective_plane():
    faces = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
    ]
    return Complex(6, faces, "RP2_6")


@lru_cache(maxsize=None)
def klein_bottle():
    # Vertices arranged in a 3x3 grid v(i,j) = 3i + j; the vertical seam is
    # glued with the flip j -> -j mod 3.
    faces = [
        (0, 1, 4), (0, 3, 4), (3, 4, 7), (3, 6, 7), (1, 6, 7), (0, 1, 6),
        (1, 2, 5), (1, 4, 5), (4, 5, 8), (4, 7, 8), (2, 7, 8), (1, 2, 7),
        (0, 2, 6), (2, 5, 6), (3, 5, 6), (3, 5, 8), (0, 3, 8), (0, 2, 8),
    ]
    return Complex(9, faces, "Klein_K")


@lru_cache(maxsize=None)
def winding_character():
    """Degree-1 character on the circle with winding class 1."""
    from diffchar.cochain import Cochain
    from diffchar.characters import DiffChar

    S1 = circle()
    curvature = Cochain(
        S1, 1, {(0, 1): Fraction(1, 3), (1, 2): Fraction(1, 3), (0, 2): Fraction(-1, 3)}
    )
    lift = Cochain(S1, 0, {(0,): Fraction(0), (1,): Fraction(1, 3), (2,): Fraction(2, 3)})
    return DiffChar(curvature, lift)


@lru_cache(maxsize=None)
def torus_character():
    """External square of the winding character, on the torus."""
    from diffchar.products import external_product

    i = winding_character()
    return external_product(i, i, torus())


@lru_cache(maxsize=None)
def rp2_flat_character():
    """Flat character from the order-2 circle-coefficient class on RP2_6."""
    from diffchar.characters import flat_character, fractional_torsion_class

    u = fractional_torsion_class(projective_plane(), 1, 0, 1)
    return flat_character(u)


@lru_cache(maxsize=None)
def equator_map():
    return SimplicialMap(circle(), suspension_sphere(), [0, 1, 2])


@lru_cache(maxsize=None)
def torsion_loop_map():
    return SimplicialMap(circle(), projective_plane(), [0, 1, 2])


@lru_cache(maxsize=None)
def equator_cone():
    return mapping_cone(equator_map())


@lru_cache(maxsize=None)
def torsion_loop_cone():
    return mapping_cone(torsion_loop_map())


@lru_cache(maxsize=None)
def circle_cycle():
    return fundamental_cycle(circle())


@lru_cache(maxsize=None)
def torsion_loop():
    """Order-2 generator of H_1(RP2_6): the boundary of the missing face."""
    return projective_plane().chain(1, {(0, 1): 1, (1, 2): 1, (0, 2): -1})


@lru_cache(maxsize=None)
def vertex_difference():
    return circle().chain(0, {(1,): 1, (0,): -1})


@lru_cache(maxsize=None)
def gamma_first():
    """The first circle factor of the torus at height vertex 0."""
    v0 = circle().chain(0, {(0,): 1})
    return ez(circle_cycle(), v0, torus())


@lru_cache(maxsize=None)
def gamma_second():
    """The second circle factor of the torus over vertex 0."""
    v0 = circle().chain(0, {(0,): 1})
    return ez(v0, circle_cycle(), torus())


@lru_cache(maxsize=None)
def torus_cycle():
    return ez(circle_cycle(), circle_cycle(), torus())


@lru_cache(maxsize=None)
def rotation_homotopy():
    """Homotopy between two degree-1 circle maps differing by rotation.

    No staircase prism with source circle() supports a nonconstant homotopy
    (each prism triangle pins the next layer to the previous one), so the
    rotation is realized on the hexagonal subdivision: f1 equals f0
    precomposed with the one-step hexagon shift.  Returns (f0, f1, H).
    """
    hexa = hexagon()
    S1 = circle()
    prism = staircase_product(hexa, path_complex(3))
    rows = [
        (0, 0, 1, 1, 2, 2),
        (2, 0, 1, 1, 2, 2),
        (2, 0, 0, 1, 2, 2),
        (2, 0, 0, 1, 1, 2),
    ]
    vm = [0] * prism.num_vertices
    for u in range(6):
        for j in range(4):
            vm[prism.encode(u, j)] = rows[j][u]
    H = SimplicialMap(prism, S1, vm)
    f0 = SimplicialMap(hexa, S1, rows[0])
    f1 = SimplicialMap(hexa, S1, rows[3])
    return f0, f1, H


@lru_cache(maxsize=None)
def projection_homotopy():
    """The constant homotopy of the identity of the sphere."""
    S2 = sphere()
    prism = staircase_product(S2, interval())
    vm = [prism.decode(w)[0] for w in range(prism.num_vertices)]
    H = SimplicialMap(prism, S2, vm)
    ident = SimplicialMap(S2, S2, list(range(4)))
    return ident, ident, H


_COMPLEXES = {
    "point": point,
    "two_points": two_points,
    "interval": interval,
    "S1_3": circle,
    "S1_6": hexagon,
    "S2_4": sphere,
    "S2_4p": suspension_sphere,
    "S2_4'": suspension_sphere,
    "T2_9": torus,
    "RP2_6": projective_plane,
    "Klein_K": klein_bottle,
}

_CHARACTERS = {
    "i": winding_character,
    "ixi": torus_character,
    "ju": rp2_flat_character,
    "j(u)": rp2_flat_character,
}

_CHAINS = {
    "circle_fund": circle_cycle,
    "v1_minus_v0": vertex_difference,
    "gamma1": gamma_first,
    "gamma2": gamma_second,
    "torus_fund": torus_cycle,
    "torsion_loop": torsion_loop,
}

_MAPS = {
    "equator": equator_map,
    "torsion_loop": torsion_loop_map,
}


class UnknownFixture(KeyError):
    """The requested bundled fixture name does not exist."""

    def __str__(self):
        # The message itself, not KeyError's quoted repr of it.
        return self.args[0]


def _lookup(table, name, kind):
    try:
        build = table[name]
    except KeyError:
        known = ", ".join(sorted(set(table)))
        raise UnknownFixture(f"unknown {kind} {name!r}; bundled: {known}") from None
    return build()


def complex_by_name(name):
    return _lookup(_COMPLEXES, name, "complex")


def character_by_name(name):
    return _lookup(_CHARACTERS, name, "character")


def chain_by_name(name):
    return _lookup(_CHAINS, name, "chain")


def map_by_name(name):
    return _lookup(_MAPS, name, "map")


def complex_names():
    return sorted(set(_COMPLEXES))

