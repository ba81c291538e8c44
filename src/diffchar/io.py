"""JSON encoding of complexes, chains, cochains, maps, and characters.

Builders return plain dicts; parsers take the dict plus whatever ambient
objects the format leaves implicit (a cochain file does not name its
complex, so the caller supplies one).  All fractions travel as "p/q"
strings, never floats, and simplices as "[v0,v1,...]" keys; a parser also
reads a JSON integer as a value, but no float or boolean.  A character of
degree k <= 0 is its integral cocycle, so its file holds only that cocycle,
of degree k, and reads back as `DiffChar(cocycle, zero_cochain(K, k - 1))`.
"""

from __future__ import annotations

import json
from fractions import Fraction

from diffchar.simplicial import MAX_FACES, Complex, SimplicialMap, maximal_simplices
from diffchar.cochain import Cochain, zero_cochain
from diffchar.characters import DiffChar


class FormatError(ValueError):
    """The JSON document does not match the expected shape."""


def fraction_to_str(x):
    return str(Fraction(x))


def parse_fraction(s):
    # Fraction reads a float or a boolean, but neither is an exact value.
    if isinstance(s, (bool, float)):
        raise FormatError(f"bad fraction {s!r}: values are integers or 'p/q' strings")
    # An exponent such as "1e999999999" would cost unbounded time to expand.
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise FormatError(f"bad fraction {s!r}: exponents are not accepted")
    try:
        return Fraction(s)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise FormatError(f"bad fraction {s!r}: {exc}") from None


def simplex_key(s):
    return json.dumps(list(s), separators=(",", ":"))


def _is_vertex_list(x):
    return isinstance(x, list) and all(type(v) is int for v in x)


def parse_simplex(key):
    try:
        vertices = json.loads(key)
    except (json.JSONDecodeError, RecursionError):
        raise FormatError(f"bad simplex key {key!r}") from None
    if not _is_vertex_list(vertices):
        raise FormatError(f"bad simplex key {key!r}")
    return tuple(vertices)


_SHAPES = {int: "an integer", list: "a list", dict: "an object"}


def _require(obj, field, kind, shape=None):
    """obj[field]; given a shape from _SHAPES, the value must be of exactly
    that type, so a JSON boolean is not an integer."""
    if not isinstance(obj, dict):
        raise FormatError(f"{kind} must be a JSON object")
    if field not in obj:
        raise FormatError(f"{kind} is missing field {field!r}")
    value = obj[field]
    if shape and type(value) is not shape:
        raise FormatError(f"{kind} field {field!r} must be {_SHAPES[shape]}")
    return value


def complex_to_json(complex):
    """The complex as complex_from_json reads it; one it would refuse raises
    FormatError, so io writes only what it reads back."""
    simplices = [list(s) for s in maximal_simplices(complex)]
    _check_size(complex.num_vertices, simplices)
    return {"name": complex.name, "vertices": complex.num_vertices, "simplices": simplices}


# MAX_FACES bounds the faces that closing the listed simplices may produce,
# counted as the sum of 2^|s| - 1 before the closure runs.  It sits well
# above every product of bundled complexes (T2_9 x RP2_6 counts 92,016 with
# all its simplices listed) and below the 262,143 faces of one 18-vertex
# simplex, whose closure alone takes over a second and doubles with each
# extra vertex.  It also bounds the vertex count, which sizes every table
# indexed by vertex (an identity map, the components); T2_9 x RP2_6 has 54
# vertices.  `simplicial` defines it, and the `Complex` constructor refuses
# a vertex count past it too.


def _check_size(vertices, simplices):
    """Refuse a vertex count or listed simplices past the bounds above."""
    if not 0 <= vertices <= MAX_FACES:
        raise FormatError(f"complex has {vertices} vertices, not in [0, {MAX_FACES}]")
    faces = sum((1 << len(s)) - 1 for s in simplices)
    if faces > MAX_FACES:
        raise FormatError(f"closing the simplices gives up to {faces} faces, "
                          f"more than {MAX_FACES}")


def complex_from_json(obj):
    vertices = _require(obj, "vertices", "complex", int)
    simplices = _require(obj, "simplices", "complex", list)
    name = obj.get("name", "")
    if not all(map(_is_vertex_list, simplices)):
        raise FormatError("complex simplices must be lists of integer vertices")
    _check_size(vertices, simplices)
    try:
        return Complex(vertices, [tuple(s) for s in simplices], name)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad complex: {exc}") from None


def chain_to_json(chain):
    return {
        "degree": chain.degree,
        "coeffs": {simplex_key(s): c for s, c in sorted(chain.coeffs.items())},
    }


def chain_from_json(obj, complex):
    degree = _require(obj, "degree", "chain", int)
    coeffs = {}
    for key, c in _require(obj, "coeffs", "chain", dict).items():
        if type(c) is not int:
            raise FormatError(f"chain coefficient for {key} must be an integer")
        coeffs[parse_simplex(key)] = c
    try:
        return complex.chain(degree, coeffs)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad chain: {exc}") from None


def cochain_to_json(cochain):
    return {
        "degree": cochain.degree,
        "values": {
            simplex_key(s): fraction_to_str(v)
            for s, v in sorted(cochain.coeffs.items())
        },
    }


def cochain_from_json(obj, complex, ring="Q"):
    degree = _require(obj, "degree", "cochain", int)
    values = {}
    for key, v in _require(obj, "values", "cochain", dict).items():
        values[parse_simplex(key)] = parse_fraction(v)
    try:
        return Cochain(complex, degree, values, ring)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad cochain: {exc}") from None


def map_to_json(phi):
    return {"vertex_map": list(phi.vertex_map)}


def map_from_json(obj, source, target):
    vm = _require(obj, "vertex_map", "simplicial map")
    if not _is_vertex_list(vm):
        raise FormatError("simplicial map vertex_map must be a list of integers")
    try:
        return SimplicialMap(source, target, vm)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad simplicial map: {exc}") from None


def character_to_json(h):
    if h.degree <= 0:
        return {"degree": h.degree, "cocycle": cochain_to_json(h.mu)}
    return {
        "degree": h.degree,
        "curvature": cochain_to_json(h.curvature),
        "lift": cochain_to_json(h.lift),
    }


def character_from_json(obj, complex):
    degree = _require(obj, "degree", "character", int)
    if degree <= 0:
        cocycle = cochain_from_json(
            _require(obj, "cocycle", "character"), complex, "Z"
        )
        if cocycle.degree != degree:
            raise FormatError(
                f"character of degree {degree} has a cocycle of degree {cocycle.degree}"
            )
        return DiffChar(cocycle, zero_cochain(complex, degree - 1))
    curvature = cochain_from_json(_require(obj, "curvature", "character"), complex)
    lift = cochain_from_json(_require(obj, "lift", "character"), complex)
    return DiffChar(curvature, lift)


def rel_character_to_json(f):
    return {
        "degree": f.degree,
        "curvature": cochain_to_json(f.curvature),
        "cov": cochain_to_json(f.cov),
        "lift_x": cochain_to_json(f.lift_x),
        "lift_a": cochain_to_json(f.lift_a),
        "map": map_to_json(f.phi),
    }


def rel_character_from_json(obj, cone):
    # Imported here: only relative characters need the relative module.
    from diffchar.relative import RelChar

    phi = cone.phi
    X, A = phi.target, phi.source
    stored = _require(obj, "map", "relative character")
    if _require(stored, "vertex_map", "stored map") != list(phi.vertex_map):
        raise FormatError("stored map does not match the mapping cone")
    curvature = cochain_from_json(
        _require(obj, "curvature", "relative character"), X
    )
    cov = cochain_from_json(_require(obj, "cov", "relative character"), A)
    lift_x = cochain_from_json(_require(obj, "lift_x", "relative character"), X)
    lift_a = cochain_from_json(_require(obj, "lift_a", "relative character"), A)
    return RelChar(cone, curvature, cov, lift_x, lift_a)


def dumps(obj):
    """Canonical serialization: sorted keys, two-space indent, newline end."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
