"""JSON round trips and command line behavior, including exit codes."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import diffchar
from diffchar import fixtures, io
from diffchar.cli import main
from diffchar.simplicial import (
    Complex,
    SimplicialMap,
    identity_map,
    mapping_cone,
    maximal_simplices,
    staircase_product,
)
from diffchar.cochain import Cochain, zero_cochain
from diffchar.characters import DiffChar, iota, random_character
from diffchar.fiber_integration import (
    boundary_fiber_integrate,
    fiber_integrate,
    product_transfer,
)
from diffchar.relative import find_section


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- serialization round trips ------------------------------------------------


def test_fraction_strings_round_trip():
    for x in (Fraction(0), Fraction(1, 3), Fraction(-7, 2), Fraction(5)):
        assert io.parse_fraction(io.fraction_to_str(x)) == x


def test_complex_round_trip_over_all_fixtures():
    for name in fixtures.complex_names():
        K = fixtures.complex_by_name(name)
        assert io.complex_from_json(io.complex_to_json(K)) == K


def test_chain_round_trip():
    for z in (fixtures.gamma_first(), fixtures.torsion_loop(),
              fixtures.vertex_difference()):
        back = io.chain_from_json(io.chain_to_json(z), z.complex)
        assert back == z


def test_cochain_round_trip():
    rng = random.Random(71)
    h = random_character(fixtures.projective_plane(), 2, rng)
    for c in (h.curvature, h.lift, h.mu):
        back = io.cochain_from_json(io.cochain_to_json(c), c.complex)
        assert back == c


def test_map_round_trip():
    phi = fixtures.torsion_loop_map()
    back = io.map_from_json(io.map_to_json(phi), phi.source, phi.target)
    assert back == phi


_VERTEX = st.one_of(st.integers(0, 2), st.booleans())


@settings(max_examples=60, deadline=None)
@given(num_vertices=st.just(3),
       simplices=st.lists(st.lists(_VERTEX, min_size=1, max_size=3), max_size=4))
@example(num_vertices=True, simplices=[[0]])
@example(num_vertices=2.0, simplices=[[0]])
@example(num_vertices=-3, simplices=[])
def test_complexes_the_constructor_accepts_read_back(num_vertices, simplices):
    """A bool passes isinstance(v, int), but io writes it as a JSON boolean
    and refuses that on reading, so the constructor refuses it too, as a
    vertex or as the vertex count, and refuses a float or negative count."""
    try:
        K = Complex(num_vertices, simplices)
    except ValueError:
        assert type(num_vertices) is not int or num_vertices < 0 or any(
            type(v) is bool for s in simplices for v in s) or any(
            list(s) != sorted(set(s)) for s in simplices)
        return
    assert io.complex_from_json(json.loads(json.dumps(io.complex_to_json(K)))) == K


@settings(max_examples=60, deadline=None)
@given(st.lists(_VERTEX, min_size=3, max_size=3))
def test_maps_the_constructor_accepts_read_back(vertex_map):
    S1 = fixtures.circle()
    try:
        phi = SimplicialMap(S1, S1, vertex_map)
    except ValueError:
        return
    obj = json.loads(json.dumps(io.map_to_json(phi)))
    assert io.map_from_json(obj, S1, S1) == phi



def test_character_round_trip():
    rng = random.Random(73)
    for name in ("S1_3", "T2_9", "RP2_6"):
        K = fixtures.complex_by_name(name)
        h = random_character(K, 1, rng)
        assert io.character_from_json(io.character_to_json(h), K) == h


def test_relative_character_round_trip():
    cone = fixtures.equator_cone()
    rng = random.Random(79)
    s = find_section(random_character(cone.phi.target, 2, rng), cone)
    back = io.rel_character_from_json(io.rel_character_to_json(s), cone)
    assert back == s


# -- commands -----------------------------------------------------------------


def test_homology_torus(capsys):
    code, rep = _run(capsys, ["homology", "--complex", "T2_9", "--degree", "1"])
    assert code == 0
    assert rep["result"]["betti"] == 2
    assert rep["result"]["torsion"] == []
    assert len(rep["result"]["generators"]) == 2


def test_homology_projective_plane(capsys):
    code, rep = _run(capsys, ["homology", "--complex", "RP2_6", "--degree", "1"])
    assert code == 0
    assert rep["result"]["betti"] == 0
    assert rep["result"]["torsion"] == [2]


def test_homology_point(capsys):
    code, rep = _run(capsys, ["homology", "--complex", "point", "--degree", "0"])
    assert code == 0
    assert rep["result"]["betti"] == 1


def test_eval_winding(capsys):
    code, rep = _run(capsys, ["eval", "--character", "i", "--chain", "v1_minus_v0"])
    assert code == 0
    assert rep["result"]["phase"] == "1/3"


def test_eval_torus_loops(capsys):
    for chain in ("gamma1", "gamma2"):
        code, rep = _run(capsys, ["eval", "--character", "ixi", "--chain", chain])
        assert code == 0
        assert rep["result"]["phase"] == "0"


def test_eval_degree_mismatch_is_an_input_error(capsys):
    code, rep = _run(capsys, ["eval", "--character", "i", "--chain", "circle_fund"])
    assert code == 2
    assert rep["error"] == "a degree-1 character evaluates on cycles of degree 0, not 1"


def test_eval_rejects_non_cycles(capsys, tmp_path):
    chain = tmp_path / "open.json"
    chain.write_text(json.dumps({"degree": 1, "coeffs": {"[0,1]": 1}}))
    code, rep = _run(capsys, ["eval", "--character", "ju",
                              "--complex", "RP2_6", "--chain", str(chain)])
    assert code == 2
    assert "not a cycle" in rep["error"]


def test_iota_command(capsys, tmp_path):
    S1 = fixtures.circle()
    eta = Cochain(S1, 0, {(1,): Fraction(1, 3), (2,): Fraction(2, 3)}, "Q")
    f = tmp_path / "eta.json"
    f.write_text(json.dumps(io.cochain_to_json(eta)))
    code, rep = _run(capsys, ["iota", "--complex", "S1_3", "--cochain", str(f)])
    assert code == 0
    h = io.character_from_json(rep["result"]["character"], S1)
    assert h == iota(eta)


def test_j_command(capsys, tmp_path):
    ju = fixtures.rp2_flat_character()
    f = tmp_path / "u.json"
    f.write_text(json.dumps(io.cochain_to_json(ju.lift)))
    code, rep = _run(capsys, ["j", "--complex", "RP2_6", "--cochain", str(f)])
    assert code == 0
    h = io.character_from_json(rep["result"]["character"], fixtures.projective_plane())
    assert h == ju


def test_product_command(capsys):
    code, rep = _run(capsys, ["product", "--complex", "RP2_6",
                              "--character", "ju", "--character", "ju"])
    assert code == 0
    h = io.character_from_json(rep["result"]["character"], fixtures.projective_plane())
    assert h.degree == 4


def test_xproduct_command(capsys):
    from diffchar.cochain import pair
    from diffchar.simplicial import fundamental_cycle

    code, rep = _run(capsys, ["xproduct", "--character", "i", "--character", "i"])
    assert code == 0
    P = io.complex_from_json(rep["result"]["product_complex"])
    h = io.character_from_json(rep["result"]["character"], P)
    assert h.degree == 2
    # total curvature is the winding product; sign follows the chosen orientation
    assert pair(h.curvature, fundamental_cycle(P)) in (1, -1)


def test_fiber_integrate_command(capsys):
    code, rep = _run(capsys, ["fiber-integrate", "--character", "ixi",
                              "--complex", "S1_3", "--fiber", "S1_3"])
    assert code == 0
    h = io.character_from_json(rep["result"]["character"], fixtures.circle())
    assert h == fixtures.winding_character()


def test_boundary_fiber_integrate_command(capsys, tmp_path):
    S1 = fixtures.circle()
    E = staircase_product(S1, fixtures.interval())
    rng = random.Random(83)
    h = random_character(E, 2, rng)
    f = tmp_path / "h.json"
    f.write_text(json.dumps(io.character_to_json(h)))
    code, rep = _run(capsys, ["boundary-fiber-integrate", "--character", str(f),
                              "--complex", "S1_3", "--fiber", "interval"])
    assert code == 0
    cone = mapping_cone(identity_map(S1))
    rel = io.rel_character_from_json(rep["result"]["relative"], cone)
    cov = io.cochain_from_json(rep["result"]["cov"], S1)
    assert rel.cov == cov


def test_boundary_fiber_integrate_over_a_closed_fiber(capsys):
    code, rep = _run(capsys, ["boundary-fiber-integrate", "--character", "ixi",
                              "--complex", "S1_3", "--fiber", "S1_3"])
    assert code == 0
    over = io.character_from_json(rep["result"]["over_boundary"], fixtures.circle())
    assert over.degree == 2
    assert over.is_zero()


# A fixture character on a plain complex equal to a degenerate product:
# S1_3 and RP2_6 are point x S1_3, S1_3 x point and RP2_6 x point.
_DEGENERATE_PRODUCTS = [("i", "point", "S1_3"), ("i", "S1_3", "point"),
                        ("ju", "RP2_6", "point")]


@pytest.mark.parametrize("command", ["fiber-integrate", "boundary-fiber-integrate"])
@pytest.mark.parametrize("character, base, fiber", _DEGENERATE_PRODUCTS)
def test_characters_on_degenerate_products_integrate(capsys, command, character, base,
                                                     fiber):
    """The answer is the one for the character read onto the product itself."""
    code, rep = _run(capsys, [command, "--character", character, "--complex", base,
                              "--fiber", fiber])
    assert code == 0, rep
    B, F = fixtures.complex_by_name(base), fixtures.complex_by_name(fiber)
    tr = product_transfer(B, F, total=staircase_product(B, F))
    h = io.character_from_json(
        io.character_to_json(fixtures.character_by_name(character)), tr.total)
    if command == "fiber-integrate":
        want = {"character": io.character_to_json(fiber_integrate(h, tr))}
    else:
        out = boundary_fiber_integrate(h, tr)
        want = {"over_boundary": io.character_to_json(out.over_boundary),
                "cov": io.cochain_to_json(out.cov),
                "relative": io.rel_character_to_json(out.relative)}
    assert rep["result"] == want
    if (command, base) == ("fiber-integrate", "point"):
        assert want["character"] == {
            "degree": 0, "cocycle": {"degree": 0, "values": {"[0]": "1"}}}


@pytest.mark.parametrize("degree, stated", [(0, 1), (-1, 0), (-1, -2), (-2, 0)])
def test_low_degree_character_files_state_their_cocycle_degree(
        capsys, tmp_path, degree, stated):
    """A cocycle of another degree is refused, not dropped or read as zero."""
    S1 = fixtures.circle()
    doc = {"degree": degree, "cocycle": {
        "degree": stated, "values": {io.simplex_key(s): "1" for s in S1.simplices(stated)}}}
    refusal = f"character of degree {degree} has a cocycle of degree {stated}"
    with pytest.raises(io.FormatError) as caught:
        io.character_from_json(doc, S1)
    assert str(caught.value) == refusal
    code, rep = _run_with_file(capsys, tmp_path, [
        "eval", "--character", "{}", "--complex", "S1_3", "--chain", "v1_minus_v0"], doc)
    assert code == 2
    assert rep["error"] == refusal


# Each command fed a well-formed character of degree 0 or -1.  "{char}" is
# a character file on the complex named next to it, "{map}" the identity
# map of S1_3.
_LOW_DEGREE_ARGS = {
    "eval": ("S1_3", ["eval", "--character", "{char}", "--complex", "S1_3",
                      "--chain", "v1_minus_v0"]),
    "product": ("S1_3", ["product", "--character", "{char}", "--character", "i",
                         "--complex", "S1_3"]),
    "xproduct": ("S1_3", ["xproduct", "--character", "i", "--character", "{char}",
                          "--complex", "S1_3", "--complex", "S1_3"]),
    "fiber-integrate point": ("S1_3 x point", [
        "fiber-integrate", "--character", "{char}", "--complex", "S1_3",
        "--fiber", "point"]),
    "fiber-integrate interval": ("S1_3 x interval", [
        "fiber-integrate", "--character", "{char}", "--complex", "S1_3",
        "--fiber", "interval"]),
    "boundary-fiber-integrate": ("S1_3 x interval", [
        "boundary-fiber-integrate", "--character", "{char}", "--complex", "S1_3"]),
    "find-section": ("S1_3", ["find-section", "--character", "{char}", "--map", "{map}",
                              "--map-source", "S1_3", "--complex", "S1_3"]),
    "holonomy": ("S1_3", ["holonomy", "--character", "{char}", "--map", "{map}",
                          "--map-source", "S1_3", "--complex", "S1_3",
                          "--chain", "v1_minus_v0"]),
}


@pytest.mark.parametrize("degree", [0, -1])
@pytest.mark.parametrize("command", sorted(_LOW_DEGREE_ARGS))
def test_low_degree_characters_are_input_not_faults(capsys, tmp_path, command, degree):
    where, template = _LOW_DEGREE_ARGS[command]
    S1 = fixtures.circle()
    K = S1 if where == "S1_3" else staircase_product(
        S1, fixtures.complex_by_name(where.split(" x ")[1]))
    values = {v: 2 for v in K.simplices(0)} if degree == 0 else {}
    char = tmp_path / "char.json"
    char.write_text(json.dumps(io.character_to_json(
        DiffChar(Cochain(K, degree, values, "Z"), zero_cochain(K, degree - 1)))))
    id_map = tmp_path / "id.json"
    id_map.write_text(json.dumps(io.map_to_json(identity_map(S1))))
    argv = [a.format(char=char, map=id_map) for a in template]
    code = main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert isinstance(rep, dict)
    assert code in (0, 1, 2), rep
    if command == "find-section":
        assert code == 2
    if command == "fiber-integrate point" and degree == -1:
        assert code == 0
        assert rep["result"]["character"] == io.character_to_json(
            DiffChar(zero_cochain(S1, -1), zero_cochain(S1, -2)))


def test_find_section_success(capsys):
    code, rep = _run(capsys, ["find-section", "--character", "ju",
                              "--map", "torsion_loop"])
    assert code == 0
    assert rep["result"]["section"] is not None


def test_find_section_obstruction(capsys, tmp_path):
    f = tmp_path / "id.json"
    f.write_text(json.dumps({"vertex_map": [0, 1, 2, 3, 4, 5]}))
    code, rep = _run(capsys, ["find-section", "--character", "ju",
                              "--map", str(f),
                              "--map-source", "RP2_6", "--complex", "RP2_6"])
    assert code == 1
    assert rep["result"]["section"] is None
    witness = io.cochain_from_json(rep["result"]["obstruction"],
                                   fixtures.projective_plane())
    assert witness.value((3, 4, 5)) == -1


def test_holonomy_command(capsys):
    code, rep = _run(capsys, ["holonomy", "--character", "ju",
                              "--map", "torsion_loop", "--chain", "circle_fund"])
    assert code == 0
    assert rep["result"]["phase"] == "1/2"


def test_verify_command(capsys):
    code, rep = _run(capsys, ["verify", "--suite", "relative-exact"])
    assert code == 0
    assert rep["result"]["pass"] is True
    assert all(c["pass"] for c in rep["result"]["checks"])


def test_verify_unknown_suite(capsys):
    code, rep = _run(capsys, ["verify", "--suite", "nope"])
    assert code == 2
    assert "nope" in rep["error"]


_SUITES = ("bb-oracle, boundary-fiber, diagram33, fiber-axioms, holonomy, product-axioms, "
           "relative-exact, updown")


@pytest.mark.parametrize("argv, message", [
    (["homology", "--degree", "1"], "--complex is required for this command"),
    (["eval", "--chain", "circle_fund"], "--character is required for this command"),
    (["eval", "--character", "i"], "--chain is required for this command"),
    (["find-section", "--character", "ju"], "--map is required for this command"),
    (["homology", "--complex", "S1_3"], "--degree is required for homology"),
    (["iota", "--complex", "S1_3"], "--cochain is required for iota"),
    (["j", "--complex", "S1_3"], "--cochain is required for j"),
    (["verify"], "--suite is required; available: " + _SUITES),
    (["find-section", "--character", "ju", "--map", "phi.json"],
     "a map file needs --map-source"),
    (["product", "--character", "i"], "give --character twice: the two factors in order"),
    (["product", "--character", "i", "--character", "ixi"],
     "internal product factors must share a complex"),
    (["eval", "--character", "i", "--chain", "torus_fund"],
     "character and chain live on different complexes"),
    (["find-section", "--character", "i", "--map", "equator"],
     "character must live on the map's target"),
    (["fiber-integrate", "--character", "ixi", "--complex", "S1_3"],
     "character does not live on the staircase product of --complex and --fiber"),
])
def test_missing_and_mismatched_inputs_are_refused(capsys, argv, message):
    """Each refusal exits 2 with its own text and no traceback."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"command": argv[0], "error": message}
    assert captured.err == ""


def test_a_chain_file_is_read_on_the_characters_complex(capsys, tmp_path):
    chain = tmp_path / "z.json"
    chain.write_text(json.dumps(io.chain_to_json(fixtures.chain_by_name("v1_minus_v0"))))
    phases = []
    for context in ([], ["--complex", "S1_3"]):
        code, rep = _run(capsys, ["eval", "--character", "i", "--chain", str(chain)] + context)
        assert code == 0
        phases.append(rep["result"]["phase"])
    assert phases == ["1/3", "1/3"]


def test_unknown_fixture_is_an_input_error(capsys):
    """The error is the plain sentence, not KeyError's quoted repr of it."""
    code, rep = _run(capsys, ["homology", "--complex", "S3_9000", "--degree", "1"])
    assert code == 2
    assert rep["error"] == (
        "unknown complex 'S3_9000'; bundled: Klein_K, RP2_6, S1_3, S1_6, S2_4, S2_4', "
        "S2_4p, T2_9, interval, point, two_points"
    )
    code, rep = _run(capsys, ["eval", "--character", "i", "--chain", "vertex_difference"])
    assert code == 2
    assert rep["error"] == (
        "unknown chain 'vertex_difference'; bundled: circle_fund, gamma1, gamma2, "
        "torsion_loop, torus_fund, v1_minus_v0"
    )


def test_malformed_json_reports_the_line(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"degree": 1,\n  "values": }')
    code, rep = _run(capsys, ["iota", "--complex", "S1_3", "--cochain", str(f)])
    assert code == 2
    assert "line 2" in rep["error"]


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, rep = _run(capsys, ["eval", "--character", str(tmp_path / "gone.json"),
                              "--complex", "S1_3", "--chain", "v1_minus_v0"])
    assert code == 2
    assert "no such file" in rep["error"]


def test_oversized_complex_is_an_input_error(capsys, tmp_path):
    # One 18-vertex simplex closes to 262,143 faces; it is refused unbuilt.
    f = tmp_path / "simplex18.json"
    f.write_text(json.dumps({"vertices": 18, "simplices": [list(range(18))]}))
    start = time.perf_counter()
    code, rep = _run(capsys, ["homology", "--complex", str(f), "--degree", "1"])
    assert code == 2
    assert "faces" in rep["error"]
    assert time.perf_counter() - start < 1.0


def _run_with_file(capsys, tmp_path, argv, document, text=None):
    """Run argv with "{}" replaced by a file holding the document."""
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(document) if text is None else text)
    return _run(capsys, [str(f) if a == "{}" else a for a in argv])


COMPLEX_ARGS = ["homology", "--complex", "{}", "--degree", "1"]
CHAIN_ARGS = ["eval", "--character", "i", "--complex", "S1_3", "--chain", "{}"]
COCHAIN_ARGS = ["iota", "--complex", "S1_3", "--cochain", "{}"]
MAP_ARGS = ["find-section", "--map", "{}", "--map-source", "S1_3",
            "--complex", "S1_3", "--character", "i"]


@pytest.mark.parametrize("argv", [COMPLEX_ARGS, CHAIN_ARGS, COCHAIN_ARGS, MAP_ARGS])
@pytest.mark.parametrize("document", [None, 3, [], "x"])
def test_non_object_document_is_an_input_error(capsys, tmp_path, argv, document):
    code, rep = _run_with_file(capsys, tmp_path, argv, document)
    assert code == 2
    assert "must be a JSON object" in rep["error"]


@pytest.mark.parametrize("argv, document", [
    (CHAIN_ARGS, {"degree": 1, "coeffs": [1]}),
    (COCHAIN_ARGS, {"degree": 0, "values": [1]}),
])
def test_coefficients_must_be_an_object(capsys, tmp_path, argv, document):
    code, rep = _run_with_file(capsys, tmp_path, argv, document)
    assert code == 2
    assert "must be an object" in rep["error"]


@pytest.mark.parametrize("degree", ["1", 1.0, True, None])
@pytest.mark.parametrize("argv, document", [
    (CHAIN_ARGS, {"coeffs": {}}),
    (COCHAIN_ARGS, {"values": {}}),
])
def test_degree_must_be_a_json_integer(capsys, tmp_path, argv, document, degree):
    code, rep = _run_with_file(capsys, tmp_path, argv, dict(document, degree=degree))
    assert code == 2
    assert "'degree' must be an integer" in rep["error"]


@pytest.mark.parametrize("argv, document, text", [
    # Booleans are not vertices or coefficients, so they cannot reach a report.
    pytest.param(COMPLEX_ARGS, {"vertices": 2, "simplices": [[False, True]]}, None,
                 id="boolean-vertices"),
    pytest.param(MAP_ARGS, {"vertex_map": [0, True, 2]}, None, id="boolean-image"),
    pytest.param(CHAIN_ARGS, {"degree": 0, "coeffs": {"[1]": True, "[0]": -1}}, None,
                 id="boolean-coefficient"),
    # Values that Fraction cannot take, or takes seconds to expand.
    pytest.param(COCHAIN_ARGS, {"degree": 0, "values": {"[0]": None}}, None,
                 id="null-value"),
    pytest.param(COCHAIN_ARGS, None, '{"degree": 0, "values": {"[0]": Infinity}}',
                 id="infinite-value"),
    pytest.param(COCHAIN_ARGS, {"degree": 0, "values": {"[0]": "1e5000000"}}, None,
                 id="exponent-value"),
    # Values are exact: Fraction would read true as 1 and 0.1 as a binary float.
    pytest.param(COCHAIN_ARGS, {"degree": 0, "values": {"[0]": True}}, None,
                 id="boolean-value"),
    pytest.param(COCHAIN_ARGS, {"degree": 0, "values": {"[0]": 0.1}}, None,
                 id="float-value"),
    pytest.param(COMPLEX_ARGS, None, "[" * 100000 + "]" * 100000, id="deep-nesting"),
])
def test_hostile_json_values_are_input_errors(capsys, tmp_path, argv, document, text):
    start = time.perf_counter()
    code, rep = _run_with_file(capsys, tmp_path, argv, document, text)
    assert code == 2
    assert "internal" not in rep
    assert time.perf_counter() - start < 1.0


def test_directory_is_an_input_error(capsys, tmp_path):
    code, rep = _run(capsys, ["homology", "--complex", str(tmp_path) + "/",
                              "--degree", "0"])
    assert code == 2
    assert "cannot read" in rep["error"]


def test_vertex_count_is_bounded():
    for vertices in (10**12, io.MAX_FACES + 1, -1, "x", 2.0):
        with pytest.raises(io.FormatError):
            io.complex_from_json({"vertices": vertices, "simplices": [[0, 1]]})
    K = io.complex_from_json({"vertices": io.MAX_FACES, "simplices": [[0, 1]]})
    assert K.num_vertices == io.MAX_FACES


def test_io_writes_no_complex_it_would_refuse_to_read():
    """The constructor bounds the vertex count but not the faces that closing
    the listed simplices makes, and a product refuses more vertices or faces
    than io reads, so the wide complex comes from the trusted builder; io
    refuses to write what it would refuse to read."""
    with pytest.raises(ValueError, match="the product would have 131406 vertices"):
        staircase_product(Complex(363, []), Complex(362, []))
    wide = object.__new__(Complex)
    wide._of(363 * 362, {}, "")
    dense = Complex(100, combinations(range(100), 3))
    for K, refusal in ((wide, "131406 vertices"), (dense, "1131900 faces")):
        with pytest.raises(io.FormatError, match=refusal):
            io.complex_to_json(K)
        with pytest.raises(io.FormatError, match=refusal):
            io.complex_from_json({"vertices": K.num_vertices,
                                  "simplices": [list(s) for s in maximal_simplices(K)]})


def test_vertex_count_bound_fails_fast(capsys, tmp_path):
    K = tmp_path / "wide.json"
    K.write_text(json.dumps({"vertices": 2_000_000, "simplices": [[0, 1]]}))
    h = tmp_path / "zero.json"
    h.write_text(json.dumps({"degree": 2, "curvature": {"degree": 2, "values": {}},
                             "lift": {"degree": 1, "values": {}}}))
    start = time.perf_counter()
    code, rep = _run(capsys, ["boundary-fiber-integrate", "--complex", str(K),
                              "--fiber", "interval", "--character", str(h)])
    assert code == 2
    assert "vertices" in rep["error"]
    assert time.perf_counter() - start < 1.0



@pytest.mark.parametrize("command", ["xproduct", "fiber-integrate",
                                     "boundary-fiber-integrate"])
def test_oversized_products_fail_fast(capsys, tmp_path, command):
    # Each 1,000-vertex circle is well under the face bound; their staircase
    # product would have 6,000,000 faces and is refused unbuilt.
    n = 1000
    K = tmp_path / "circle.json"
    K.write_text(json.dumps({"vertices": n,
                             "simplices": [[i, i + 1] for i in range(n - 1)] + [[0, n - 1]]}))
    h = tmp_path / "zero.json"
    h.write_text(json.dumps({"degree": 0, "cocycle": {"degree": 0, "values": {}}}))
    if command == "xproduct":
        argv = ["--complex", str(K), "--complex", str(K),
                "--character", str(h), "--character", str(h)]
    else:
        argv = ["--complex", str(K), "--fiber", str(K), "--character", str(h)]
    start = time.perf_counter()
    code, rep = _run(capsys, [command, *argv])
    assert code == 2
    assert "6000000 faces" in rep["error"]
    assert time.perf_counter() - start < 1.0


def test_product_of_many_isolated_vertices_is_written_fast(capsys, tmp_path):
    # 4,000 isolated vertices pass every io.MAX_FACES check; writing out the
    # maximal simplices of their product with a point took 12 s when each
    # simplex was tested against every vertex as a coface.
    n = 4000
    K = tmp_path / "vertices.json"
    K.write_text(json.dumps({"vertices": n, "simplices": [[i] for i in range(n)]}))
    h = tmp_path / "zero.json"
    h.write_text(json.dumps({"degree": 0, "cocycle": {"degree": 0, "values": {}}}))
    start = time.perf_counter()
    code, rep = _run(capsys, ["xproduct", "--complex", str(K), "--complex", "point",
                              "--character", str(h), "--character", str(h)])
    assert code == 0
    assert rep["result"]["product_complex"]["simplices"] == [[i] for i in range(n)]
    assert time.perf_counter() - start < 3.0


_json_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
# Documents with the expected keys.  Each value is either random or of the
# right shape with small entries, so that some documents reach the
# computations on S1_3.
_vertex_lists = st.lists(st.integers(-1, 3), max_size=4)
_simplex_keys = st.sampled_from(["[0]", "[1]", "[2]", "[0,1]", "[0,2]", "[1,2]", "[3]"])
_degrees = st.integers(-1, 2) | _json_documents
_keyed_documents = st.one_of(
    st.fixed_dictionaries({
        "vertices": st.integers(-1, 4) | _json_documents,
        "simplices": st.lists(_vertex_lists, max_size=4) | _json_documents}),
    st.fixed_dictionaries({
        "degree": _degrees,
        "coeffs": st.dictionaries(_simplex_keys, st.integers(-3, 3)) | _json_documents}),
    st.fixed_dictionaries({
        "degree": _degrees,
        "values": st.dictionaries(_simplex_keys, _json_documents | st.just("1/3"))
        | _json_documents}),
    st.fixed_dictionaries({"vertex_map": _vertex_lists | _json_documents}),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_json_documents | _keyed_documents)
def test_malformed_json_never_faults(capsys, tmp_path, document):
    for argv in (COMPLEX_ARGS, CHAIN_ARGS, COCHAIN_ARGS, MAP_ARGS):
        code, rep = _run_with_file(capsys, tmp_path, argv, document)
        assert code in (0, 1, 2), (argv[0], document, rep)
        assert isinstance(rep, dict)


def test_internal_fault_exits_3_with_a_report(capsys, monkeypatch):
    from diffchar import characters

    monkeypatch.setattr(characters, "solve_integer", lambda snf, b: None)
    code, rep = _run(capsys, ["verify", "--suite", "bb-oracle"])
    assert code == 3
    assert rep["command"] == "verify"
    assert rep["internal"] is True
    assert "InvariantViolation" in rep["error"]


def test_a_broken_kunneth_invariant_is_an_internal_fault(capsys, monkeypatch):
    from diffchar.exact_linalg import QuotientPresentation

    monkeypatch.setattr(QuotientPresentation, "class_order", lambda self, vec: 0)
    code, rep = _run(capsys, ["verify", "--suite", "bb-oracle"])
    assert code == 3
    assert rep["internal"] is True
    assert rep["error"] == "InvariantViolation: remainder class should always be torsion"


@pytest.mark.parametrize("command, fiber, message", [
    ("fiber-integrate", "Klein_K", "orientation conflict across face (3, 8)"),
    ("fiber-integrate", "nonpure", "simplex (2, 3) is maximal but has dimension 1"),
    ("boundary-fiber-integrate", "RP2_6", "orientation conflict across face (2, 5)"),
])
def test_bad_fibers_are_input_errors(capsys, tmp_path, command, fiber, message):
    if fiber == "nonpure":
        fiber = tmp_path / "nonpure.json"
        fiber.write_text('{"vertices": 4, "simplices": [[0, 1, 2], [2, 3]]}')
    code, rep = _run(capsys, [command, "--character", "ixi", "--complex", "S1_3",
                              "--fiber", str(fiber)])
    assert code == 2
    assert rep == {"command": command, "error": message}


def test_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code = main(["homology", "--complex", "RP2_6", "--degree", "1",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("complex_name", ["S1_3", "S3_9000"])
def test_an_unwritable_out_is_bad_input(tmp_path, complex_name):
    """--out is opened before the command runs: a report or an error report
    with a path that cannot be written gives one error report, exit 2."""
    out = tmp_path / "missing" / "x.json"
    src = os.path.dirname(os.path.dirname(diffchar.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "diffchar.cli", "homology", "--complex", complex_name,
         "--degree", "1", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    report, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert proc.stdout[end:].strip() == ""
    assert report == {"command": "homology",
                      "error": f"cannot write {out}: No such file or directory"}


def test_console_entry_point_runs():
    # The child imports the package this test imported, also when only
    # pytest's `pythonpath` setting put it on sys.path.
    src = os.path.dirname(os.path.dirname(diffchar.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from diffchar.cli import main; "
         "sys.exit(main(['eval', '--character', 'i', '--chain', 'v1_minus_v0']))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["phase"] == "1/3"

def _python(code):
    """The stdout of `code` run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(diffchar.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_leaves_the_verify_suites_unloaded():
    out = _python("import sys, diffchar.cli; print('diffchar.verify' in sys.modules)")
    assert out.strip() == "False"


# Each entry point loads the modules it runs and no other: the package
# itself none, the CLI the layers every request runs (the subcommands import
# products, fiber_integration, relative, holonomy and verify themselves),
# homology its two engine modules.
@pytest.mark.parametrize("code, modules", [
    ("import diffchar", ""),
    ("import diffchar.cli", "characters cli cochain exact_linalg fixtures io simplicial"),
    ("from diffchar.simplicial import Complex\n"
     "Complex(3, [(0, 1), (1, 2), (0, 2)]).homology(1)", "exact_linalg simplicial"),
])
def test_each_entry_point_loads_only_the_modules_it_runs(code, modules):
    out = _python(code + "\nimport sys\n"
                  "print(*sorted(m[9:] for m in sys.modules if m.startswith('diffchar.')))")
    assert out.strip() == modules


@pytest.mark.parametrize("first", ["", "import diffchar.holonomy, diffchar.verify\n"])
def test_every_exported_name_is_its_modules_own_object(first):
    """Also once a submodule has loaded: importing diffchar.holonomy must not
    rebind the package's name holonomy, the function, to the module."""
    out = _python(
        first + "import importlib, diffchar\n"
        "names = diffchar._MODULE_OF\n"
        "for name, module in names.items():\n"
        "    own = getattr(importlib.import_module('diffchar.' + module), name)\n"
        "    assert getattr(diffchar, name) is own, name\n"
        "from diffchar import holonomy\n"
        "assert holonomy.__module__ == 'diffchar.holonomy' and callable(holonomy)\n"
        "assert set(names) <= set(dir(diffchar)) and not hasattr(diffchar, 'nothing')\n"
        "print(len(names))")
    assert out.strip() == "74"
