"""Command line front end.

Batch interface over the library: resolve inputs (bundled fixture names or
JSON files), run one computation, print a deterministic JSON report to
stdout, optionally write it to --out.  Exit status: 0 success / all checks
pass, 1 a check or verification failed, 2 bad input, 3 an internal fault.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from diffchar import fixtures, io
from diffchar.simplicial import mapping_cone, product_face_count, staircase_product
from diffchar.characters import NotACycle, evaluate, flat_character, iota
from diffchar.products import external_product, internal_product
from diffchar.fiber_integration import (
    boundary_fiber_integrate,
    fiber_integrate,
    product_transfer,
)
from diffchar.relative import NoSection, find_section
from diffchar.holonomy import holonomy


class InputError(Exception):
    """Bad command input: unknown name, unreadable file, mismatched data."""


def _phase(x):
    return io.fraction_to_str(Fraction(x) % 1)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")


def _looks_like_path(token):
    return token.endswith(".json") or "/" in token


def _resolve_complex(token):
    if token is None:
        raise InputError("--complex is required for this command")
    if _looks_like_path(token):
        return io.complex_from_json(_load_json(token))
    return fixtures.complex_by_name(token)


def _resolve_character(token, complex_token):
    if token is None:
        raise InputError("--character is required for this command")
    if _looks_like_path(token):
        K = _resolve_complex(complex_token)
        return io.character_from_json(_load_json(token), K)
    return fixtures.character_by_name(token)


def _resolve_chain(token, complex_or_none):
    if token is None:
        raise InputError("--chain is required for this command")
    if _looks_like_path(token):
        if complex_or_none is None:
            raise InputError("a chain file needs --complex (or a named map) for context")
        return io.chain_from_json(_load_json(token), complex_or_none)
    return fixtures.chain_by_name(token)


def _resolve_map(token, source_token, target_token):
    if token is None:
        raise InputError("--map is required for this command")
    if _looks_like_path(token):
        if source_token is None:
            raise InputError("a map file needs --map-source")
        source = _resolve_complex(source_token)
        target = _resolve_complex(target_token)
        return io.map_from_json(_load_json(token), source, target)
    return fixtures.map_by_name(token)


def _emit(report, out):
    text = io.dumps(report)
    sys.stdout.write(text)
    if out is not None:
        out.write(text)


def _report(command, inputs, result):
    return {"command": command, "inputs": inputs, "result": result}


# -- subcommand bodies: return (report, exit_status) -------------------------


def _cmd_homology(args):
    K = _resolve_complex(args.complex)
    if args.degree is None:
        raise InputError("--degree is required for homology")
    hom = K.homology(args.degree)
    gens = [
        io.chain_to_json(K.chain_from_vector(args.degree, vec))
        for vec in hom.generators
    ]
    result = {
        "degree": args.degree,
        "betti": hom.betti,
        "torsion": list(hom.torsion),
        "generators": gens,
    }
    inputs = {"complex": args.complex, "degree": args.degree}
    return _report("homology", inputs, result), 0


def _cmd_eval(args):
    h = _resolve_character(args.character, args.complex)
    z = _resolve_chain(args.chain, h.complex)
    if z.complex != h.complex:
        raise InputError("character and chain live on different complexes")
    try:
        value = evaluate(h, z)
    except NotACycle:
        raise InputError(
            "chain is not a cycle; boundary = "
            + json.dumps(io.chain_to_json(z.boundary()))
        )
    result = {"phase": _phase(value)}
    inputs = {"character": args.character, "chain": args.chain}
    return _report("eval", inputs, result), 0


def _cmd_iota(args):
    K = _resolve_complex(args.complex)
    if args.cochain is None:
        raise InputError("--cochain is required for iota")
    eta = io.cochain_from_json(_load_json(args.cochain), K)
    h = iota(eta)
    inputs = {"complex": args.complex, "cochain": args.cochain}
    return _report("iota", inputs, {"character": io.character_to_json(h)}), 0


def _cmd_j(args):
    K = _resolve_complex(args.complex)
    if args.cochain is None:
        raise InputError("--cochain is required for j")
    h = flat_character(io.cochain_from_json(_load_json(args.cochain), K))
    inputs = {"complex": args.complex, "cochain": args.cochain}
    return _report("j", inputs, {"character": io.character_to_json(h)}), 0


def _two_characters(args):
    tokens = args.character or []
    if len(tokens) != 2:
        raise InputError("give --character twice: the two factors in order")
    complexes = args.complex if isinstance(args.complex, list) else [args.complex]
    if len(complexes) == 1:
        complexes = complexes * 2
    left = _resolve_character(tokens[0], complexes[0])
    right = _resolve_character(tokens[1], complexes[-1])
    return tokens, left, right


def _cmd_product(args):
    tokens, h, f = _two_characters(args)
    if h.complex != f.complex:
        raise InputError("internal product factors must share a complex")
    hf = internal_product(h, f)
    inputs = {"character": tokens}
    return _report("product", inputs, {"character": io.character_to_json(hf)}), 0


def _staircase_product(left, right):
    """The staircase product of two inputs, refused unbuilt past io.MAX_FACES."""
    faces = product_face_count(left, right)
    if faces > io.MAX_FACES:
        raise InputError(f"the product would have {faces} faces, more than {io.MAX_FACES}")
    return staircase_product(left, right)


def _cmd_xproduct(args):
    tokens, h, f = _two_characters(args)
    P = _staircase_product(h.complex, f.complex)
    hf = external_product(h, f, P)
    inputs = {"character": tokens}
    result = {
        "product_complex": io.complex_to_json(P),
        "character": io.character_to_json(hf),
    }
    return _report("xproduct", inputs, result), 0


def _transfer_from_args(args):
    base = _resolve_complex(args.complex)
    fiber = _resolve_complex(args.fiber or "interval")
    return product_transfer(base, fiber, total=_staircase_product(base, fiber))


def _total_space_character(args, transfer):
    if args.character is None:
        raise InputError("--character is required for this command")
    if _looks_like_path(args.character):
        h = io.character_from_json(_load_json(args.character), transfer.total)
    else:
        h = fixtures.character_by_name(args.character)
    if h.complex != transfer.total:
        raise InputError(
            "character does not live on the staircase product of --complex and --fiber"
        )
    return h


def _cmd_fiber_integrate(args):
    tr = _transfer_from_args(args)
    out = fiber_integrate(_total_space_character(args, tr), tr)
    inputs = {"character": args.character, "complex": args.complex, "fiber": args.fiber}
    return _report("fiber-integrate", inputs, {"character": io.character_to_json(out)}), 0


def _cmd_boundary_fiber_integrate(args):
    tr = _transfer_from_args(args)
    out = boundary_fiber_integrate(_total_space_character(args, tr), tr)
    result = {
        "over_boundary": io.character_to_json(out.over_boundary),
        "cov": io.cochain_to_json(out.cov),
        "relative": io.rel_character_to_json(out.relative),
    }
    inputs = {"character": args.character, "complex": args.complex, "fiber": args.fiber}
    return _report("boundary-fiber-integrate", inputs, result), 0


def _cmd_find_section(args):
    phi = _resolve_map(args.map, args.map_source, args.complex)
    h = _resolve_character(args.character, args.complex)
    if h.complex != phi.target:
        raise InputError("character must live on the map's target")
    cone = mapping_cone(phi)
    inputs = {"character": args.character, "map": args.map}
    try:
        s = find_section(h, cone)
    except NoSection as exc:
        result = {
            "section": None,
            "obstruction": io.cochain_to_json(exc.witness.representative),
        }
        return _report("find-section", inputs, result), 1
    return _report("find-section", inputs, {"section": io.rel_character_to_json(s)}), 0


def _cmd_holonomy(args):
    phi = _resolve_map(args.map, args.map_source, args.complex)
    h = _resolve_character(args.character, args.complex)
    value = holonomy(h, phi, _resolve_chain(args.chain, phi.source))
    inputs = {"character": args.character, "map": args.map, "chain": args.chain}
    return _report("holonomy", inputs, {"phase": _phase(value)}), 0


def _cmd_verify(args):
    # Imported here so that the other subcommands do not pay for compiling it.
    from diffchar.verify import UnknownSuite, run_suite, suite_names

    if args.suite is None:
        raise InputError(
            "--suite is required; available: " + ", ".join(suite_names())
        )
    try:
        result = run_suite(args.suite)
    except UnknownSuite as exc:
        raise InputError(exc.args[0])
    report = _report("verify", {"suite": args.suite}, result)
    return report, 0 if result["pass"] else 1


_COMMANDS = {
    "homology": _cmd_homology,
    "eval": _cmd_eval,
    "iota": _cmd_iota,
    "j": _cmd_j,
    "product": _cmd_product,
    "xproduct": _cmd_xproduct,
    "fiber-integrate": _cmd_fiber_integrate,
    "boundary-fiber-integrate": _cmd_boundary_fiber_integrate,
    "find-section": _cmd_find_section,
    "holonomy": _cmd_holonomy,
    "verify": _cmd_verify,
}


# Commands that take two factors, so --complex and --character accumulate.
_LIST_COMMANDS = ("product", "xproduct")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diffchar",
        description="Exact differential characters on finite simplicial complexes.",
    )
    parser.add_argument("cmd", choices=_COMMANDS, metavar="command",
                        help="one of: " + ", ".join(_COMMANDS))
    parser.add_argument("--complex", action="append", help="fixture name or JSON file")
    parser.add_argument("--character", action="append", help="fixture name or JSON file")
    parser.add_argument("--chain", help="fixture name or JSON file")
    parser.add_argument("--map", help="fixture name or JSON file")
    parser.add_argument("--out", help="also write the report here")
    parser.add_argument("--suite", help="verification suite name")
    parser.add_argument("--degree", type=int)
    parser.add_argument("--cochain", help="JSON file")
    parser.add_argument("--fiber", help="fiber complex (default interval)")
    parser.add_argument("--map-source", dest="map_source",
                        help="source complex for a map file")
    return parser


def _parse(argv):
    """Parsed arguments; outside _LIST_COMMANDS the last --complex and
    --character given win."""
    args = _build_parser().parse_args(argv)
    if args.cmd not in _LIST_COMMANDS:
        for name in ("complex", "character"):
            values = getattr(args, name)
            setattr(args, name, values[-1] if values else None)
    return args


def main(argv=None):
    """Run one command; --out is opened first, so that an unwritable path is
    bad input reported before any work, not a fault after it."""
    args = _parse(argv)
    try:
        out = open(args.out, "w") if args.out else None
    except OSError as exc:
        _emit({"command": args.cmd, "error": f"cannot write {args.out}: {exc.strerror}"}, None)
        return 2
    with out or contextlib.nullcontext():
        return _run(args, out)


def _run(args, out):
    try:
        report, status = _COMMANDS[args.cmd](args)
    except (InputError, fixtures.UnknownFixture, ValueError) as exc:
        _emit({"command": args.cmd, "error": str(exc)}, out)
        return 2
    except Exception as exc:
        # Not bad input but a fault of the program, such as an
        # InvariantViolation: reported, with its traceback on stderr.  A
        # verify suite that raised (a SuiteFault) names the exception and the
        # instance in flight.  The imports stay here so that cold starts do
        # not pay for them.
        import traceback

        traceback.print_exc()
        fault = {"command": args.cmd, "error": f"{type(exc).__name__}: {exc}", "internal": True}
        if args.cmd == "verify":
            from diffchar.verify import SuiteFault

            if isinstance(exc, SuiteFault):
                fault.update(error=str(exc), witness=exc.witness)
        _emit(fault, out)
        return 3
    _emit(report, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
