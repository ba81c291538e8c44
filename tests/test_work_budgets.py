"""Work budgets: bytecode instructions counted for fixed operations.

A count of executed opcodes (`sys.settrace` with `f_trace_opcodes`) is
exact where time is noise: it is the same on every run and under every
PYTHONHASHSEED.  Each operation has a budget per Python minor version, since
the compiler emits other opcodes in other versions, and a count must lie
within `SLACK` of it.  A count above the band is a regression to fix, or a
budget to raise with the reason; a count below it is a gain, and the budget
comes down to the new count.  On a Python version without a budget the
tests skip and name the count, which is the row to add.
"""

from __future__ import annotations

import random
import sys

import pytest

from diffchar import exact_linalg, verify
from diffchar.characters import DiffChar, random_character
from diffchar.cochain import Cochain, coboundary
from diffchar.fiber_integration import fiber_integrate, product_transfer
from diffchar.relative import find_section
from diffchar.simplicial import mapping_cone

from strategies import random_cochain, relabeled_product

SLACK = 0.01

# The Smith engine's table of unit vectors grows once per process, to the
# largest dimension factored.  Grown first beyond every dimension these
# operations factor, it adds no work to a count, whatever ran before.
GROWN_UNITS = 4096

# operation -> {(major, minor): opcodes}
BUDGETS = {
    "homology": {(3, 11): 1_357_470},
    "product-axioms": {(3, 11): 1_196_296},
    "fiber-integrate": {(3, 11): 101_963},
    "find-section": {(3, 11): 267_674},
}

# The products of the `homology` benchmark workload.
PRODUCTS = (("S1_3", "RP2_6"), ("T2_9", "S1_3"), ("Klein_K", "S1_3"), ("S2_4", "S1_3"),
            ("S1_6", "S1_3"))


def opcodes(operation):
    """The number of opcodes `operation()` executes, in every frame it runs."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        operation()
    finally:
        sys.settrace(outer)
    return count


def _homology_pass():
    """H_n and H^n in every degree of the products, built fresh here and
    untraced from one relabeling seed."""
    rng = random.Random(0)
    products = [relabeled_product(a, b, rng) for a, b in PRODUCTS]

    def run():
        for P in products:
            for n in range(P.dim + 1):
                P.homology(n)
                P.cohomology(n)

    return run


def _product_axioms():
    """Instance 0 of the `product-axioms` suite on each of its surfaces, once
    the surfaces' memoized tables are filled: the cochain path."""

    def run():
        verify.run_product_axioms(instances=1)

    run()
    return run


def _fiber_integrate():
    """A degree-3 character on a fresh RP2_6 x S1_3 integrated over the
    fundamental cycle of S1_3: the slant of its three cochains."""
    rng = random.Random(0)
    P = relabeled_product("RP2_6", "S1_3", rng)
    h = random_character(P, 3, rng)
    transfer = product_transfer(P.left, P.right, total=P)
    return lambda: fiber_integrate(h, transfer)


def _find_section():
    """A section of a degree-2 character of class zero on RP2_6 along the
    projection from a fresh RP2_6 x S1_3: the product's factorizations in
    degrees 0 to 2 and one integer solve against its coboundary."""
    rng = random.Random(0)
    P = relabeled_product("RP2_6", "S1_3", rng)
    X = P.left
    eta = random_cochain(X, 1, rng)
    t = Cochain.from_vector(X, 1, [rng.randint(-3, 3) for _ in X.simplices(1)])
    h = DiffChar(coboundary(eta), eta + t)
    cone = mapping_cone(P.projection_left())
    return lambda: find_section(h, cone)


OPERATIONS = {"homology": _homology_pass, "product-axioms": _product_axioms,
              "fiber-integrate": _fiber_integrate, "find-section": _find_section}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_operations_stay_within_their_budgets(name):
    grown = len(exact_linalg._units(GROWN_UNITS))
    count = opcodes(OPERATIONS[name]())
    assert len(exact_linalg._UNITS) == grown
    budget = BUDGETS[name].get(sys.version_info[:2])
    if budget is None:
        pytest.skip(f"no {name} budget for Python {sys.version_info[:2]}; it counted {count}")
    assert abs(count - budget) <= SLACK * budget, (
        f"{name}: {count} opcodes against a budget of {budget}")
