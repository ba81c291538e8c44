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

import gc
import random
import sys

import pytest

from diffchar import exact_linalg, simplicial, verify
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
    "homology": {(3, 11): 964_987},
    "product-axioms": {(3, 11): 1_196_296},
    "fiber-integrate": {(3, 11): 101_963},
    "find-section": {(3, 11): 199_206},
}

# The products of the `homology` benchmark workload.
PRODUCTS = (("S1_3", "RP2_6"), ("T2_9", "S1_3"), ("Klein_K", "S1_3"), ("S2_4", "S1_3"),
            ("S1_6", "S1_3"))


def opcodes(operation):
    """The number of opcodes `operation()` executes, in every frame it runs.

    The cyclic collector is off meanwhile: a collection runs the Python
    callbacks in `gc.callbacks`, which earlier code may have registered
    (hypothesis does, on its first test), and their opcodes would count."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    outer = sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(trace)
    try:
        operation()
    finally:
        sys.settrace(outer)
        if collecting:
            gc.enable()
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


# V^{-1} is answered from V, so the elimination builds none of its columns;
# it built the column of every pivot before, 569 of them dicts of their own
# on this pass.  A column is built when it is read alone: the pass builds
# 21 columns of the cycle bases, each once and then kept, and none of a
# pivot's.
COLUMNS_BUILT = {"cycle basis": 21, "pivots": 0}

# The unit pivots of the pass's relation factorizations, whose columns of U
# the elimination no longer writes.
UNIT_PIVOTS = 1023


def test_a_homology_pass_builds_only_the_cycle_basis_columns_it_reads(monkeypatch):
    built = []
    factored = []
    build, factor = exact_linalg._InverseColumns._column, simplicial.smith_normal_form

    def counted_build(columns, k):
        core = columns._core
        _, pivots, w, _, kept = core
        m = len(pivots)
        stored = w[k - m] if k >= m else exact_linalg._UNITS[pivots[k]]
        was_kept = k in kept
        col = build(columns, k)
        if not was_kept and col is not stored:
            built.append((id(core), k))
        return col

    def counted_factor(a):
        snf = factor(a)
        factored.append(snf)
        return snf

    monkeypatch.setattr(exact_linalg._InverseColumns, "_column", counted_build)
    monkeypatch.setattr(simplicial, "smith_normal_form", counted_factor)
    _homology_pass()()
    rank = {id(snf._v_inv._core): snf.rank for snf in factored}
    kinds = ["cycle basis" if k >= rank[core] else "pivots" for core, k in built]
    assert len(set(built)) == len(built)
    assert {kind: kinds.count(kind) for kind in COLUMNS_BUILT} == COLUMNS_BUILT
    # The memo keeps the cycle-basis columns built, and no pivot's column.
    assert sum(len(snf._v_inv._core[4]) for snf in factored) == COLUMNS_BUILT["cycle basis"]
    assert all(k >= snf.rank for snf in factored for k in snf._v_inv._core[4])


# U's columns at the unit pivots are derived from U^{-1} on the first read
# that reaches them, and nothing in a pass reads them: it reads U's torsion,
# Euclid-pivot and trailing columns only.
def test_a_homology_pass_derives_no_unit_pivot_column_of_u(monkeypatch):
    derived = []
    factored = []
    derive, factor = exact_linalg._unit_pivot_columns, simplicial.smith_normal_form

    def counted_derive(u_inv, tail):
        derived.append(len(u_inv) - len(tail))
        return derive(u_inv, tail)

    def counted_factor(a):
        snf = factor(a)
        factored.append(len(snf._u) - len(snf._u._tail))
        return snf

    monkeypatch.setattr(exact_linalg, "_unit_pivot_columns", counted_derive)
    monkeypatch.setattr(simplicial, "smith_normal_form", counted_factor)
    _homology_pass()()
    assert sum(factored) == UNIT_PIVOTS and derived == []


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


def test_counts_do_not_depend_on_gc_callbacks():
    """A Python gc callback, as hypothesis registers, and a collection
    threshold low enough to collect during the operation leave the count as
    it is."""
    plain = opcodes(OPERATIONS["fiber-integrate"]())
    calls = []

    def callback(phase, info):
        calls.append(phase)

    threshold = gc.get_threshold()
    gc.callbacks.append(callback)
    gc.set_threshold(1)
    try:
        assert opcodes(OPERATIONS["fiber-integrate"]()) == plain
        gc.collect()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(callback)
    assert calls
