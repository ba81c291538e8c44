"""Answers the benchmark knows without asking the code under test.

Homology and cohomology of the products come from the Kunneth and universal
coefficient theorems applied to the factors' textbook groups; each entry is
(betti number, torsion invariant factors) by degree.  The phases are the
values the fixture characters take by construction.
"""

from __future__ import annotations

from fractions import Fraction

# H_n and H^n of the staircase products used by the homology and cli workloads.
KUNNETH = {
    ("S1_3", "RP2_6"): {
        "homology": [(1, []), (1, [2]), (0, [2]), (0, [])],
        "cohomology": [(1, []), (1, []), (0, [2]), (0, [2])],
    },
    ("T2_9", "S1_3"): {
        "homology": [(1, []), (3, []), (3, []), (1, [])],
        "cohomology": [(1, []), (3, []), (3, []), (1, [])],
    },
    ("Klein_K", "S1_3"): {
        "homology": [(1, []), (2, [2]), (1, [2]), (0, [])],
        "cohomology": [(1, []), (2, []), (1, [2]), (0, [2])],
    },
    ("S2_4", "S1_3"): {
        "homology": [(1, []), (1, []), (1, []), (1, [])],
        "cohomology": [(1, []), (1, []), (1, []), (1, [])],
    },
    ("S1_6", "S1_3"): {
        "homology": [(1, []), (2, []), (1, [])],
        "cohomology": [(1, []), (2, []), (1, [])],
    },
}

# H_n of the bundled complexes the cli workload asks about, by fixture name.
FIXTURE_HOMOLOGY = {
    "T2_9": [(1, []), (2, []), (1, [])],
    "RP2_6": [(1, []), (0, [2]), (0, [])],
}

# Lift of the winding character `i` on S1_3, vertex by vertex: its value on
# a 0-cycle sum(c_v * v) is sum(c_v * lift_v) mod 1.
WINDING_LIFT = (Fraction(0), Fraction(1, 3), Fraction(2, 3))

# (character, chain) -> phase, and holonomy (character, map, chain) -> phase.
EVAL_PHASES = {
    ("i", "v1_minus_v0"): "1/3",
    ("ixi", "gamma1"): "0",
    ("ixi", "gamma2"): "0",
}
HOLONOMY_PHASES = {("ju", "torsion_loop", "circle_fund"): "1/2"}


def boundary(higher, lower, vec):
    """Boundary of an integer chain given as a vector over `higher` simplices."""
    index = {s: i for i, s in enumerate(lower)}
    out = [0] * len(lower)
    for s, c in zip(higher, vec):
        if c and len(s) > 1:
            for i in range(len(s)):
                out[index[s[:i] + s[i + 1:]]] += -c if i % 2 else c
    return out


def coboundary(lower, higher, vec):
    """Coboundary of a cochain given as a vector over `lower` simplices."""
    index = {s: i for i, s in enumerate(lower)}
    out = []
    for s in higher:
        total = 0
        for i in range(len(s)):
            x = vec[index[s[:i] + s[i + 1:]]]
            total += -x if i % 2 else x
        out.append(total)
    return out
