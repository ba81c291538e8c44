"""homology: integral homology and cohomology of fresh staircase products.

Each product is built from seeded vertex relabelings of two bundled
complexes, so the answer is known (expected.KUNNETH) while the matrices the
engine reduces change with the seed.  Every pass works on freshly built
products: no factorization carries over from set-up or an earlier pass.
"""

from __future__ import annotations

import random

import common
import expected as known

PRODUCTS = (
    ("S1_3", "RP2_6"),
    ("T2_9", "S1_3"),
    ("Klein_K", "S1_3"),
    ("S2_4", "S1_3"),
    ("S1_6", "S1_3"),
)
TINY_PRODUCTS = (("S2_4", "S1_3"), ("S1_6", "S1_3"))
COMBINATIONS = 3


def relabel(K, rng):
    """The same complex with its vertices renamed by a seeded permutation."""
    from diffchar.simplicial import Complex

    perm = list(range(K.num_vertices))
    rng.shuffle(perm)
    simplices = [tuple(sorted(perm[v] for v in s)) for s in K.simplices(K.dim)]
    return Complex(K.num_vertices, simplices, K.name)


def combine(coeffs, generators, length):
    vec = [0] * length
    for c, g in zip(coeffs, generators):
        if c:
            for a, x in enumerate(g):
                if x:
                    vec[a] += c * x
    return vec


class Workload(common.Workload):
    name = "homology"
    setup_reps = 5

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.pairs = TINY_PRODUCTS if tiny else PRODUCTS
        self.expected = known.KUNNETH
        self.products = []
        self.used = False

    def setup(self):
        from diffchar import fixtures
        from diffchar.simplicial import Complex, staircase_product

        rng = random.Random(self.seed)
        self.factors = [
            (relabel(fixtures.complex_by_name(a), rng),
             relabel(fixtures.complex_by_name(b), rng))
            for a, b in self.pairs
        ]
        self.products = [staircase_product(A, B) for A, B in self.factors]
        self.used = False
        # Warm-up on a throwaway complex, so the first timed operation does
        # not pay for first calls.
        Complex(3, [(0, 1), (1, 2), (0, 2)]).homology(1)

    def prepare_pass(self):
        if self.used:
            from diffchar.simplicial import staircase_product

            self.products = [staircase_product(A, B) for A, B in self.factors]

    def ops(self):
        """One operation per product: every degree's H_n, H^n, class
        coordinates and, where H_n has torsion, fillings."""
        return [(i, self._op(i)) for i in range(len(self.pairs))]

    def _op(self, i):
        table = known.KUNNETH[self.pairs[i]]["homology"]
        steps = []
        for n in range(len(table)):
            steps += [("H", n, self._homology), ("Hc", n, self._cohomology),
                      ("coords", n, self._coordinates)]
            if table[n][1]:
                steps.append(("fill", n, self._fillings))

        def run():
            self.used = True
            P = self.products[i]
            return P, [(kind, n, step(P, i, n)) for kind, n, step in steps]

        return run

    # -- operations ----------------------------------------------------------

    @staticmethod
    def _summary(group):
        return group.betti, list(group.torsion), [list(g) for g in group.generators]

    def _homology(self, P, i, n):
        return self._summary(P.homology(n))

    def _cohomology(self, P, i, n):
        return self._summary(P.cohomology(n))

    def _coordinates(self, P, i, n):
        rng = random.Random(f"{self.seed}:{i}:{n}")
        out = []
        for kind, group in (("homology", P.homology(n)), ("cohomology", P.cohomology(n))):
            length = len(P.simplices(n))
            for _ in range(COMBINATIONS):
                coeffs = [rng.randint(-5, 5) for _ in group.generators]
                vec = combine(coeffs, group.generators, length)
                out.append((kind, coeffs, list(group.torsion), group.coordinates(vec)))
        return out

    def _fillings(self, P, i, n):
        from diffchar.exact_linalg import solve_integer

        hom = P.homology(n)
        snf = P.boundary_snf(n + 1)
        out = []
        for k, d in enumerate(hom.torsion):
            g = list(hom.generators[k])
            out.append((d, g, solve_integer(snf, [d * x for x in g])))
        return out

    # -- checks --------------------------------------------------------------

    def check(self, i, result):
        P, steps = result
        for kind, n, data in steps:
            error = self._check_step(self.expected[self.pairs[i]], P, kind, n, data)
            if error is not None:
                return f"{kind} degree {n}: {error}"
        return None

    def _check_step(self, table, P, kind, n, data):
        if kind in ("H", "Hc"):
            group = "homology" if kind == "H" else "cohomology"
            betti, torsion, gens = data
            want = table[group][n]
            if (betti, torsion) != (want[0], list(want[1])):
                return f"{group} {betti} {torsion}, expected {want[0]} {want[1]}"
            if len(gens) != betti + len(torsion):
                return f"{len(gens)} generators for rank {betti} torsion {torsion}"
            for g in gens:
                if kind == "Hc":
                    image = known.coboundary(P.simplices(n), P.simplices(n + 1), g)
                elif n > 0:
                    image = known.boundary(P.simplices(n), P.simplices(n - 1), g)
                else:
                    continue
                if any(image):
                    return "a generator is not closed"
            return None
        if kind == "coords":
            for group, coeffs, torsion, (free, tors) in data:
                t = len(torsion)
                want_free = tuple(coeffs[t:])
                want_tors = tuple(c % d for c, d in zip(coeffs[:t], torsion))
                if (tuple(free), tuple(tors)) != (want_free, want_tors):
                    return f"{group} coordinates {free} {tors} of {coeffs}"
            return None
        want = table["homology"][n][1]
        if [d for d, _, _ in data] != list(want):
            return f"fillings for orders {[d for d, _, _ in data]}, expected {want}"
        for d, g, x in data:
            if x is None:
                return f"no filling of {d} times a torsion generator"
            image = known.boundary(P.simplices(n + 1), P.simplices(n), x)
            if image != [d * v for v in g]:
                return "boundary of the filling is not d * g"
        return None
