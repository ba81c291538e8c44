"""algebra: a seeded stream of character operations on cached fixtures.

Set-up builds the fixtures S1_3, S2_4, T2_9, RP2_6 and Klein_K afresh,
factors their boundary matrices once (homology, cohomology, splittings) and
draws the input characters, maps and cycles from the seed.  A pass is a
fixed, shuffled list of operations of nine kinds; the (complex, degree)
pairs each kind visits are fixed, so the mix of work does not depend on the
seed, only the values do.  Each answer is checked afterwards against an
identity it must satisfy, computed along a different path.
"""

from __future__ import annotations

import random
from fractions import Fraction

import common

KINDS = (
    "random_character",
    "internal_product",
    "pullback",
    "trivialization",
    "external_product",
    "fiber_integrate",
    "bb_evaluate",
    "find_section",
    "holonomy",
)
OPS_PER_KIND = 13
TINY_OPS_PER_KIND = 2
POOL = 3
SURFACES = ("S1_3", "S2_4", "T2_9", "RP2_6", "Klein_K")


class Workload(common.Workload):
    name = "algebra"

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.per_kind = TINY_OPS_PER_KIND if tiny else OPS_PER_KIND

    # -- set-up --------------------------------------------------------------

    def setup(self):
        from diffchar import fixtures
        from diffchar.characters import iota, random_character
        from diffchar.cochain import Cochain
        from diffchar.fiber_integration import product_transfer
        from diffchar.products import external_product
        from diffchar.simplicial import SimplicialMap, fundamental_cycle

        for value in vars(fixtures).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        rng = random.Random(self.seed)
        K = {name: fixtures.complex_by_name(name) for name in SURFACES + ("S2_4p",)}
        S1, T2 = K["S1_3"], K["T2_9"]
        point, interval = fixtures.point(), fixtures.interval()
        cones = {"equator": fixtures.equator_cone(), "torsion_loop": fixtures.torsion_loop_cone()}
        for X in list(K.values()) + [point, interval]:
            for n in range(5):
                X.splitting(n)
                X.homology(n)
                X.cohomology(n)
        for n in range(1, 4):
            T2.boundary_snf(n)
        for cone in cones.values():
            for n in range(3):
                cone.splitting(n)
        self.K = K
        self.cycles = {}
        for X in list(K.values()) + [point, interval]:
            for d in range(3):
                self.cycles[(id(X), d)] = self._cycles(X, d, rng)
        self.chars = {}
        for name, X in K.items():
            for k in (1, 2, 3) if name == "T2_9" else (1, 2):
                self.chars[(name, k)] = [random_character(X, k, rng) for _ in range(POOL)]
        self.trivial = {}
        for name, X in K.items():
            for k in (1, 2):
                below = X.simplices(k - 1)
                eta = Cochain.from_vector(
                    X, k - 1,
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in below], "Q")
                self.trivial[(name, k)] = iota(eta)
        # Order-preserving maps, so pullback is strictly natural.
        maps = [T2.projection_left(), T2.projection_right(),
                T2.include_at_right(rng.randrange(3)), T2.include_at_left(rng.randrange(3)),
                fixtures.torsion_loop_map(), fixtures.equator_map()]
        for name in SURFACES:
            X = K[name]
            e = rng.choice(X.simplices(1))
            maps.append(SimplicialMap(interval, X, list(e)))
            maps.append(SimplicialMap(point, X, [rng.randrange(X.num_vertices)]))
            maps.append(SimplicialMap(X, X, [0] * X.num_vertices))
        tri = rng.choice(K["Klein_K"].simplices(2))
        maps.append(SimplicialMap(S1, K["Klein_K"], list(tri)))
        self.maps = maps
        self.transfer = product_transfer(S1, S1, total=T2)
        self.fiber_cycle = fundamental_cycle(S1)
        self.circle_cycle = fixtures.circle_cycle()
        self.proj = (T2.projection_left(), T2.projection_right())
        self.externals = {}
        for k, l in ((1, 1), (1, 2), (2, 1)):
            triples = []
            for j in range(POOL):
                h = self.chars[("S1_3", k)][j]
                f = self.chars[("S1_3", l)][(j + 1) % POOL]
                triples.append((h, f, external_product(h, f, T2)))
            self.externals[(k, l)] = triples
        diagonal = SimplicialMap(S1, T2, [T2.encode(u, u) for u in range(3)])
        self.loops = [
            (T2, T2.include_at_right(rng.randrange(3))),
            (T2, T2.include_at_left(rng.randrange(3))),
            (T2, diagonal),
            (K["RP2_6"], fixtures.torsion_loop_map()),
            (K["S2_4p"], fixtures.equator_map()),
        ]
        self.cones = cones
        self.stream = self._stream(rng)
        self._index = {(kind, j): params for kind, j, params in self.stream}

    @staticmethod
    def _cycles(X, d, rng):
        """A few seeded nonzero integer combinations of the degree-d cycle basis."""
        basis = X.splitting(d).cycle_basis
        out = []
        while basis and len(out) < 3:
            vec = [0] * len(X.simplices(d))
            for b in basis:
                c = rng.randint(-3, 3)
                if c:
                    vec = [x + c * y for x, y in zip(vec, b)]
            if any(vec):
                out.append(X.chain_from_vector(d, vec))
        return out

    def _stream(self, rng):
        """The pass's operations as (kind, parameters), in seeded order."""
        stream = []
        for kind in KINDS:
            for j in range(self.per_kind):
                stream.append((kind, j, self._params(kind, j, rng)))
        rng.shuffle(stream)
        return stream

    def _params(self, kind, j, rng):
        pick = rng.randrange(POOL)
        if kind == "random_character":
            return SURFACES[j % 5], 1 + (j // 5) % 2, f"{self.seed}:rc:{j}"
        if kind == "internal_product":
            name = SURFACES[j % 5]
            k, l = ((1, 1), (1, 2), (2, 1))[j % 3]
            return (self.chars[(name, k)][pick], self.chars[(name, l)][(pick + 1) % POOL])
        if kind == "pullback":
            phi = self.maps[j % len(self.maps)]
            target = phi.target.name if phi.target.name in self.K else None
            k = 1 + j % 2
            pool = self.chars[(target, k)]
            return phi, pool[pick]
        if kind == "trivialization":
            name = SURFACES[j % 5]
            k = 1 + (j // 5) % 2
            return self.chars[(name, k)][pick], self.trivial[(name, k)]
        if kind == "external_product":
            k, l = ((1, 1), (1, 2), (2, 1), (2, 2))[j % 4]
            return self.chars[("S1_3", k)][pick], self.chars[("S1_3", l)][(pick + 2) % POOL]
        if kind == "fiber_integrate":
            return (self.chars[("T2_9", 2 + j % 2)][pick],)
        if kind == "bb_evaluate":
            k, l = ((1, 1), (1, 2), (2, 1))[j % 3]
            h, f, hf = self.externals[(k, l)][pick]
            cycles = self.cycles[(id(self.K["T2_9"]), k + l - 1)]
            return h, f, hf, cycles[rng.randrange(len(cycles))]
        if kind == "find_section":
            cone_name = ("equator", "torsion_loop")[j % 2]
            cone = self.cones[cone_name]
            k = 1 + (j // 2) % 2
            return self.chars[(cone.phi.target.name, k)][pick], cone
        X, phi = self.loops[j % len(self.loops)]
        return self.chars[(X.name, 2)][pick], phi

    def ops(self):
        return [((kind, j), self._bind(kind, params)) for kind, j, params in self.stream]

    def _bind(self, kind, params):
        from diffchar.characters import (
            char_class, evaluate, pullback, random_character, trivialization,
        )
        from diffchar.fiber_integration import fiber_integrate
        from diffchar.holonomy import holonomy
        from diffchar.products import bb_evaluate, external_product, internal_product
        from diffchar.relative import find_section

        T2 = self.K["T2_9"]
        if kind == "random_character":
            name, k, seed = params
            return lambda: random_character(self.K[name], k, random.Random(seed))
        if kind == "internal_product":
            return lambda: internal_product(*params)
        if kind == "pullback":
            return lambda: pullback(*params)
        if kind == "trivialization":
            h, h0 = params
            return lambda: (char_class(h), trivialization(h0))
        if kind == "external_product":
            return lambda: external_product(params[0], params[1], T2)
        if kind == "fiber_integrate":
            return lambda: fiber_integrate(params[0], self.transfer)
        if kind == "bb_evaluate":
            h, f, hf, z = params
            return lambda: (bb_evaluate(h, f, z, T2), evaluate(hf, z))
        if kind == "find_section":
            return lambda: find_section(*params)
        h, phi = params
        return lambda: holonomy(h, phi, self.circle_cycle)

    # -- checks --------------------------------------------------------------

    def check(self, label, result):
        from diffchar.characters import (
            IntegralClass, char_class, evaluate, iota, pullback, random_character,
        )
        from diffchar.cochain import cup, pullback as pullback_cochain
        from diffchar.relative import project
        from diffchar.simplicial import ez

        kind, j = label
        params = self._index[label]
        if kind == "random_character":
            name, k, seed = params
            h = result
            if h.degree != k or h.complex is not self.K[name]:
                return "wrong degree or complex"
            if random_character(self.K[name], k, random.Random(seed)) != h:
                return "same seed gave a different character"
            if not (h - h).is_zero() or h.scale(2) != h + h:
                return "group law fails"
            for z in self.cycles[(id(h.complex), k - 1)]:
                if evaluate(h.scale(2), z) != (2 * evaluate(h, z)) % 1:
                    return "evaluation is not additive"
            return None
        if kind == "internal_product":
            h, f = params
            if result.curvature != cup(h.curvature, f.curvature):
                return "curvature is not multiplicative"
            want = IntegralClass(h.complex, h.degree + f.degree, cup(h.mu, f.mu))
            if char_class(result) != want:
                return "class is not multiplicative"
            return None
        if kind == "pullback":
            phi, h = params
            if result.curvature != pullback_cochain(phi, h.curvature):
                return "curvature is not natural"
            for z in self.cycles[(id(phi.source), h.degree - 1)]:
                if evaluate(result, z) != evaluate(h, phi.push_chain(z)):
                    return "evaluation is not natural"
            return None
        if kind == "trivialization":
            h, h0 = params
            c, t = result
            if iota(t) != h0 or not char_class(h0).is_zero():
                return "trivialization does not round-trip"
            if c != char_class(h + h0):
                return "class changed by a topologically trivial character"
            return None
        if kind == "external_product":
            h, f = params
            p, q = self.proj
            curv = cup(pullback_cochain(p, h.curvature), pullback_cochain(q, f.curvature))
            if result.curvature != curv:
                return "curvature is not the cross product"
            mu = cup(pullback_cochain(p, h.mu), pullback_cochain(q, f.mu))
            if char_class(result) != IntegralClass(result.complex, result.degree, mu):
                return "class is not the cross product"
            return None
        if kind == "fiber_integrate":
            (h,) = params
            base = self.K["S1_3"]
            if result.degree != h.degree - 1:
                return "degree did not drop by the fiber dimension"
            for z in self.cycles[(id(base), h.degree - 2)]:
                lifted = ez(z, self.fiber_cycle, self.K["T2_9"])
                if evaluate(result, z) != evaluate(h, lifted):
                    return "integral does not evaluate as the slant"
            return None
        if kind == "bb_evaluate":
            split, direct = result
            return None if split == direct else f"bb_evaluate {split} != evaluate {direct}"
        if kind == "find_section":
            h, cone = params
            if result.cone is not cone or project(result) != h:
                return "section does not project to the character"
            return None
        h, phi = params
        if result != evaluate(pullback(phi, h), self.circle_cycle):
            return "holonomy is not the pulled-back evaluation"
        return None
