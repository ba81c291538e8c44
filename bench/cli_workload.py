"""cli: one cold `diffchar` process per request, one request at a time.

Set-up writes the seeded input files (relabeled product complexes, cochains,
a chain, characters and maps) and runs every distinct request once; that
output is the reference.  A pass sends each distinct request several times
in seeded order.  Every answer is checked for its exit code, for values known
in advance (phases, betti numbers, torsion), for a round trip through the io
parsers, and for stdout byte-identical to the set-up reference.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import common
import expected as known

LAUNCHER = common.BENCH_DIR / "launch.py"
MIN_REQUESTS = 100
# (left, right, degree): homology of a seeded relabeling, sent as a JSON file.
PRODUCT_REQUESTS = (("S1_3", "RP2_6", 1), ("S1_3", "RP2_6", 2),
                    ("S2_4", "S1_3", 2), ("S1_6", "S1_3", 1))
FIXTURE_REQUESTS = (("T2_9", 1), ("RP2_6", 1))
TINY_KEYS = ("eval-i", "homology-T2_9", "iota-S1_3", "bad-fixture", "verify-holonomy")


class Workload(common.Workload):
    name = "cli"
    in_process = False

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.dir = common.OUT_DIR / f"cli-{os.getpid()}"
        self.reference = None
        self.env = common.child_env()

    # -- set-up --------------------------------------------------------------

    def setup(self):
        rng = random.Random(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.requests = self._requests(rng)
        outputs = {}
        for key, (argv, _, _) in self.requests.items():
            self.setup_attempted += 1
            try:
                outputs[key] = self._spawn(argv, common.OP_BUDGET_S["cli"], False)
            except common.OverBudget:
                self.setup_failures.append(f"set-up {key}: over budget")
                continue
            error = self.check((key, -1), outputs[key])
            if error is not None:
                self.setup_failures.append(f"set-up {key}: {error}")
        if self.reference is None:
            self.reference = {key: out for key, (_, out) in outputs.items()}
        for key, (_, out) in outputs.items():
            if out != self.reference.get(key):
                self.setup_failures.append(f"set-up {key}: stdout differs between set-ups")
        order = random.Random(f"{self.seed}:order")
        repeats = 1 if self.tiny else -(-MIN_REQUESTS // len(self.requests))
        self.sequence = [key for key in self.requests for _ in range(repeats)]
        order.shuffle(self.sequence)

    def _write(self, name, obj):
        path = self.dir / name
        path.write_text(json.dumps(obj, sort_keys=True))
        return os.path.relpath(path, common.ROOT)

    def _requests(self, rng):
        """Distinct requests: key -> (argv, expected exit code, answer check)."""
        from diffchar import fixtures, io
        from diffchar.characters import evaluate, fractional_torsion_class, random_character
        from diffchar.cochain import Cochain
        from diffchar.simplicial import SimplicialMap, staircase_product
        from homology_workload import relabel

        S1, T2, RP2 = fixtures.circle(), fixtures.torus(), fixtures.projective_plane()
        S2p = fixtures.suspension_sphere()
        req = {}

        def fixture_homology(name, degree):
            K = fixtures.complex_by_name(name)
            req[f"homology-{name}"] = (
                ["homology", "--complex", name, "--degree", str(degree)], 0,
                lambda r: self._homology_answer(r, K, known.FIXTURE_HOMOLOGY[name][degree]))

        for name, degree in FIXTURE_REQUESTS:
            fixture_homology(name, degree)
        for a, b, degree in PRODUCT_REQUESTS:
            A = relabel(fixtures.complex_by_name(a), rng)
            B = relabel(fixtures.complex_by_name(b), rng)
            P = staircase_product(A, B)
            path = self._write(f"{a}x{b}-{degree}.json", io.complex_to_json(P))
            want = known.KUNNETH[(a, b)]["homology"][degree]
            req[f"homology-{a}x{b}-{degree}"] = (
                ["homology", "--complex", path, "--degree", str(degree)], 0,
                lambda r, P=P, want=want: self._homology_answer(r, P, want))

        gamma = ("gamma1", "gamma2")[rng.randrange(2)]
        for (character, chain), phase in known.EVAL_PHASES.items():
            if character == "ixi" and chain != gamma:
                continue
            req[f"eval-{character}"] = (
                ["eval", "--character", character, "--chain", chain], 0,
                lambda r, phase=phase: self._phase_answer(r, phase))
        coeffs = [rng.randint(-4, 4) for _ in range(3)]
        chain_path = self._write("chain.json", io.chain_to_json(
            S1.chain(0, {(v,): c for v, c in enumerate(coeffs)})))
        phase = sum(c * x for c, x in zip(coeffs, known.WINDING_LIFT)) % 1
        req["eval-chain-file"] = (
            ["eval", "--character", "i", "--complex", "S1_3", "--chain", chain_path], 0,
            lambda r, phase=phase: self._phase_answer(r, str(phase)))

        eta = Cochain(S1, 0, {(v,): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                              for v in range(3)}, "Q")
        eta_path = self._write("eta.json", io.cochain_to_json(eta))
        req["iota-S1_3"] = (["iota", "--complex", "S1_3", "--cochain", eta_path], 0,
                            lambda r: self._iota_answer(r, eta))
        u = fractional_torsion_class(RP2, 1, 0, 1).cochain + Cochain.from_vector(
            RP2, 1, [rng.randint(-2, 2) for _ in RP2.simplices(1)], "Q")
        u_path = self._write("flat.json", io.cochain_to_json(u))
        req["j-RP2_6"] = (["j", "--complex", "RP2_6", "--cochain", u_path], 0,
                          lambda r: self._flat_answer(r, u))

        req["product-ju"] = (
            ["product", "--complex", "RP2_6", "--character", "ju", "--character", "ju"], 0,
            lambda r: self._degree_answer(r, RP2, 4))
        req["xproduct-i"] = (["xproduct", "--character", "i", "--character", "i"], 0,
                             self._xproduct_answer)
        req["fiber-integrate"] = (
            ["fiber-integrate", "--character", "ixi", "--complex", "S1_3", "--fiber", "S1_3"],
            0, lambda r: self._fiber_answer(r, fixtures.winding_character()))
        cylinder = staircase_product(S1, fixtures.interval())
        h_cyl = random_character(cylinder, 2, rng)
        cyl_path = self._write("cylinder-character.json", io.character_to_json(h_cyl))
        req["boundary-fiber-integrate"] = (
            ["boundary-fiber-integrate", "--character", cyl_path, "--complex", "S1_3",
             "--fiber", "interval"], 0, self._boundary_fiber_answer)

        req["find-section-ju"] = (
            ["find-section", "--character", "ju", "--map", "torsion_loop"], 0,
            lambda r: self._section_answer(r, fixtures.torsion_loop_cone(),
                                           fixtures.rp2_flat_character()))
        h_s2 = random_character(S2p, 2, rng)
        s2_path = self._write("sphere-character.json", io.character_to_json(h_s2))
        req["find-section-equator"] = (
            ["find-section", "--character", s2_path, "--complex", "S2_4p",
             "--map", "equator"], 0,
            lambda r: self._section_answer(r, fixtures.equator_cone(), h_s2))
        identity_path = self._write("identity.json", {"vertex_map": list(range(6))})
        req["find-section-obstructed"] = (
            ["find-section", "--character", "ju", "--map", identity_path,
             "--map-source", "RP2_6", "--complex", "RP2_6"], 1,
            lambda r: self._obstruction_answer(r, RP2))

        for (character, phi, chain), phase in known.HOLONOMY_PHASES.items():
            req[f"holonomy-{character}"] = (
                ["holonomy", "--character", character, "--map", phi, "--chain", chain], 0,
                lambda r, phase=phase: self._phase_answer(r, phase))
        u0, v0 = rng.randrange(3), rng.randrange(3)
        loops = [[T2.encode(u, v0) for u in range(3)],
                 [T2.encode(u0, v) for v in range(3)],
                 [T2.encode(u, u) for u in range(3)]]
        loop = loops[rng.randrange(3)]
        phi = SimplicialMap(S1, T2, loop)
        want = evaluate(fixtures.torus_character(), phi.push_chain(fixtures.circle_cycle()))
        loop_path = self._write("loop.json", io.map_to_json(phi))
        req["holonomy-map-file"] = (
            ["holonomy", "--character", "ixi", "--map", loop_path, "--map-source", "S1_3",
             "--complex", "T2_9", "--chain", "circle_fund"], 0,
            lambda r: self._phase_answer(r, str(want)))

        for suite in ("holonomy", "relative-exact"):
            req[f"verify-{suite}"] = (["verify", "--suite", suite], 0,
                                      lambda r, suite=suite: self._suite_answer(r, suite))

        (self.dir / "broken.json").write_text('{"degree": 0,\n  "values": }')
        broken_path = os.path.relpath(self.dir / "broken.json", common.ROOT)
        half = {io.simplex_key(rng.choice(RP2.simplices(1))): "1/2"}
        nonflat_path = self._write("nonflat.json", {"degree": 1, "values": half})
        for key, argv, needle in (
            ("bad-fixture", ["homology", "--complex", "S3_9000", "--degree", "1"], "S3_9000"),
            ("bad-json", ["iota", "--complex", "S1_3", "--cochain", broken_path], "line 2"),
            ("bad-flat", ["j", "--complex", "RP2_6", "--cochain", nonflat_path], ""),
        ):
            req[key] = (argv, 2, lambda r, needle=needle: self._error_answer(r, needle))
        if self.tiny:
            req = {k: v for k, v in req.items() if k in TINY_KEYS}
        return req

    # -- running -------------------------------------------------------------

    def _spawn(self, argv, budget, traced):
        cmd = [sys.executable, str(LAUNCHER)]
        span_file = None
        if traced:
            span_file = self.dir / f"spans-{self.op_counter}.bin"
            cmd += ["--trace-out", str(span_file)]
        cmd += ["--", *argv]
        t0 = common.now()
        proc = subprocess.Popen(cmd, cwd=common.ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            raise common.OverBudget() from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        wall = common.now() - t0
        if span_file is not None:
            head = self.tracer.merge_file(span_file, self.op_counter)
            span_file.unlink()
            self.child_records.append({
                "import_s": head["import_s"],
                "floor_s": wall - head["import_s"] - head["install_s"] - head["main_s"],
            })
        return proc.returncode, out.decode()

    def ops(self):
        return [((key, n), self._op(key)) for n, key in enumerate(self.sequence)]

    def _op(self, key):
        argv = self.requests[key][0]
        return lambda budget, traced: self._spawn(argv, budget, traced)

    def execute(self, fn, budget, traced):
        return fn(budget, traced)

    def finish(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def peak_rss(self):
        return common.peak_rss_mib(children=True)

    # -- checks --------------------------------------------------------------

    def check(self, label, result):
        from diffchar import io

        key, n = label
        _, want_code, answer = self.requests[key]
        code, out = result
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if n >= 0 and out != self.reference.get(key):
            return "stdout differs from the set-up pass"
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if io.dumps(report) != out:
            return "stdout is not in canonical form"
        return answer(report)

    def _homology_answer(self, report, K, want):
        from diffchar import io

        r = report["result"]
        if (r["betti"], r["torsion"]) != (want[0], list(want[1])):
            return f"betti {r['betti']} torsion {r['torsion']}, expected {want}"
        if len(r["generators"]) != want[0] + len(want[1]):
            return "wrong number of generators"
        d = r["degree"]
        for g in r["generators"]:
            z = io.chain_from_json(g, K)
            if d > 0 and any(known.boundary(K.simplices(d), K.simplices(d - 1),
                                            z.to_vector())):
                return "a generator is not a cycle"
        return None

    @staticmethod
    def _phase_answer(report, phase):
        from diffchar import io

        got = report["result"]["phase"]
        if got != phase:
            return f"phase {got}, expected {phase}"
        x = io.parse_fraction(got)
        return None if 0 <= x < 1 else f"phase {got} outside [0, 1)"

    def _iota_answer(self, report, eta):
        from diffchar import io

        K = eta.complex
        h = io.character_from_json(report["result"]["character"], K)
        vec = eta.to_vector()
        d_eta = known.coboundary(K.simplices(0), K.simplices(1), vec)
        if h.lift != eta or h.curvature.to_vector() != d_eta:
            return "iota is not (d eta, eta)"
        return None

    @staticmethod
    def _flat_answer(report, u):
        from diffchar import io

        h = io.character_from_json(report["result"]["character"], u.complex)
        if not h.curvature.is_zero() or h.lift != u:
            return "j(u) is not (0, u)"
        return None

    @staticmethod
    def _degree_answer(report, K, degree):
        from diffchar import io

        h = io.character_from_json(report["result"]["character"], K)
        return None if h.degree == degree else f"degree {h.degree}, expected {degree}"

    @staticmethod
    def _xproduct_answer(report):
        from diffchar import io
        from diffchar.cochain import pair
        from diffchar.simplicial import fundamental_cycle

        P = io.complex_from_json(report["result"]["product_complex"])
        h = io.character_from_json(report["result"]["character"], P)
        if h.degree != 2 or pair(h.curvature, fundamental_cycle(P)) not in (1, -1):
            return "i x i does not have total curvature +-1"
        return None

    @staticmethod
    def _fiber_answer(report, want):
        from diffchar import io

        h = io.character_from_json(report["result"]["character"], want.complex)
        return None if h == want else "integral of i x i over the fiber is not i"

    @staticmethod
    def _boundary_fiber_answer(report):
        from diffchar import fixtures, io
        from diffchar.simplicial import identity_map, mapping_cone

        S1 = fixtures.circle()
        r = report["result"]
        io.character_from_json(r["over_boundary"], S1)
        cov = io.cochain_from_json(r["cov"], S1)
        rel = io.rel_character_from_json(r["relative"], mapping_cone(identity_map(S1)))
        return None if rel.cov == cov else "relative character has another covariant part"

    @staticmethod
    def _section_answer(report, cone, h):
        from diffchar import io
        from diffchar.relative import project

        section = io.rel_character_from_json(report["result"]["section"], cone)
        return None if project(section) == h else "section does not project to the character"

    @staticmethod
    def _obstruction_answer(report, K):
        from diffchar import io

        r = report["result"]
        if r["section"] is not None:
            return "obstructed section was returned"
        w = io.cochain_from_json(r["obstruction"], K, "Z")
        vec = [int(x) for x in w.to_vector()]
        if any(known.coboundary(K.simplices(w.degree), K.simplices(w.degree + 1), vec)):
            return "obstruction is not a cocycle"
        return None

    @staticmethod
    def _suite_answer(report, suite):
        r = report["result"]
        if r["suite"] != suite or not r["pass"] or not all(c["pass"] for c in r["checks"]):
            return f"suite {suite} did not pass"
        return None

    @staticmethod
    def _error_answer(report, needle):
        error = report.get("error", "")
        if not error or needle not in error:
            return f"error message {error!r} lacks {needle!r}"
        return None
