"""Per-layer metrics of the traced run, and what each one should move.

Each metric is computed from the spans of the traced timed passes and
reported per pass (totals divided by the number of traced passes), except
`snf_max_bits` (a maximum) and `cache_hit_ratio` (a ratio over all calls).
`MOVES` records which end-to-end metric on which workload each layer metric
should move; the traced run prints it next to each value.
"""

from __future__ import annotations

from collections import namedtuple
from fnmatch import fnmatch

Metric = namedtuple("Metric", "name unit better rule args")

_SOLVES = ("exact_linalg.solve_integer", "exact_linalg.solve_rational",
           "exact_linalg.kernel_basis")
_CACHED = tuple(
    f"simplicial.{cls}.{method}"
    for cls in ("Complex", "MappingCone")
    for method in ("boundary_matrix", "boundary_snf", "splitting", "homology", "cohomology")
)
_IO_PARSE = tuple(
    f"io.{name}"
    for name in ("complex_from_json", "chain_from_json", "cochain_from_json",
                 "map_from_json", "character_from_json", "rel_character_from_json",
                 "parse_fraction", "parse_simplex")
)
_IO_DUMP = tuple(
    f"io.{name}"
    for name in ("dumps", "complex_to_json", "chain_to_json", "cochain_to_json",
                 "map_to_json", "character_to_json", "rel_character_to_json",
                 "fraction_to_str", "simplex_key")
)


def _calls(name, *spans):
    return Metric(name, "count", "lower", "calls", spans)


def _time(name, *spans):
    return Metric(name, "s", "lower", "time", spans)


def _self(layer):
    return Metric(f"{layer}.self_s", "s", "lower", "self", (layer,))


METRICS = [
    _calls("exact_linalg.snf_calls", "exact_linalg.smith_normal_form"),
    _time("exact_linalg.snf_s", "exact_linalg.smith_normal_form"),
    Metric("exact_linalg.snf_cells", "count", "lower", "snf", (0,)),
    Metric("exact_linalg.snf_nnz", "count", "lower", "snf", (1,)),
    Metric("exact_linalg.snf_max_bits", "bits", "lower", "snf_max", (2,)),
    _calls("exact_linalg.matmul_calls", "exact_linalg.IntMatrix.mul"),
    _time("exact_linalg.matmul_s", "exact_linalg.IntMatrix.mul"),
    _time("exact_linalg.presentation_s", "exact_linalg.QuotientPresentation.__init__"),
    _self("exact_linalg"),
    _calls("exact_linalg.apply_calls", "exact_linalg.IntMatrix.apply"),
    _time("exact_linalg.apply_s", "exact_linalg.IntMatrix.apply"),
    _calls("exact_linalg.solve_calls", *_SOLVES),
    _time("exact_linalg.solve_s", *_SOLVES),
    _time("exact_linalg.splitting_s", "exact_linalg.CycleSplitting.__init__"),
    _calls("simplicial.complex_builds", "simplicial.Complex.__init__"),
    _time("simplicial.complex_build_s", "simplicial.Complex.__init__",
          "simplicial.ProductComplex.__init__"),
    _time("simplicial.boundary_matrix_s", "simplicial.Complex.boundary_matrix",
          "simplicial.MappingCone.boundary_matrix"),
    _calls("simplicial.map_builds", "simplicial.SimplicialMap.__init__"),
    _time("simplicial.map_build_s", "simplicial.SimplicialMap.__init__"),
    _calls("simplicial.eq_calls", "simplicial.Complex.__eq__"),
    Metric("simplicial.cache_hit_ratio", "ratio", "higher", "hit_ratio", _CACHED),
    _time("simplicial.ez_s", "simplicial.eilenberg_zilber", "simplicial.ez"),
    _time("simplicial.aw_s", "simplicial.alexander_whitney"),
    _self("simplicial"),
    _calls("cochain.inits", "cochain.Cochain.__init__"),
    _time("cochain.init_s", "cochain.Cochain.__init__"),
    _calls("cochain.cup_calls", "cochain.cup"),
    _time("cochain.cup_s", "cochain.cup"),
    _calls("cochain.coboundary_calls", "cochain.coboundary"),
    _time("cochain.coboundary_s", "cochain.coboundary"),
    _time("cochain.pullback_s", "cochain.pullback"),
    _time("cochain.slant_s", "cochain.slant_fiber"),
    _calls("cochain.periods_calls", "cochain.has_integral_periods"),
    _time("cochain.periods_s", "cochain.has_integral_periods"),
    _self("cochain"),
    _calls("characters.char_inits", "characters.DiffChar.__init__",
           "characters.LowDegreeChar.__init__"),
    _time("characters.class_s", "characters.char_class",
          "characters.IntegralClass.__init__"),
    _time("characters.random_s", "characters.random_character",
          "characters.random_flat_character"),
    _time("characters.trivialization_s", "characters.trivialization"),
    _self("characters"),
    _calls("products.internal_calls", "products.internal_product"),
    _time("products.bb_s", "products.bb_evaluate"),
    _self("products"),
    _calls("fiber_integration.calls", "fiber_integration.fiber_integrate",
           "fiber_integration.boundary_fiber_integrate"),
    _self("fiber_integration"),
    _time("relative.find_section_s", "relative.find_section"),
    _self("relative"),
    _self("holonomy"),
    Metric("fixtures.build_s", "s", "lower", "layer_time", ("fixtures",)),
    _time("io.parse_s", *_IO_PARSE),
    _time("io.dumps_s", *_IO_DUMP),
    _self("io"),
    Metric("cli.import_s", "s", "lower", "child", ("import_s",)),
    _time("cli.main_s", "cli.main"),
    Metric("cli.process_floor_s", "s", "lower", "child", ("floor_s",)),
    Metric("trace.overhead_ratio", "ratio", "lower", "overhead", ()),
]

# Layer metric (pattern; the first match wins) -> the end-to-end metrics, as
# workload.metric, it should move, written down before any optimisation is
# measured.
MOVES = {
    "exact_linalg.snf_max_bits": "homology.wall_s, homology.peak_rss_mib",
    "exact_linalg.snf_*": "homology.wall_s, cli.op_p90_ms; small on algebra",
    "exact_linalg.matmul_*": "homology.wall_s, cli.op_p90_ms",
    "exact_linalg.presentation_s": "homology.wall_s, cli.op_p90_ms",
    "exact_linalg.self_s": "homology.wall_s, cli.op_p90_ms",
    "exact_linalg.apply_*": "algebra.op_p90_ms",
    "exact_linalg.solve_*": "algebra.op_p90_ms",
    "exact_linalg.splitting_s": "algebra.setup_s, cli.op_p50_ms",
    "simplicial.complex_*": "cli.op_p50_ms, homology.setup_s (built in set-up, untraced)",
    "simplicial.boundary_matrix_s": "cli.op_p50_ms, homology.setup_s",
    "simplicial.map_*": "cli.op_p50_ms, homology.setup_s",
    "simplicial.eq_calls": "algebra.op_p50_ms",
    "simplicial.cache_hit_ratio": "algebra.op_p50_ms",
    "simplicial.ez_s": "algebra.op_p90_ms",
    "simplicial.aw_s": "algebra.op_p90_ms",
    "cochain.*": "algebra.op_p50_ms, algebra.op_p90_ms; near zero on homology",
    "characters.*": "algebra.op_p50_ms",
    "products.*": "algebra.op_p90_ms",
    "fiber_integration.*": "algebra.op_p90_ms",
    "relative.*": "algebra.op_p90_ms",
    "holonomy.self_s": "algebra.op_p90_ms",
    "fixtures.build_s": "cli.op_p50_ms; zero elsewhere after set-up",
    "io.*": "cli.op_p50_ms; zero elsewhere",
    "cli.import_s": "cli.op_p50_ms; zero elsewhere",
    "cli.main_s": "cli.op_p50_ms; zero elsewhere",
    "cli.process_floor_s": "cli.op_p50_ms; the interpreter floor, no library change moves it",
}

# Layers predicted to carry work on a workload.  The traced run fails when
# one of them records no span there.
REQUIRED = {
    "homology": ("exact_linalg", "simplicial"),
    "algebra": ("exact_linalg", "simplicial", "cochain", "characters", "products",
                "fiber_integration", "relative", "holonomy"),
    "cli": ("cli", "io", "fixtures", "exact_linalg", "simplicial", "cochain",
            "characters"),
}


def prediction(name):
    """The MOVES entry for a layer metric, or "" when there is none."""
    for pattern, moves in MOVES.items():
        if fnmatch(name, pattern):
            return moves
    return ""


class MissingLayer(RuntimeError):
    """A layer predicted to carry work on the workload recorded no span."""


def compute(tracer, workload, passes, child_records=(), overhead=None):
    """All METRICS as {name: {"value", "unit"}}, per traced pass."""
    groups = {m.name: m.args for m in METRICS if m.rule in ("calls", "time", "hit_ratio")}
    for layer in {m.args[0] for m in METRICS if m.rule == "layer_time"}:
        groups[f"layer:{layer}"] = tuple(n for n in tracer.names if n.startswith(layer + "."))
    stats = tracer.analyse(groups)
    layer_spans = {}
    layer_self = {}
    for name, entry in stats["names"].items():
        layer = name.split(".", 1)[0]
        layer_spans[layer] = layer_spans.get(layer, 0) + entry["calls"]
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self"]
    missing = [layer for layer in REQUIRED[workload] if not layer_spans.get(layer)]
    if missing:
        raise MissingLayer(f"{workload}: no spans recorded in {', '.join(missing)}")
    per = float(max(passes, 1))
    out = {}
    for m in METRICS:
        if m.rule == "calls":
            value = stats["groups"][m.name]["calls"] / per
        elif m.rule == "time":
            value = stats["groups"][m.name]["time"] / per
        elif m.rule == "hit_ratio":
            g = stats["groups"][m.name]
            value = g["leaf"] / g["calls"] if g["calls"] else 0.0
        elif m.rule == "self":
            value = layer_self.get(m.args[0], 0.0) / per
        elif m.rule == "layer_time":
            value = stats["groups"][f"layer:{m.args[0]}"]["time"] / per
        elif m.rule == "snf":
            value = sum(r[m.args[0]] for r in tracer.snf) / per
        elif m.rule == "snf_max":
            value = max((r[m.args[0]] for r in tracer.snf), default=0)
        elif m.rule == "child":
            value = sum(r[m.args[0]] for r in child_records) / per
        elif m.rule == "overhead":
            value = overhead if overhead is not None else 0.0
        out[m.name] = {"value": value, "unit": m.unit}
    shares = {layer: layer_self[layer] for layer in layer_self}
    return out, shares
