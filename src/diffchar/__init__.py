"""Exact-arithmetic differential characters on finite simplicial complexes.

The package provides integer/rational chain and cochain calculus, the group
of differential characters with its ring structure, fiber integration over
product bundles, relative characters on mapping cones, and holonomy with
parallel-transport data.  All arithmetic is exact: Python integers and
fractions.Fraction throughout, never floats.

Importing the package loads none of its modules.  Each name below is read
from its module on first access (PEP 562), so a process compiles and keeps
only the modules it uses: homology alone needs `simplicial` and
`exact_linalg`.
"""

import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "exact_linalg": (
        "IntMatrix", "SnfDecomposition", "smith_normal_form", "solve_integer",
        "solve_rational", "kernel_basis", "cycle_splitting", "homology", "cohomology",
    ),
    "simplicial": (
        "Complex", "Chain", "TensorChain", "SimplicialMap", "ProductComplex",
        "MappingCone", "ConeChain", "staircase_product", "eilenberg_zilber",
        "alexander_whitney", "fundamental_cycle", "mapping_cone", "NotManifold",
        "NonOrientable",
    ),
    "cochain": (
        "Cochain", "coboundary", "cup", "cup_1", "pair", "slant_fiber",
        "has_integral_periods",
    ),
    "characters": (
        "DiffChar", "FlatClass", "IntegralClass", "evaluate",
        "char_class", "iota", "flat_character", "j", "trivialization",
        "from_curvature", "flat_holonomy_class", "pullback", "evaluate_torsion",
        "integral_decomposition", "fractional_torsion_class", "random_character",
        "random_flat_character",
    ),
    "products": (
        "internal_product", "external_product", "kunneth_split", "kunneth_decompose",
        "bb_evaluate",
    ),
    "fiber_integration": (
        "TransferData", "product_transfer", "fiber_integrate",
        "boundary_fiber_integrate", "homotopy_defect",
    ),
    "relative": (
        "RelChar", "evaluate_rel", "incl_flat", "project", "cov_inverse",
        "find_section", "descend_kernel", "flat_class_pulled_back",
        "pushforward_injective", "NoSection", "NotConeClosed", "KernelConditionFailed",
    ),
    "holonomy": (
        "Filling", "Phased", "holonomy", "transition_factor", "hermitian_pairing",
    ),
}

# Exported name -> the module that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


class _Package(ModuleType):
    """The package module, which keeps an exported name bound to the object
    it exports: importing the submodule `diffchar.holonomy` sets the
    package's attribute `holonomy`, which names the function."""

    def __setattr__(self, name, value):
        if name in _MODULE_OF and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
