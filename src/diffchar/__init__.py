"""Exact-arithmetic differential characters on finite simplicial complexes.

The package provides integer/rational chain and cochain calculus, the group
of differential characters with its ring structure, fiber integration over
product bundles, relative characters on mapping cones, and holonomy with
parallel-transport data.  All arithmetic is exact: Python integers and
fractions.Fraction throughout, never floats.
"""

from diffchar.exact_linalg import (
    IntMatrix,
    SnfDecomposition,
    smith_normal_form,
    solve_integer,
    solve_rational,
    kernel_basis,
    cycle_splitting,
    homology,
    cohomology,
)
from diffchar.simplicial import (
    Complex,
    Chain,
    TensorChain,
    SimplicialMap,
    ProductComplex,
    MappingCone,
    ConeChain,
    staircase_product,
    eilenberg_zilber,
    alexander_whitney,
    fundamental_cycle,
    mapping_cone,
    NotManifold,
    NonOrientable,
)
from diffchar.cochain import (
    Cochain,
    coboundary,
    cup,
    cup_1,
    pair,
    slant_fiber,
    has_integral_periods,
)
from diffchar.characters import (
    DiffChar,
    LowDegreeChar,
    FlatClass,
    IntegralClass,
    evaluate,
    char_class,
    iota,
    flat_character,
    j,
    trivialization,
    from_curvature,
    flat_holonomy_class,
    pullback,
    evaluate_torsion,
    integral_decomposition,
    fractional_torsion_class,
    random_character,
    random_flat_character,
)
from diffchar.products import (
    internal_product,
    external_product,
    kunneth_split,
    kunneth_decompose,
    bb_evaluate,
)
from diffchar.fiber_integration import (
    TransferData,
    product_transfer,
    fiber_integrate,
    boundary_fiber_integrate,
    homotopy_defect,
)
from diffchar.relative import (
    RelChar,
    evaluate_rel,
    incl_flat,
    project,
    cov_inverse,
    find_section,
    descend_kernel,
    flat_class_pulled_back,
    pushforward_injective,
    NoSection,
    NotConeClosed,
    KernelConditionFailed,
)
from diffchar.holonomy import (
    Filling,
    Phased,
    holonomy,
    transition_factor,
    hermitian_pairing,
)
