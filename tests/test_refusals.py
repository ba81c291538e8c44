"""Each refusal of a public constructor, group law or operator, driven once.

Every case below hands one entry point one input it must refuse and checks
the exact exception class and message.  Input is validated where it enters,
so these checks are the only guard against a malformed value; none of them
is reached on the way to a valid result, which is why each is driven here.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from diffchar import fixtures, io
from diffchar.characters import (
    DiffChar,
    FlatClass,
    IntegralClass,
    NotACycle,
    NotClosed,
    NotCocycle,
    NotIntegrallyCompatible,
    evaluate_torsion,
    from_curvature,
    iota,
    pullback,
)
from diffchar.cochain import (
    Cochain, cup, cup_1, pair, pullback as pullback_cochain, slant_fiber, zero_cochain,
)
from diffchar.exact_linalg import (
    CycleSplitting, IntMatrix, QuotientPresentation, smith_normal_form, solve_integer,
)
from diffchar.fiber_integration import (
    EndpointMismatch, TransferData, boundary_fiber_integrate, fiber_integrate, homotopy_defect,
    product_transfer,
)
from diffchar.holonomy import Filling, holonomy, transition_factor
from diffchar.products import (
    bb_evaluate, external_product, internal_product, kunneth_decompose,
)
from diffchar.relative import (
    KernelConditionFailed, RelChar, cov_inverse, descend_kernel, evaluate_rel,
    find_section, flat_class_pulled_back, incl_flat,
)
from diffchar.simplicial import (
    Chain, Complex, ConeChain, SimplicialMap, TensorChain, alexander_whitney, ez,
    fundamental_cycle, identity_map, staircase_product,
)

S1, RP2, T2 = fixtures.circle(), fixtures.projective_plane(), fixtures.torus()
IV = fixtures.interval()
CONE = fixtures.equator_cone()
X, A = CONE.phi.target, CONE.phi.source
HALF = Fraction(1, 2)


def _h():
    """The winding character, degree 1 on S1_3."""
    return fixtures.winding_character()


def _f():
    """A degree-2 character on RP2_6."""
    return iota(zero_cochain(RP2, 1))


def _rel(k=2, curvature=None, cov=None, lift_x=None, lift_a=None):
    """RelChar on the equator cone from zero parts, with one part replaced."""
    return RelChar(
        CONE,
        zero_cochain(X, k) if curvature is None else curvature,
        zero_cochain(A, k - 1) if cov is None else cov,
        zero_cochain(X, k - 1) if lift_x is None else lift_x,
        zero_cochain(A, k - 2) if lift_a is None else lift_a,
    )


def _bad_map_json():
    obj = io.rel_character_to_json(_rel())
    obj["map"]["vertex_map"] = [0, 2, 1]
    return obj


def _endpoint_mismatch():
    f0, _, H = fixtures.projection_homotopy()
    S2 = f0.source
    constant = SimplicialMap(S2, S2, [0] * S2.num_vertices)
    h = iota(zero_cochain(S2, 1))
    return homotopy_defect(h, f0, constant, H)


def _nonzero_degree_one_kernel():
    """A degree-1 relative character with zero projection and cov = 1."""
    ones = Cochain(A, 0, {(v,): 1 for v in range(A.num_vertices)}, "Z")
    return descend_kernel(_rel(k=1, cov=ones))


def _transition_off_target():
    fill = Filling(identity_map(IV), fundamental_cycle(IV))
    return transition_factor(_h(), fill, fill)


CASES = {
    # characters
    "IntegralClass-non-integer": (
        lambda: IntegralClass(S1, 1, Cochain(S1, 1, {(0, 1): HALF}, "Q")),
        NotCocycle, "class representative must be an integer cochain"),
    "FlatClass-non-integral-coboundary": (
        lambda: FlatClass(Cochain(S1, 0, {(0,): HALF}, "Q")),
        NotCocycle, "flat class needs an integral coboundary"),
    "DiffChar-complexes": (
        lambda: DiffChar(zero_cochain(S1, 1), zero_cochain(RP2, 0)),
        ValueError, "curvature and lift on different complexes"),
    "DiffChar-degrees": (
        lambda: DiffChar(zero_cochain(S1, 1), zero_cochain(S1, 1)),
        ValueError, "lift degree must be one below curvature degree"),
    # Degree 0 is checked as every degree is: the lift has degree -1.
    "DiffChar-degree-0-complexes": (
        lambda: DiffChar(zero_cochain(S1, 0), zero_cochain(RP2, -1)),
        ValueError, "curvature and lift on different complexes"),
    "DiffChar-degree-0-not-closed": (
        lambda: DiffChar(Cochain(S1, 0, {(0,): 1}, "Z"), zero_cochain(S1, -1)),
        NotClosed, "curvature must be a closed cochain"),
    "DiffChar-degree-0-non-integer": (
        lambda: DiffChar(Cochain(S1, 0, {v: HALF for v in S1.simplices(0)}, "Q"),
                         zero_cochain(S1, -1)),
        NotIntegrallyCompatible, "curvature - d(lift) must be an integer cocycle"),
    "from_curvature-not-closed": (
        lambda: from_curvature(Cochain(RP2, 1, {(0, 1): 1}, "Q")),
        NotClosed, "curvature must be closed"),
    "pullback-off-target": (
        lambda: pullback(fixtures.equator_map(), _h()),
        ValueError, "character does not live on the map's target"),
    "evaluate_torsion-not-a-cycle": (
        lambda: evaluate_torsion(_f(), RP2.chain(1, {(0, 1): 1})),
        NotACycle, "torsion evaluation needs a cycle"),
    # cochains
    "Cochain-value-type": (
        lambda: Cochain.from_vector(S1, 0, ["1", 0, 0]),
        TypeError, "cochain values must be int or Fraction, got <class 'str'>"),
    "Cochain-vector-length": (
        lambda: Cochain.from_vector(S1, 0, [0, 0]),
        ValueError, "vector length does not match simplex count"),
    "cup-complexes": (
        lambda: cup(zero_cochain(S1, 0), zero_cochain(RP2, 0)),
        ValueError, "cup product of cochains on different complexes"),
    "cup_1-complexes": (
        lambda: cup_1(zero_cochain(S1, 1), zero_cochain(RP2, 1)),
        ValueError, "cup_1 of cochains on different complexes"),
    "pair-degrees": (
        lambda: pair(zero_cochain(S1, 1), S1.chain(0, {(0,): 1})),
        ValueError, "pairing degree mismatch: cochain 1, chain 0"),
    "pullback-cochain-off-target": (
        lambda: pullback_cochain(fixtures.equator_map(), zero_cochain(S1, 1)),
        ValueError, "cochain does not live on the map's target"),
    "slant_fiber-not-a-product": (
        lambda: slant_fiber(zero_cochain(S1, 1), fundamental_cycle(IV)),
        TypeError, "slant_fiber needs a cochain on a ProductComplex"),
    "slant_fiber-fiber-chain": (
        lambda: slant_fiber(zero_cochain(T2, 2), fundamental_cycle(IV)),
        ValueError, "fiber chain does not live on the right factor"),
    # exact linear algebra
    "solve-length": (
        lambda: solve_integer(smith_normal_form(IntMatrix(2, 1, [[1], [2]])), [1]),
        ValueError, "right-hand side length does not match matrix rows"),
    "QuotientPresentation-compose": (
        lambda: QuotientPresentation(
            CycleSplitting(smith_normal_form(IntMatrix(0, 2, []))),
            [1], [{0: 1}, {1: 1}, {2: 1}], [{0: 1}, {1: 1}, {2: 1}]),
        ValueError, "boundary matrices do not compose"),
    "kernel_coordinates-length": (
        lambda: S1.homology(1).kernel_coordinates([1, 0]),
        ValueError, "vector length does not match the chain group"),
    # fiber integration
    "TransferData-not-a-product": (
        lambda: TransferData(S1, fundamental_cycle(S1)),
        TypeError, "transfer data needs a ProductComplex total space"),
    "TransferData-fiber-chain": (
        lambda: TransferData(T2, fundamental_cycle(IV)),
        ValueError, "fiber chain must live on the right factor"),
    "fiber_integrate-off-total": (
        lambda: fiber_integrate(_h(), product_transfer(S1, S1)),
        ValueError, "character does not live on the total space"),
    "boundary_fiber_integrate-off-total": (
        lambda: boundary_fiber_integrate(_h(), product_transfer(S1, IV)),
        ValueError, "character does not live on the total space"),
    "homotopy-not-a-product": (
        lambda: homotopy_defect(_h(), identity_map(S1), identity_map(S1), identity_map(S1)),
        TypeError, "homotopy must be defined on a staircase product"),
    "homotopy-fiber-degree": (
        lambda: homotopy_defect(_h(), identity_map(S1), identity_map(S1),
                                staircase_product(S1, fixtures.sphere()).projection_left()),
        ValueError, "interval chain must have degree 1"),
    "homotopy-endpoints": (
        lambda: homotopy_defect(_h(), identity_map(S1), identity_map(S1),
                                staircase_product(S1, S1).projection_left()),
        ValueError, "interval chain must have exactly two endpoints"),
    "homotopy-end-map": (_endpoint_mismatch, EndpointMismatch,
                         "H restricted to the end is not f1"),
    # fixtures
    "path_complex-segments": (
        lambda: fixtures.path_complex(0),
        ValueError, "need at least one segment"),
    # holonomy
    "Filling-off-source": (
        lambda: Filling(identity_map(IV), fundamental_cycle(S1)),
        ValueError, "chain does not live on the map's source"),
    "holonomy-off-target": (
        lambda: holonomy(_h(), fixtures.equator_map(), fundamental_cycle(S1)),
        ValueError, "map does not land in the character's complex"),
    "holonomy-off-source": (
        lambda: holonomy(_h(), identity_map(S1), fixtures.torsion_loop()),
        ValueError, "cycle does not live on the map's source"),
    "transition_factor-off-target": (
        _transition_off_target,
        ValueError, "fillings do not land in the character's complex"),
    # io
    "parse_simplex-not-json": (
        lambda: io.parse_simplex("[0,"),
        io.FormatError, "bad simplex key '[0,'"),
    "parse_simplex-not-vertices": (
        lambda: io.parse_simplex('["a"]'),
        io.FormatError, "bad simplex key '[\"a\"]'"),
    "rel_character_from_json-map": (
        lambda: io.rel_character_from_json(_bad_map_json(), CONE),
        io.FormatError, "stored map does not match the mapping cone"),
    # products
    "internal_product-complexes": (
        lambda: internal_product(_h(), _f()),
        ValueError, "internal product needs characters on one complex"),
    "external_product-factors": (
        lambda: external_product(_h(), _f(), T2),
        ValueError, "given product has the wrong factors"),
    "kunneth_decompose-not-a-cycle": (
        lambda: kunneth_decompose(T2.chain(1, {(0, 1): 1})),
        NotACycle, "Kunneth decomposition needs a cycle"),
    "bb_evaluate-not-a-product": (
        lambda: bb_evaluate(_h(), _h(), fundamental_cycle(S1), S1),
        TypeError, "bb_evaluate needs a cycle on a ProductComplex"),
    "bb_evaluate-factors": (
        lambda: bb_evaluate(_h(), _f(), fixtures.gamma_first(), T2),
        ValueError, "cycle does not live on the product of the factors"),
    "bb_evaluate-degree": (
        lambda: bb_evaluate(_h(), _h(), fixtures.torus_cycle(), T2),
        ValueError, "cycle degree does not match the product degree"),
    # relative characters
    "RelChar-degree": (
        lambda: _rel(k=0),
        ValueError, "relative characters start in degree 1"),
    "RelChar-complexes": (
        lambda: _rel(curvature=zero_cochain(A, 2)),
        ValueError, "curvature lives on X and the covariant part on A"),
    "RelChar-cov-degree": (
        lambda: _rel(cov=zero_cochain(A, 0)),
        ValueError, "covariant part must sit one degree down"),
    "RelChar-X-lift": (
        lambda: _rel(lift_x=zero_cochain(A, 1)),
        ValueError, "X lift has the wrong complex or degree"),
    "RelChar-A-lift": (
        lambda: _rel(lift_a=zero_cochain(X, 0)),
        ValueError, "A lift has the wrong complex or degree"),
    "evaluate_rel-cone": (
        lambda: evaluate_rel(_rel(), ConeChain(fixtures.torsion_loop_cone(), 1,
                                               RP2.chain(1), S1.chain(0))),
        ValueError, "chain lives on a different mapping cone"),
    "incl_flat-low-degree": (
        lambda: incl_flat(DiffChar(zero_cochain(A, -1), zero_cochain(A, -2)), CONE),
        ValueError, "expected a degree-0 character on A"),
    "incl_flat-off-source": (
        lambda: incl_flat(iota(zero_cochain(X, 1)), CONE),
        ValueError, "character does not live on the cone's source"),
    "cov_inverse-degree": (
        lambda: cov_inverse(zero_cochain(S1, -1)),
        ValueError, "relative characters start in degree 1"),
    "find_section-off-target": (
        lambda: find_section(_h(), CONE),
        ValueError, "character does not live on the cone's target"),
    "descend_kernel-degree-1": (
        _nonzero_degree_one_kernel,
        KernelConditionFailed, "in degree 1 only the zero relative character descends"),
    "flat_class_pulled_back-off-source": (
        lambda: flat_class_pulled_back(FlatClass(zero_cochain(X, 1)), CONE.phi),
        ValueError, "class does not live on the map's source"),
    # simplicial
    "Complex-empty-simplex": (
        lambda: Complex(3, [()]),
        ValueError, "empty simplex"),
    "chain_from_vector-length": (
        lambda: S1.chain_from_vector(1, [0]),
        ValueError, "vector length does not match simplex count"),
    "Chain-add-spaces": (
        lambda: S1.chain(0) + S1.chain(1),
        ValueError, "chains live on different complexes or degrees"),
    "DiffChar-add-spaces": (
        lambda: _h() + _f(),
        ValueError, "characters on different complexes or degrees"),
    "Chain-coefficient-type": (
        lambda: Chain(S1, 1, {(0, 1): "1"}),
        TypeError, "chain coefficients must be int"),
    "Chain-simplex": (
        lambda: S1.chain(1, {(0, 3): 1}),
        ValueError, "simplex (0, 3) is not in the complex"),
    "Chain-scale-type": (
        lambda: fundamental_cycle(S1).scale("2"),
        TypeError, "chain scaling must be by int"),
    "TensorChain-coefficient-type": (
        lambda: TensorChain(S1, S1, {((0,), (1,)): "1"}),
        TypeError, "tensor coefficients must be int"),
    "TensorChain-left-cell": (
        lambda: TensorChain(S1, S1, {((5,), (0,)): 1}),
        ValueError, "left simplex (5,) not in complex"),
    "TensorChain-right-cell": (
        lambda: TensorChain(S1, S1, {((0,), (5,)): 1}),
        ValueError, "right simplex (5,) not in complex"),
    "SimplicialMap-vertex-range": (
        lambda: SimplicialMap(S1, S1, [0, 1, 3]),
        ValueError, "target vertex 3 out of range"),
    "ez-factors": (
        lambda: ez(fixtures.torsion_loop(), fundamental_cycle(S1), T2),
        ValueError, "tensor chain factors do not match the product"),
    "alexander_whitney-not-a-product": (
        lambda: alexander_whitney(fundamental_cycle(S1)),
        TypeError, "alexander_whitney needs a chain on a ProductComplex"),
    "ConeChain-X-part": (
        lambda: ConeChain(CONE, 1, A.chain(1), A.chain(0)),
        ValueError, "X part has the wrong complex or degree"),
    "ConeChain-A-part": (
        lambda: ConeChain(CONE, 1, X.chain(1), A.chain(1)),
        ValueError, "A part has the wrong complex or degree"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refusal(name):
    call, error, message = CASES[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
