"""Golden digests of library outputs: the `io` JSON of values no report prints.

Each row of `OUTPUTS` names one call of the library on seeded characters and
cochains: internal and external products, fiber integrals on T2_9 and on a
product of relabeled complexes, `trivialization`, `from_curvature` and
`integral_decomposition`.  Each result depends on the representatives the
Smith engine picks, so a row pins the sha256 of the result's `io` JSON.  A
change that moves a row on purpose, such as another representative, names
the row and says why.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from diffchar import fixtures, io
from diffchar.characters import (
    DiffChar,
    from_curvature,
    integral_decomposition,
    random_character,
    trivialization,
)
from diffchar.cochain import Cochain, coboundary
from diffchar.fiber_integration import fiber_integrate, product_transfer
from diffchar.products import external_product, internal_product

from strategies import random_cochain, relabeled_product


def _internal(name, k, l):
    def run(rng):
        K = fixtures.complex_by_name(name)
        h, f = random_character(K, k, rng), random_character(K, l, rng)
        return io.character_to_json(internal_product(h, f))

    return run


def _external(left, right, k, l):
    def run(rng):
        P = relabeled_product(left, right, rng)
        h, f = random_character(P.left, k, rng), random_character(P.right, l, rng)
        return io.character_to_json(external_product(h, f, P))

    return run


def _fiber(total, k):
    """Integrate over the fundamental cycle of the right factor of `total`,
    a bundled product by name or a pair of complexes to relabel."""

    def run(rng):
        if isinstance(total, str):
            P = fixtures.complex_by_name(total)
        else:
            P = relabeled_product(*total, rng)
        h = random_character(P, k, rng)
        return io.character_to_json(fiber_integrate(h, product_transfer(P.left, P.right, total=P)))

    return run


def _trivialization(name, k):
    """A character of class zero: (d eta, eta + t) with t an integer cochain."""

    def run(rng):
        K = fixtures.complex_by_name(name)
        eta = random_cochain(K, k - 1, rng)
        t = Cochain.from_vector(K, k - 1, [rng.randint(-3, 3) for _ in K.simplices(k - 1)])
        h = DiffChar(coboundary(eta), eta + t)
        return io.cochain_to_json(trivialization(h))

    return run


def _from_curvature(name, k):
    def run(rng):
        omega = random_character(fixtures.complex_by_name(name), k, rng).curvature
        return io.character_to_json(from_curvature(omega))

    return run


def _integral_decomposition(name, k):
    def run(rng):
        a = random_character(fixtures.complex_by_name(name), k, rng).curvature
        m, r = integral_decomposition(a)
        return {"m": io.cochain_to_json(m), "r": io.cochain_to_json(r)}

    return run


CALLS = {
    "internal-T2_9-1-1": _internal("T2_9", 1, 1),
    "internal-RP2_6-1-1": _internal("RP2_6", 1, 1),
    "internal-Klein_K-1-2": _internal("Klein_K", 1, 2),
    "internal-S2_4-2-1": _internal("S2_4", 2, 1),
    "external-S1_3xS1_3-1-1": _external("S1_3", "S1_3", 1, 1),
    "external-S1_3xRP2_6-1-1": _external("S1_3", "RP2_6", 1, 1),
    "external-RP2_6xS1_3-2-1": _external("RP2_6", "S1_3", 2, 1),
    "external-Klein_KxS1_3-1-2": _external("Klein_K", "S1_3", 1, 2),
    "fiber-T2_9-1": _fiber("T2_9", 1),
    "fiber-T2_9-2": _fiber("T2_9", 2),
    "fiber-T2_9-3": _fiber("T2_9", 3),
    "fiber-RP2_6xS1_3-1": _fiber(("RP2_6", "S1_3"), 1),
    "fiber-RP2_6xS1_3-2": _fiber(("RP2_6", "S1_3"), 2),
    "fiber-RP2_6xS1_3-3": _fiber(("RP2_6", "S1_3"), 3),
    "trivialization-T2_9-2": _trivialization("T2_9", 2),
    "trivialization-RP2_6-2": _trivialization("RP2_6", 2),
    "trivialization-Klein_K-1": _trivialization("Klein_K", 1),
    "from_curvature-T2_9-2": _from_curvature("T2_9", 2),
    "from_curvature-RP2_6-2": _from_curvature("RP2_6", 2),
    "from_curvature-Klein_K-1": _from_curvature("Klein_K", 1),
    "integral_decomposition-T2_9-1": _integral_decomposition("T2_9", 1),
    "integral_decomposition-RP2_6-2": _integral_decomposition("RP2_6", 2),
    "integral_decomposition-S2_4-2": _integral_decomposition("S2_4", 2),
}

# call -> sha256 of its result's io JSON
OUTPUTS = {
    "internal-T2_9-1-1": "c5eb7b1a6ca6fd55f68aa890084030b6c4f915db4a16a8340b30f55cf384a3fc",
    "internal-RP2_6-1-1": "af8e1e162d6d1fc0efd66d880a5ddf534eeec4b583a4a8ceb7b488873ea64a7f",
    "internal-Klein_K-1-2": "9e16472fb0f8f5b97f69d8d909028b0618a61b48032d325170cbc6b987ae5329",
    "internal-S2_4-2-1": "a4897f94c83296f0501c044e86d64ac0426d8f4fb7884f86ca28a7146efbe749",
    "external-S1_3xS1_3-1-1": "4b8ed8471109b29f43cf47109523e1299420357e1daea3620cb05116f96035cc",
    "external-S1_3xRP2_6-1-1": "943a9930ee063e81bad89591fac47c9410e3e8ce07801fb87f3064eec531f753",
    "external-RP2_6xS1_3-2-1": "7c3aedceb8141edbf57427a4ed514572f89cd9a39975927c95ea7d00c0b904c2",
    "external-Klein_KxS1_3-1-2": "e46510c6cb04e6b0d32650f1a542643ef2af9a961d0c2413a7d65f08556437af",
    "fiber-T2_9-1": "63c568ed2e6e00de2777f0145a779d93599e7b080bc22cb9bf49e2e8b197e595",
    "fiber-T2_9-2": "a66f3621b62f283ec278216eef385d91d371ccc90ff4a3366725e1050e2ef0eb",
    "fiber-T2_9-3": "805059a7a63fcdc2b6de63e0f01170afd19cba9046d6bc236761abe1760a0718",
    "fiber-RP2_6xS1_3-1": "9bb232b1ec6d74a30e1057ebbd25aebf61803b8f5c570bf8964dcc7a373152a2",
    "fiber-RP2_6xS1_3-2": "dd002a2449794e9e9a900a97be29e34af967f5b66902b6cee582397d18d297ee",
    "fiber-RP2_6xS1_3-3": "ca72f556f3c01f768c7d94eb6d6e5b362fba5af09550c912a8275d371ac66e19",
    "trivialization-T2_9-2": "6266ed437d058fcc6eee8bee5f480b6564d0e56e9c802243d50a8b8f11d44ec3",
    "trivialization-RP2_6-2": "3ab87d43826665880abb3aec2cef3a62c31d502c9f3a9944aea5a8191459c84e",
    "trivialization-Klein_K-1": "31748e54431e68b8bcef16a022e4c753b510326f8271ae837febb35a8ddc2e78",
    "from_curvature-T2_9-2": "9f8a4baece699a81862a9557ae056e06858e94f1cb765bebdee6b7441fa5c499",
    "from_curvature-RP2_6-2": "ad5a0ef627ed0b8141d6b4bcfcd0663660bba5f3f94778ce906b995eb0b36b06",
    "from_curvature-Klein_K-1": "a836df3dac78a64de439ee65727455a2a9d9fc05c5e123ab222bdae97c71b8d4",
    "integral_decomposition-T2_9-1": "b6a5d91aa5e277ab858f60fda5468c445414c0c36de03514bb542016377c45a1",
    "integral_decomposition-RP2_6-2": "f4398386880df61039cacc395648201f4c54d43678e11e728c604d103ec6c9d4",
    "integral_decomposition-S2_4-2": "cc06a36e7093d0570db04de7446538062c976bbf647540d79e18af4ad0ff7b0f",
}


def test_every_call_has_a_row():
    assert sorted(CALLS) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_library_outputs_keep_their_values(name):
    out = CALLS[name](random.Random(name))
    assert hashlib.sha256(io.dumps(out).encode()).hexdigest() == OUTPUTS[name]
