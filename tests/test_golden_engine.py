"""Golden fingerprints of everything the Smith engine hands to its callers.

For every degree of the torsion fixtures and of staircase products of
seeded vertex relabelings, the invariant factors and the four sparse
transforms of `relation_snf` and `boundary_snf`, and the generators of
`homology` and `cohomology`, are hashed.  The digests were taken at commit
37ba9f2, before the engine's sparse products moved into shared loop kernels,
so any change to a factor, a transform entry or a generator, however it is
reached, fails here.  Sparse vectors are hashed by their sorted items: the
order in which a dict was filled is not part of the result.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from strategies import fresh, relabeled_product


def _sparse(vectors):
    return [sorted(v.items()) for v in vectors]


def _snf(snf):
    return (
        snf.rows, snf.cols, list(snf.factors),
        _sparse(snf._u), _sparse(snf._u_inv), _sparse(snf._v), _sparse(snf._v_inv),
    )


def _group(group):
    return group.betti, list(group.torsion), [list(g) for g in group.generators]


def fingerprint(K):
    """sha256 of the engine's output on K in every degree."""
    record = []
    for n in range(K.dim + 2):
        record.append(("relations", n, _snf(K.relation_snf(n))))
        record.append(("snf", n, _snf(K.boundary_snf(n))))
    for n in range(K.dim + 1):
        record.append(("H", n, _group(K.homology(n))))
        record.append(("Hc", n, _group(K.cohomology(n))))
    return hashlib.sha256(repr(record).encode()).hexdigest()


FIXTURES = {
    "Klein_K": "d425fe370de8616a7118701beb25a2348a6b09f3d31e75ecfd6b17ce019850e7",
    "RP2_6": "97ac2d0aa4f4b3e4cbceb072e86372a6d42dda53d8b34d929a3e33cceeb9e264",
    "T2_9": "1189b288edf6dc55bbee7693979ea603de68d7f613d7ca292a4f1dbed9fa0ee2",
}

# (left, right, relabeling seed): digest.
PRODUCTS = {
    ("S1_3", "RP2_6", 1): "ca3adb8c66cd19080bdd58acbcc74c920c44c6ee9bccd6c5763907fb1c9f4217",
    ("T2_9", "S1_3", 2): "2956911a7af87d1bc23a3bd7df8016744432a820719f6205d1ed4ef2101059a2",
    ("Klein_K", "S1_3", 3): "7dd27728d44ce789ab8790c6c1dab36b407634d973b799c9cc00b09db47ffe41",
    ("S2_4", "S1_3", 4): "8ca0f8b3e42cd00cb59c5b6a663ce4f6e304da345130d57032951be513f68876",
    ("S1_6", "S1_3", 5): "8c73a0b382c7f86c11e49e16599c29eaa0200100e12c951d1aaffd25885cfa63",
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_torsion_fixtures_keep_their_fingerprint(name):
    assert fingerprint(fresh(name)) == FIXTURES[name]


@pytest.mark.parametrize("key", sorted(PRODUCTS))
def test_relabeled_products_keep_their_fingerprint(key):
    left, right, seed = key
    assert fingerprint(relabeled_product(left, right, random.Random(seed))) == PRODUCTS[key]
