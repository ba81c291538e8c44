"""The verify suites' check lists and the witnesses of failing checks."""

from __future__ import annotations

import functools
import hashlib
import json
from fractions import Fraction

import pytest

from diffchar import characters, cochain, products, verify
from diffchar.cli import main


def _digest(checks):
    return hashlib.sha256("\n".join(c["name"] for c in checks).encode()).hexdigest()


# The ordered check names of each suite, as sha256 of the names joined by
# newlines.  Names do not depend on the number of instances: boundary-fiber
# reports its degree-1 check with no instance run at all.
NAME_DIGESTS = {
    "diagram33": (78, "cb77ad5bc693c2e94594c0834ad86723bd6b32c03342b4e655e38bf832d000c1"),
    "product-axioms": (35, "0b6433ba2b3223fbd0d03ee36ec9c3e0146ac4bef4d51d5045a85759dc5d2399"),
    "bb-oracle": (3, "ea4aa256e3c450719e314cb10aad84aff7e62435ea057beae0afca21ae5f99ee"),
    "fiber-axioms": (26, "6cf09046c690f7466ba9bbf45af237820942cf4226a14c202f0add226de50c96"),
    "boundary-fiber": (6, "8906c8aaba3c0516faada1ad33086cc58dd74df49ee1fc600030b8e038ddf503"),
    "updown": (8, "0762528f959ec170ec6aed228fb9cdfebcba48337d7aa96ce1018e212a459942"),
    "relative-exact": (12, "22db1a3985ab676d64f8bbcb29cb478c080f63bd7521e32bcaecff08328b9cdb"),
    "holonomy": (12, "496f0fbe57831b68e41c08d2ead84f0866d068573fe711deb998395076bfa585"),
}
_FEW = {"product-axioms": {"instances": 1}, "boundary-fiber": {"instances": 0}}


def test_every_suite_is_pinned():
    assert set(NAME_DIGESTS) == set(verify.suite_names())


@pytest.mark.parametrize("suite", sorted(NAME_DIGESTS))
def test_check_names_and_order_are_pinned(suite):
    checks = verify.SUITES[suite](**_FEW.get(suite, {}))
    assert (len(checks), _digest(checks)) == NAME_DIGESTS[suite]
    assert all(c["pass"] and "witness" not in c for c in checks)


def test_the_recorder_keeps_the_first_failure_of_each_check():
    rec = verify._Recorder(7)
    unreached, later = rec.declare("X", "never reached", "declared")
    rec.at(0, "X")
    assert rec.check("first", True)
    rec.at(1, "X", k=2)
    assert not rec.equal(later, Fraction(1, 2), 0)
    rec.at(2, "X", k=3)
    assert not rec.check(later, False)
    assert rec.checks == [
        {"name": "never reached [X]", "pass": True},
        {"name": "declared [X]", "pass": False, "witness": {
            "seed": 7, "instance": 1, "fixture": "X", "degrees": {"k": 2},
            "discrepancy": {"lhs": "1/2", "rhs": "0"}}},
        {"name": "first", "pass": True},
    ]
    report = verify._Recorder.report("s", rec.checks)
    assert report["pass"] is False and report["suite"] == "s"


def test_an_identity_stops_at_its_first_failing_condition():
    reached = []

    def identity():
        yield 1, 1
        yield Fraction(1, 2), Fraction(1, 3), {"cycle": 4}
        reached.append(True)

    failure = {"cycle": 4, "discrepancy": {"lhs": "1/2", "rhs": "1/3"}}
    assert verify.violation(identity()) == failure
    assert verify.violation([True, False]) == {}
    assert verify.violation([(0, 0), True]) is None
    rec = verify._Recorder(3)
    rec.at(1, "X", k=1)
    assert not rec.holds("law", identity())
    assert rec.checks == [{"name": "law", "pass": False, "witness": {
        "seed": 3, "instance": 1, "fixture": "X", "degrees": {"k": 1}, **failure}}]
    assert not reached


def _scaled(f, n):
    return lambda *args, **kwargs: f(*args, **kwargs).scale(n)


def _shifted(f, t):
    return lambda *args, **kwargs: (f(*args, **kwargs) + t) % 1


SEEDS = {"diagram33": 20260813, "product-axioms": 9157, "bb-oracle": 40961,
         "fiber-axioms": 7321, "boundary-fiber": 5077, "updown": 66191,
         "relative-exact": 31511, "holonomy": 8887}

# One broken formula per suite: (suite, name in verify, replacement, a check
# that must fail, the parts its witness compares; None for numbers).
BREAKS = [
    ("diagram33", "coboundary", _scaled(verify.coboundary, 2),
     "curv of iota [S1_3 deg 1]", ["cochain"]),
    ("product-axioms", "cup", _scaled(verify.cup, -1),
     "iota compatibility [S1_3]", ["curvature", "lift", "mu"]),
    ("bb-oracle", "bb_evaluate", _shifted(verify.bb_evaluate, Fraction(1, 3)),
     "bb formula on Z_1 basis [T2_9 k=1 k'=1]", None),
    ("fiber-axioms", "slant_fiber", _scaled(verify.slant_fiber, 2),
     "curvature compatibility [S1_3 x point]", ["cochain"]),
    ("boundary-fiber", "slant_fiber", _scaled(verify.slant_fiber, 2),
     "boundary integral is iota of the curvature integral [S1_3]", ["curvature", "lift", "mu"]),
    ("updown", "pullback", _scaled(verify.pullback, 2),
     "projection formula k=1 l=1", ["curvature", "lift", "mu"]),
    ("relative-exact", "project", _scaled(verify.project, 2),
     "sections project to the input [equator in S2_4p]", ["curvature", "lift", "mu"]),
    ("holonomy", "holonomy", _shifted(verify.holonomy, Fraction(1, 5)),
     "holonomy along the first circle factor", None),
]


@pytest.mark.parametrize("suite, name, broken, check, parts", BREAKS,
                         ids=[b[0] for b in BREAKS])
def test_a_broken_formula_fails_with_a_witness(capsys, monkeypatch, suite, name, broken,
                                                check, parts):
    monkeypatch.setattr(verify, name, broken)
    if suite == "product-axioms":
        monkeypatch.setitem(verify.SUITES, suite,
                            functools.partial(verify.run_product_axioms, instances=3))
    code = main(["verify", "--suite", suite])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["result"]["pass"] is False
    failed = [c for c in report["result"]["checks"] if not c["pass"]]
    assert check in [c["name"] for c in failed]
    for c in failed:
        assert {"seed", "instance", "fixture", "degrees"} <= set(c["witness"]), c
    witness = next(c["witness"] for c in failed if c["name"] == check)
    assert witness["seed"] == SEEDS[suite]
    if parts is None:
        assert set(witness["discrepancy"]) == {"lhs", "rhs"}
        assert witness["discrepancy"]["lhs"] != witness["discrepancy"]["rhs"]
    else:
        discrepancy = witness["discrepancy"]
        assert list(discrepancy) == sorted(parts)
        assert any(part["values"] for part in discrepancy.values())


def test_a_fault_in_a_suite_names_the_last_instance_named():
    @verify._suite(5)
    def body(rec, rng, stop):
        rec.at(2, "X", k=1)
        if stop == "declared":
            rec.declare("Y", "after")
        raise ValueError("boom")

    with pytest.raises(verify.SuiteFault, match="^ValueError: boom$") as caught:
        body(stop="at")
    assert caught.value.witness == {"seed": 5, "instance": 2, "fixture": "X",
                                    "degrees": {"k": 1}}
    with pytest.raises(verify.SuiteFault) as caught:
        body(stop="declared")
    assert caught.value.witness == {"seed": 5}


def test_a_dropped_pullback_term_is_an_internal_fault_with_its_instance(capsys, monkeypatch):
    pull = cochain.pullback

    def dropped(phi, a):
        b = pull(phi, a)
        return cochain.Cochain._of(b.complex, b.degree, dict(list(b.coeffs.items())[:-1]))

    for module in (characters, products):
        monkeypatch.setattr(module, "pullback_cochain", dropped)
    code = main(["verify", "--suite", "bb-oracle"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["internal"] is True
    assert report["error"] == "InvariantViolation: the product's curvature - d(lift) must be integral"
    assert report["witness"] == {"seed": SEEDS["bb-oracle"], "instance": 0, "fixture": "T2_9",
                                 "degrees": {"k": 1, "kp": 1}}
