"""Golden digests of reports: the bytes every request prints, pinned.

Each row of `REPORTS` is one command line run through `cli.main` in-process,
in a directory holding input files written here from fixed seeds: the
request shapes the `cli` benchmark sends, `homology` in every degree
0..dim+1 of every bundled complex, and the value-bearing commands on seeded
character files over products.  The row pins the exit code and the
sha256 of stdout.  `DRAWS` pins the `io` JSON of seeded `random_character`
draws in every degree 0..dim+1 and `random_flat_character` draws in every
degree 1..dim+1 of every bundled complex.  A change that moves a row on
purpose, such as another representative, names the row and says why.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from diffchar import fixtures, io
from diffchar.characters import (
    flat_character,
    fractional_torsion_class,
    random_character,
    random_flat_character,
)
from diffchar.cli import main
from diffchar.cochain import Cochain
from diffchar.simplicial import SimplicialMap, staircase_product

from strategies import relabeled_product

SEED = 20261020


def _write_inputs(directory):
    """Write the input files under `directory`; the requests, name -> argv,
    read them by relative path, so that no report holds the directory."""
    rng = random.Random(SEED)

    def write(name, obj):
        (directory / name).write_text(json.dumps(obj, sort_keys=True))
        return name

    S1, T2, RP2 = fixtures.circle(), fixtures.torus(), fixtures.projective_plane()
    req = {}
    for name in fixtures.complex_names():
        for n in range(fixtures.complex_by_name(name).dim + 2):
            req[f"homology-{name}-{n}"] = ["homology", "--complex", name, "--degree", str(n)]
    for a, b, n in (("S1_3", "RP2_6", 1), ("S1_3", "RP2_6", 2), ("S2_4", "S1_3", 2),
                    ("S1_6", "S1_3", 1)):
        P = relabeled_product(a, b, rng)
        path = write(f"{a}x{b}-{n}.json", io.complex_to_json(P))
        req[f"homology-{a}x{b}-{n}"] = ["homology", "--complex", path, "--degree", str(n)]
    for character, chain in (("i", "v1_minus_v0"), ("ixi", "gamma1"), ("ixi", "gamma2")):
        req[f"eval-{character}-{chain}"] = ["eval", "--character", character, "--chain", chain]
    chain = S1.chain(0, {(v,): rng.randint(-4, 4) for v in range(3)})
    req["eval-chain-file"] = ["eval", "--character", "i", "--complex", "S1_3",
                              "--chain", write("chain.json", io.chain_to_json(chain))]
    eta = Cochain(S1, 0, {(v,): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          for v in range(3)}, "Q")
    req["iota-S1_3"] = ["iota", "--complex", "S1_3",
                        "--cochain", write("eta.json", io.cochain_to_json(eta))]
    u = fractional_torsion_class(RP2, 1, 0, 1).cochain + Cochain.from_vector(
        RP2, 1, [rng.randint(-2, 2) for _ in RP2.simplices(1)], "Q")
    req["j-RP2_6"] = ["j", "--complex", "RP2_6",
                      "--cochain", write("flat.json", io.cochain_to_json(u))]
    req["product-ju"] = ["product", "--complex", "RP2_6", "--character", "ju",
                         "--character", "ju"]
    req["xproduct-i"] = ["xproduct", "--character", "i", "--character", "i"]
    req["fiber-integrate"] = ["fiber-integrate", "--character", "ixi", "--complex", "S1_3",
                              "--fiber", "S1_3"]
    h = random_character(staircase_product(S1, fixtures.interval()), 2, rng)
    req["boundary-fiber-integrate"] = [
        "boundary-fiber-integrate", "--character", write("cylinder.json", io.character_to_json(h)),
        "--complex", "S1_3", "--fiber", "interval"]
    req["find-section-ju"] = ["find-section", "--character", "ju", "--map", "torsion_loop"]
    h = random_character(fixtures.suspension_sphere(), 2, rng)
    req["find-section-equator"] = [
        "find-section", "--character", write("sphere.json", io.character_to_json(h)),
        "--complex", "S2_4p", "--map", "equator"]
    req["find-section-obstructed"] = [
        "find-section", "--character", "ju", "--map",
        write("identity.json", {"vertex_map": list(range(6))}),
        "--map-source", "RP2_6", "--complex", "RP2_6"]
    req["holonomy-ju"] = ["holonomy", "--character", "ju", "--map", "torsion_loop",
                          "--chain", "circle_fund"]
    u0 = rng.randrange(3)
    loop = SimplicialMap(S1, T2, [T2.encode(u0, v) for v in range(3)])
    req["holonomy-map-file"] = [
        "holonomy", "--character", "ixi", "--map", write("loop.json", io.map_to_json(loop)),
        "--map-source", "S1_3", "--complex", "T2_9", "--chain", "circle_fund"]
    for suite in ("holonomy", "relative-exact"):
        req[f"verify-{suite}"] = ["verify", "--suite", suite]
    (directory / "broken.json").write_text('{"degree": 0,\n  "values": }')
    half = {io.simplex_key(rng.choice(RP2.simplices(1))): "1/2"}
    req["bad-fixture"] = ["homology", "--complex", "S3_9000", "--degree", "1"]
    req["bad-json"] = ["iota", "--complex", "S1_3", "--cochain", "broken.json"]
    req["bad-flat"] = ["j", "--complex", "RP2_6",
                       "--cochain", write("nonflat.json", {"degree": 1, "values": half})]
    _write_seeded_characters(write, req)
    return req


def _write_seeded_characters(write, req):
    """The value-bearing commands on seeded character files: draws on
    RP2_6 x S1_3 in degrees 2 and 3, on S1_3 x RP2_6 and on RP2_6 x interval,
    with a diagonal loop S1_3 -> RP2_6 x S1_3 and a slice RP2_6 -> RP2_6 x S1_3
    as map files.  They draw from a generator of their own, so the rows
    above keep their inputs."""
    rng = random.Random(f"{SEED}:characters")
    S1, RP2 = fixtures.circle(), fixtures.projective_plane()
    P = staircase_product(RP2, S1)
    p = write("seeded-RP2_6xS1_3.json", io.complex_to_json(P))
    q = write("seeded-S1_3xRP2_6.json", io.complex_to_json(staircase_product(S1, RP2)))
    draws = [random_character(P, k, rng) for k in (2, 3)]
    h2, h3 = (write(f"seeded-RP2_6xS1_3-{h.degree}.json", io.character_to_json(h)) for h in draws)
    # Plus the flat character of the order-2 class of H_1, whose class the
    # slice pulls back to the generator of H^2(RP2_6): no section.
    torsion = flat_character(fractional_torsion_class(P, 1, 0, 1).cochain)
    obstructed = write("seeded-RP2_6xS1_3-2t.json", io.character_to_json(draws[0] + torsion))
    f = write("seeded-S1_3xRP2_6-2.json", io.character_to_json(
        random_character(staircase_product(S1, RP2), 2, rng)))
    g = write("seeded-RP2_6xinterval-2.json", io.character_to_json(
        random_character(staircase_product(RP2, fixtures.interval()), 2, rng)))
    loop = SimplicialMap(S1, P, [P.encode(v, v) for v in range(3)])
    loop_file = write("seeded-loop.json", io.map_to_json(loop))
    v0 = rng.randrange(3)
    slice_file = write("seeded-slice.json", io.map_to_json(
        SimplicialMap(RP2, P, [P.encode(u, v0) for u in range(6)])))
    cycle = write("seeded-loop-cycle.json",
                  io.chain_to_json(loop.push_chain(fixtures.circle_cycle())))
    req["eval-RP2_6xS1_3-2"] = ["eval", "--character", h2, "--complex", p, "--chain", cycle]
    surface = P.chain_from_vector(2, P.homology(2).generators[0])
    req["eval-RP2_6xS1_3-3"] = ["eval", "--character", h3, "--complex", p,
                                "--chain", write("seeded-surface.json", io.chain_to_json(surface))]
    req["product-RP2_6xS1_3"] = ["product", "--complex", p, "--character", h2,
                                 "--character", h3]
    req["xproduct-S1_3xRP2_6"] = ["xproduct", "--complex", q, "--character", f,
                                  "--complex", "S1_3", "--character", "i"]
    for k, h in ((2, h2), (3, h3)):
        req[f"fiber-integrate-RP2_6xS1_3-{k}"] = [
            "fiber-integrate", "--character", h, "--complex", "RP2_6", "--fiber", "S1_3"]
    req["boundary-fiber-integrate-RP2_6xinterval"] = [
        "boundary-fiber-integrate", "--character", g, "--complex", "RP2_6",
        "--fiber", "interval"]
    for key, h in (("2", h2), ("3", h3), ("obstructed", obstructed)):
        req[f"find-section-slice-{key}"] = ["find-section", "--character", h,
                                            "--map", slice_file, "--map-source", "RP2_6",
                                            "--complex", p]
    req["holonomy-loop"] = ["holonomy", "--character", h2, "--map", loop_file,
                            "--map-source", "S1_3", "--complex", p, "--chain", "circle_fund"]


# request -> (exit code, sha256 of stdout)
REPORTS = {
    "bad-fixture": (2, "d8508a2c59485a37ed293b1db684d73ea7f0e8d0f485dccb53b61142087177ac"),
    "bad-flat": (2, "4259ac5d737514a6bd60e5f2757caf2446039b269822465f38865eb471ae9c95"),
    "bad-json": (2, "67042a79ba148818d63214b742b74b3a1cd73d1693bc9fb576683ac2c08977bd"),
    "boundary-fiber-integrate": (0, "2edc650d6a2c1f96325136cf30ef09581f6ea0b509727d9583c86d36a54c7179"),
    "boundary-fiber-integrate-RP2_6xinterval": (0, "e214e7e78496d2925abf10e6dd6378fa56a91723ed30977cbf1a56d0007d1047"),
    "eval-RP2_6xS1_3-2": (0, "72069c0c79cf2a56b32fecb3e9daceded6421ea5306ddbd7b35f549e7f61b9d9"),
    "eval-RP2_6xS1_3-3": (0, "748159e454ac1624f332beb2832ca51a184bf3d62c42f53daef113937e5b3415"),
    "eval-chain-file": (0, "10ded42886f203b6594499d84b8d89c7a8bdabf8bfd50c366d406bfcf2a915d2"),
    "eval-i-v1_minus_v0": (0, "79353279b6eb092465f42dd5c8dade4a3feb0e370e790e2e7f7b7b67df0d1c69"),
    "eval-ixi-gamma1": (0, "00f9d8e3df767e28d03035c7833dfcccdced682019747a4d947497ec89a77446"),
    "eval-ixi-gamma2": (0, "a020beb184e7d9e9fb7c3d667a17b40cef5decb06930b61b7192cb779e3a6876"),
    "fiber-integrate": (0, "d03e26ade08820335b9709739be614b68a6dced88222e64f3899edae814fd342"),
    "fiber-integrate-RP2_6xS1_3-2": (0, "21e1debd4d55e9aec370b41e5d90a6e202f4d35c9929e6ecefe0d971158293f2"),
    "fiber-integrate-RP2_6xS1_3-3": (0, "1e80f4d0c2cd00f721124a959fbedbc5c38529822e67df9486b0b5f6f78ee89f"),
    "find-section-equator": (0, "c010d183d398f7cb80e0dccae032468566c761639f401edca67e75f3c4b15ec6"),
    "find-section-ju": (0, "7c6ce141da103223ef3ffdedf58fc0283adc05b27a62b69c5458b6a9a3b55c3a"),
    "find-section-obstructed": (1, "d0af2e39c1b0a5e15cbf08693771492dd97a6c2d5c880eace7e005892f2bc323"),
    "find-section-slice-2": (0, "8118606181688d18a2f253831cbf167d4a8f6cac607569627d690e419086b1fc"),
    "find-section-slice-3": (0, "a810a4dfa5db3e98dfb563531764f25b4e01664bce989b0ebe0718b8a87623cb"),
    "find-section-slice-obstructed": (1, "d57e6d868cae79688731aa049fd12f38e02e7fa7989af4707d16e32fab9a78d9"),
    "holonomy-ju": (0, "916787d719acfa4e1e23da3509152df5ea919d9e023b2fa382da7a2b7d6b26af"),
    "holonomy-loop": (0, "43335d5e2570b75b707ff22253dd637f97f1630bbcfbf92e319a8055d86ba4f8"),
    "holonomy-map-file": (0, "476be2a1f3ceac98baba6bbfb3d3653b6552ad109c11dbba204b2ea0a1c2bc87"),
    "homology-Klein_K-0": (0, "9ed25fe75cc6ba4aaedfe7de62d8c52b9e891352c04fc414dea60fd5d058d1f3"),
    "homology-Klein_K-1": (0, "5d744508f3d0231af5987ec9a6289770d36da97415244670b6db1046310c2af3"),
    "homology-Klein_K-2": (0, "6ae49339b9fd97e7f934abee1c079f1c63e6559927b2f0e326aa3fe02bc3a947"),
    "homology-Klein_K-3": (0, "cdda07f50d93c7cf8c8b3434b7858d693bb805b39a838fed27a19705e9644cc4"),
    "homology-RP2_6-0": (0, "07f5b5f340d3dadfa929159e6391d6eeb8879b0b5dd316f0941c0bce0de6f47e"),
    "homology-RP2_6-1": (0, "e6dc47c431fbc872482e2fd1a133e3eb08c1f3f0686d266bfa40a565e9bc8a12"),
    "homology-RP2_6-2": (0, "cc56cede003ef598920d5c1a0af531f5080e37a1377ba4ed72b00dc336ed72b7"),
    "homology-RP2_6-3": (0, "fb463bc9fad599615c77f3a2c568374443037b6f25015bd1f14a3f28adc52d28"),
    "homology-S1_3-0": (0, "70948c2f29913cc97b71a031dc5440e3a858b4dc34c07114958d9539ef2584ed"),
    "homology-S1_3-1": (0, "9d055d105420525c0a1a35a1b137c716bb8e091e8ff34d1fa4b9a4e72d82b2f2"),
    "homology-S1_3-2": (0, "889542f79db939613a211c84efe7891495037a2bc5265d3902873b1c897390e8"),
    "homology-S1_3xRP2_6-1": (0, "5f2c04eea59fccb8522608abb8733bf6de825a8d429d696d1d5fd7df29ef83df"),
    "homology-S1_3xRP2_6-2": (0, "6351af27bb06813ad4de9eb2f4b011c689e5180b6af3a7487fe8b5f0d6d056d1"),
    "homology-S1_6-0": (0, "9c1c791419f1518a115c472f075a44d903e272c511bdf3ce64469afc818fe337"),
    "homology-S1_6-1": (0, "341880cd39ad88091eb3f76a491d0aabab7d7e66977bac08911bb5a3e1af85ee"),
    "homology-S1_6-2": (0, "e7ae7d344ebc212f0551d2525f2a33580840a49fdc50ec96a1beae6c4bd7a644"),
    "homology-S1_6xS1_3-1": (0, "0cdbcb6f8fc598abe903552eccf471b92fa116a065fefe20973a1f8a28970a8c"),
    "homology-S2_4'-0": (0, "b0cca1e1381fb9daf76b9f47792f947d0b040db522cfca5cb10077d2b099df23"),
    "homology-S2_4'-1": (0, "6c86566371138f2fcad9a74b685793d95bb9adafa3443761ff3218a699a4cf6e"),
    "homology-S2_4'-2": (0, "0156220ff106af76ddab2b1f9ead6b2c69fe07ab682277985dcc7e0a1cc189b1"),
    "homology-S2_4'-3": (0, "1a3635bfe7a22f7af4c9619f58438f044685e74799d19a37958f53e9fe89c277"),
    "homology-S2_4-0": (0, "e816e6887c11acb48be8cf5098d038e16ca3b5f6d7a6a13cf2d12c86bc577e57"),
    "homology-S2_4-1": (0, "64cc7b8ae61d6cc1a729dc23bf778171dcf38f49b32051a7311512feadffd6ff"),
    "homology-S2_4-2": (0, "d6b1134c1d92131d21f7a3973a60c8373fa6bdc1854deab67c6aeb47eaff1eb5"),
    "homology-S2_4-3": (0, "ec84ca62e2d77b6a3f585650f647f2f22e3f248d2ce82b814b86d1f3528367e3"),
    "homology-S2_4p-0": (0, "5c0a3db2406b12857250cdd72c95f6bdad7f58a7b54f4432c83c769189b3bea5"),
    "homology-S2_4p-1": (0, "edaf8ea72ae4750c789dcc346fd88f45529a201bcea5f005a1b7a9ef4a04ff81"),
    "homology-S2_4p-2": (0, "a47ca44e1095db044d595a39fa6f8085f8cdb8a0d56ddc7f41788c28233ca64d"),
    "homology-S2_4p-3": (0, "9d5f82bf819a159f362f494b4ce3769d3f3dd35f4b8edd9cbb9f43b74a66637a"),
    "homology-S2_4xS1_3-2": (0, "23a9ce72f50b6e4cf3a8cad1bdaab49aab60b7c26c867500c5b81f2443b1bcd5"),
    "homology-T2_9-0": (0, "f9ff068ec03e584a2841529b8ce5e04e827e1943b8d9711d2cec959452ea35ac"),
    "homology-T2_9-1": (0, "2dd148af7b5013243fc68e660dc2213d610c3c8cc8ad5fb0dc51b159294ce174"),
    "homology-T2_9-2": (0, "c985218094ea99eb6605d996e31649d125bd2526996f3d232acbd7b8f0f07cc2"),
    "homology-T2_9-3": (0, "601d87475fe51e23e37842c470d920f344ce5e334d84810a143609180c66eeac"),
    "homology-interval-0": (0, "497e1c074483e090c00b7f4ca3e819ce58a5846599f14c5afc7e8ce1cb9a6d71"),
    "homology-interval-1": (0, "7716cb3984dd311cfa72d0a66ce844e5c64cef3aee7c4896d593854bfa062914"),
    "homology-interval-2": (0, "5428e234858b90fa0df6ab199a225edaa9c6e841d323115e36f24437cd3c284e"),
    "homology-point-0": (0, "77b9345572fb9931edc03bf7283786e9a9cbafe84b6b580796c3e4433baf8ce2"),
    "homology-point-1": (0, "7e30482d97ce8c49b3e53d186631a50f2e39ed1f3bec82010cd72157da48154c"),
    "homology-two_points-0": (0, "bee10141a99919c19fc2aa8a2748232da137115b466c75ee8556d0b61faee6d4"),
    "homology-two_points-1": (0, "04c7c3811c8dcec99e4ff03c7737a33ed02a347e2012b451819a0781e343f483"),
    "iota-S1_3": (0, "1175640cb3cd1f58702b118f734fe4102c0e039751728c069cbb2feb5fea0ea0"),
    "j-RP2_6": (0, "68756bf0944b735dd051aa6db1ecc535b393a6131e9c9487038c6fc6c43100c8"),
    "product-RP2_6xS1_3": (0, "868b8baaf2fb45b31c04c3848d33bb060c34f01721d047f0e32852cfde8284e1"),
    "product-ju": (0, "98b4b5d4fbe4d598501fea529c671341a18d71326e3f60edbae4608edb0224fa"),
    "verify-holonomy": (0, "9a88e54833f0d7ed66f6006c55851c6428f66b4700e17b3874afc64b24a9ebb4"),
    "verify-relative-exact": (0, "d6e21521c9cab8db944411e9964ecfba01270d7bf55e5a95c1d08113720fbe2d"),
    "xproduct-S1_3xRP2_6": (0, "09c34861cf0d554a01cb7bd791ceaa6e22b7a532670c017bafea277eb1d035b6"),
    "xproduct-i": (0, "e5c14e2aebfb5576850dab6392d519adbec28dd741bfe7bf3464fae3ca5083f4"),
}

# (draw, complex, degree) -> sha256 of the character's io JSON
DRAWS = {
    ("flat", "Klein_K", 1): "4f5440cada141d5dbc74ef17f3f52ea2dacbf94ef37939648f785625dc493e74",
    ("flat", "Klein_K", 2): "d66ee85ef1c7168b1939fce706f26e459d8f7d22497c78e0099cdc665d31d9d4",
    ("flat", "Klein_K", 3): "afd57f9db4caef365b85adc42f40b321b4d89513825048e83f4699c6a3f85fca",
    ("flat", "RP2_6", 1): "c445204228215a035b15ddc38ed1f4e12b4f30ed69ecd5401bc547bcbe0aec92",
    ("flat", "RP2_6", 2): "5d95740ca27b340d6c4c3f6fd9384bad407b56b473355d2b41de24cdd264219d",
    ("flat", "RP2_6", 3): "fcb0b31f09b39592e7735f6732df6576063d58b97f1f4114157a917a0f597b67",
    ("flat", "S1_3", 1): "41d7d00cf4cdb1b4ecf0222ce21f3d6002ca4b19d10c351b6eaa03815b62f871",
    ("flat", "S1_3", 2): "12cc1419b418698f1b0748b290564d0cf4720a14f47a1e509427f729ad1a129a",
    ("flat", "S1_6", 1): "4efcf53af4e22a9e8744c5be10163288810b21766335ef9a77314b1ac3a82b2b",
    ("flat", "S1_6", 2): "cb4fd8ee77656215f27705ee108c457fc200cb089dfe9de6d7e9f2a04b8e1408",
    ("flat", "S2_4", 1): "300a5525dc9276e46c0ac4771316b539d4774d43b9a2455a08758301c5b0e044",
    ("flat", "S2_4", 2): "ddc0f29dea4c7e2b6f5b90430cea89f66bd2d722b24caf804bd9a81fde748189",
    ("flat", "S2_4", 3): "b7b3996810ba85870cd284ede6a1ad093b04dbff6a3a2d2230f8ed5081751a66",
    ("flat", "S2_4'", 1): "46bf91938b2c868eab65df5d592501c152eb416753f9bc947ac6e190a3814781",
    ("flat", "S2_4'", 2): "86224d623823172c343eb13d0a3863c11b623b063345cb66cf3fb7a532323345",
    ("flat", "S2_4'", 3): "654d87dd22bda481b79d897e92618e95856b834b4345568468fbd3f3950e3cdb",
    ("flat", "S2_4p", 1): "191580089b3ab685139fb69cc194e3d4f491080d0cf2c8c2b83e79e92cd633fa",
    ("flat", "S2_4p", 2): "b937f94d0e795ebfa4f5d5c90e3ab2f83478d9b3fea3e01b35ef1e5cf20522ae",
    ("flat", "S2_4p", 3): "1f30d818a35714ea7e829b7e85a420b129778310f18fbef19c0563a463547ff3",
    ("flat", "T2_9", 1): "49b5b2effe00fb47c13e2bb9b9b628df3080a9f4f4e2dd2e4a7c8549ddd05200",
    ("flat", "T2_9", 2): "d3823f7c59fa1eb73925e9e41a8a288a6f830a2c21ab0b300e7ce26b892291ae",
    ("flat", "T2_9", 3): "1050dbccb74340f889afedf94cd6074a0348621a5a703cd002e40c75f7ea1506",
    ("flat", "interval", 1): "ca03a082fa0f44745a89075d76a177703b7a4ff6824691636ad8a2d488504523",
    ("flat", "interval", 2): "925a2ae5cad9ed1a6e2349890614314af002c9846d3fb3e13495bd3b1af4cd8f",
    ("flat", "point", 1): "b82341dabafe6605d4400e84270682dbeaa7ad3c53038c624b3929bb1ecf9c11",
    ("flat", "two_points", 1): "c76ece18d8b90591442a7d461bd071b24b0bffda69c4fd07c8ba56f9182ddb87",
    ("random", "Klein_K", 0): "e042efce54ab7bcd0447aa7fc713c9da7a451922d6645ba6c5a312434aeca50d",
    ("random", "Klein_K", 1): "fe092d84c2577928f2e3bae1adf7837c09ae0370fa83ec50f4378146accee1f7",
    ("random", "Klein_K", 2): "a7189bd6cc4fefe8a119aeceb606009703e79e7df2a868c6e813b0dc1f4755cd",
    ("random", "Klein_K", 3): "16a0d4b72e871e025c1a7af39a2c6cd6b4dbeed1476a773c28b94046ca555c6b",
    ("random", "RP2_6", 0): "6707bf657363e0c8e017e9df831fbb6fa0f41d2ff7f778dc3e26650da76db413",
    ("random", "RP2_6", 1): "e55d64680942fae449cfe837d3f0b83d376b1766bd85f9e2b80906b3440d610d",
    ("random", "RP2_6", 2): "20cd275e1f8d0aa1290c97d198dc657570efa5cbcad38df7718cfabae297cfa6",
    ("random", "RP2_6", 3): "2a8862334ca7c8ddf5cdd96b272417cbe4810d8cd689bc7880cf9c8853652858",
    ("random", "S1_3", 0): "58d3b41dc6de4147f92891d20e9bf650d403af59a67fbd80316f529bad9e74e6",
    ("random", "S1_3", 1): "16fe9afc20058374c5cb3759c37a786dc04557f68c4f209f656cb4e02a2ac819",
    ("random", "S1_3", 2): "7b9abf183cf1177a3e950b87be171b70321ce0c567e577af5cc2f4a2e4b2d23f",
    ("random", "S1_6", 0): "2adf7a99d8a42952cd383c12ff92f8b0e1bf4d2453c319523042421aa270af55",
    ("random", "S1_6", 1): "c3b56acf0b122c5d8580d220ce700793773314fe3466e01aa5bbda58c8decda5",
    ("random", "S1_6", 2): "49958d124cbd7ef239c97c70270ed67708a4271dac2adf0a3e2c02db66956084",
    ("random", "S2_4", 0): "713c623d26a3a982863b5aaf6026961f2969cf9eb6169359f1b913bfa688e21b",
    ("random", "S2_4", 1): "18df627d37e2f7c09f5857d492f0e30b766e32cb6578458def37d33688af0c1a",
    ("random", "S2_4", 2): "217812e23b16d37b44fcdf317eac33790a2759a7df4fb0fd280c8d6d88a1c412",
    ("random", "S2_4", 3): "75a35573bd4a8f553180e749c838c868e0a6b31802fd3293fbb323bf8bdb4a80",
    ("random", "S2_4'", 0): "cf6ea199dd534e9db7bb815cb95a5fd38401b30fecc4e2cf10920eee20276638",
    ("random", "S2_4'", 1): "3f0185d14a9566f89de6aae3cae238797838176bcffeb9807f1c449c4ff9d5d1",
    ("random", "S2_4'", 2): "3b1aea7f66bb28bdab7e27803493b82458d2d6830b18ba67d26920ec4bdfcc5f",
    ("random", "S2_4'", 3): "ae7d485cd0868785f2893689a2ec6de374c181b293457d0464055f8920079f79",
    ("random", "S2_4p", 0): "49f3eda963d75cf00b66198170d242dc82a4077e545d112bb2cc5f656618f466",
    ("random", "S2_4p", 1): "df928b2dbb43b64f0df03d32dbd5194248c4ff8b04327baad4f674f5fc1cc5a4",
    ("random", "S2_4p", 2): "255694b784229485691d04830efdd3abb63de31dd1cc740d498e13ba968aa8f8",
    ("random", "S2_4p", 3): "8d59681956a6a4736a01dd5d1dc39b4c9cfaa51b170811e476fa3b8a34072ed0",
    ("random", "T2_9", 0): "585d4bdd2598811817e7a93f3614c68c04081d5fe3bae9d1fc5ec8db6a00a849",
    ("random", "T2_9", 1): "080af82b390b2fe52c204f8d87135202007f3841d486d7e0308695fca4ea402b",
    ("random", "T2_9", 2): "9247d0506a3c5ae8f89f082f267804cc6557e6bb2dbf95a0dff1b1b5fd42d0f8",
    ("random", "T2_9", 3): "d93f98e3f2e5f1063c8c31010bffb24f08b7ea9e81cff7fc2616d9806a038402",
    ("random", "interval", 0): "cd9afc58eab7e749bd51d4c8b9d24876fe7486022045c4daab38937a41e23703",
    ("random", "interval", 1): "a0dbdb8457817a8d0b60fd935768cac1142f3ffe6e5aa1f786b5e91d0faf66e3",
    ("random", "interval", 2): "2f99be4967b49facd92df6ff1eb2824e7429408eb68a0ebbdcbf50a1f80cf54b",
    ("random", "point", 0): "c827890959b58fbf967a59866b0dd0f229b204284411f0cf737d0d9475554718",
    ("random", "point", 1): "f75fce58b1d99f8879a3d3010006a44f96c1d6e51e8fc5196681a045686901ee",
    ("random", "two_points", 0): "4859ee145b960c82ad4f5a69986ab2540f19b1112d1bb3e2502860e9a00804d3",
    ("random", "two_points", 1): "a5db4a951aaad6093f60f9d6f378fd76fe404770590fc4532c5551a449526961",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reports")
    return directory, _write_inputs(directory)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_request_has_a_row(inputs):
    assert sorted(inputs[1]) == sorted(REPORTS)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_keep_their_bytes(name, inputs, capsys, monkeypatch):
    directory, argv = inputs
    monkeypatch.chdir(directory)
    code = main(argv[name])
    assert (code, _digest(capsys.readouterr().out)) == REPORTS[name]


_DRAW = {"random": random_character, "flat": random_flat_character}


@pytest.mark.parametrize("key", sorted(DRAWS))
def test_seeded_draws_keep_their_values(key):
    draw, name, k = key
    h = _DRAW[draw](fixtures.complex_by_name(name), k, random.Random(f"{draw}:{name}:{k}"))
    assert _digest(io.dumps(io.character_to_json(h))) == DRAWS[key]


def test_every_draw_has_a_row():
    keys = {("random", name, k) for name in fixtures.complex_names()
            for k in range(fixtures.complex_by_name(name).dim + 2)}
    keys |= {("flat", name, k) for _, name, k in keys if k >= 1}
    assert sorted(keys) == sorted(DRAWS)
