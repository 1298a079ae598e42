"""``certify`` and ``verify --format json`` against recorded SHA-256 hashes of their output.

The rank-test search and the distance oracle are meant to give the same
bits whatever shape their kernels take, so a change to a kernel that
moves any objective, witness, certificate, distance or fitted constant
fails here.  The hashes are of the command's standard output (the JSON
and its newline): ``certify`` on the six demo fixtures and
``bench/systems/rand_n3p2_s8.poly``, and ``verify --samples 300 --box
-3:3,...`` on the six demo fixtures and on quadratic_bowl with ``--rings
2,8,32``, each at seeds 1, 7 and 42.  A change that alters the output on
purpose records the new hashes.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from holderbounds.cli import main
from holderbounds.evaluator import ValueOverflowError
from holderbounds.newton import analyze_system
from holderbounds.nondegen import CertifyConfig, _certify_faces, build_m_delta, certify_system
from holderbounds.polysys import parse_system
from holderbounds.verify import SamplePlan, probe_goodness, slope

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    ("degenerate_pair", 1): "5600183a7b40d18d446dc33b5a6fc94487954c293bc79413f4fa32c07dc43bfe",
    ("degenerate_pair_perturbed", 1): "08e568425cf8b19686d4c2be930c71332c11fcd24dcd4ddcde4366e1723395e9",
    ("half_disk", 1): "31a9f3002d6d99517ac0ca0d2d4927717963bd1d15510fbdf8303ce86ff34580",
    ("partition_n2", 1): "7aedfe6028a8dcd9036fb18e8cbeccf2df72849c36ed212d8ebe56c174122f9b",
    ("quadratic_bowl", 1): "78dff4e1715b8d997129b94bc0026f7a94f871c5303fc4c532e74bd905bc0aca",
    ("sphere_cubic", 1): "0aa398c995a7d4d089ce0d226f07645ddf5e8b6feecb05639db5d0f544bbcca5",
    ("rand_n3p2_s8", 1): "8796263ea65a47bc9b66526fd6dd54188c1769cb449c48b38fc7beaffc7ad461",
    ("degenerate_pair", 7): "8171d6bae5af747af1927ea4f40bf9448c70c9aa46119dbe8753e1de90d4b7f6",
    ("degenerate_pair_perturbed", 7): "d36c61e2cb52d1c279bdd82f059ea6cd09580549b564c6302cd2fa34fc3a02b0",
    ("half_disk", 7): "99d70a8a3141503174dc2ee5c6af0d7ef2dad701bf6a8ff9ae7c7c97bd426bee",
    ("partition_n2", 7): "cfc63a757ecc28b09764561af3da7ce1a7ed1b689c0fc088e2352784d678332d",
    ("quadratic_bowl", 7): "b120e210a8a2816b615dce10f2a990a490ec32468afcd26c47f877d013cd2f0f",
    ("sphere_cubic", 7): "13feec5d1d85457d00fc72fd1d782537c55b9eb65a447196afc3d430690555d4",
    ("rand_n3p2_s8", 7): "1ca7d39a0d44d5af13fa2988a19893aceff57046ca023eda3eef1f8ef428c607",
    ("degenerate_pair", 42): "d535398eab0ccde999e9557887ebf94ce7ac869f26fc2ec6886e7e4b150a1948",
    ("degenerate_pair_perturbed", 42): "e9503e28b6353cec94fc1b79048463308fffb733f117bde3a18d1725e8dbca70",
    ("half_disk", 42): "2e4cbcece8620da5b93deb9a9e74d945d15f4a280826aa7db2ca04e39cab179a",
    ("partition_n2", 42): "5d9c0295be480f09806400bd71a3fe8543015da6a395f82d9e74bbfcc901e6f1",
    ("quadratic_bowl", 42): "ccc8be60aa59b334e23d7dd39f4f01b8466389436103dcc6daecfae7c3ee39c9",
    ("sphere_cubic", 42): "5576b03b3df80d12dfea79b0b4cf8e175c5385ff90dccf14d6ac6c51d5aa5135",
    ("rand_n3p2_s8", 42): "49d463b100a47b5c17103ac35fcc61b5cc8f6bea3f95e2a2eb9eea5f83e659ea",
}

VERIFY_GOLDEN = {
    ("degenerate_pair", 1): "3d58d8cc736b26460469531e31b9239f66d91f0b41a2d80d2991942ecaa72174",
    ("degenerate_pair_perturbed", 1): "c8e46708dac602d98ce6bcced6dee160085c764835f28592cf30639e0d6f3c83",
    ("half_disk", 1): "883ec24d76c78f0e43f2abd830fcc05c22e5714a48926fe74d906219a1000247",
    ("partition_n2", 1): "c51e61746c60e13fb2aa422104a4c79f6fce9483d4fde9ce073429e6775783cd",
    ("quadratic_bowl", 1): "ca99518a4b01da1e45ac27b7c0cb722356ea0ef8e3d9509dddb21e9d6f0b590e",
    ("sphere_cubic", 1): "bb6b820c1024ed847787235dbcfc52b95e470765813c1d7ed12252433c1bc494",
    ("quadratic_bowl+rings", 1): "d51e03873934d46cb06b5c034970abd712f2c50491eeb332dbd5754ba5f58d0b",
    ("degenerate_pair", 7): "7d88b70fbd980554617fb2d2ec54bd2c08716ad5ba303eb4b71f8838492790ea",
    ("degenerate_pair_perturbed", 7): "97d8b286bf085ffdf1b0247d5dd6cf9a4adc761485a70e6465973f6ac4ea9515",
    ("half_disk", 7): "f3700b18dcd9e6780d8c7d84e9d2d14bbbd2e61cd40be8ba1fe6375f31e9eee7",
    ("partition_n2", 7): "c2275be296dc9bafa19b63458d18ac586649ba0de2c408f359c6e458f5a6e2ac",
    ("quadratic_bowl", 7): "e94f630429247e5ff14e7bbf4b41402d6510de3fa9b984851da81f47a12023c6",
    ("sphere_cubic", 7): "3a1a2218c657950cbe60ea35e9eac193bdbfaed9fb61ae0cf036d679dead66c9",
    ("quadratic_bowl+rings", 7): "47fa45e1a7b50cd0db70c7c803e4fa69f6fc40479075443f53175ac091f557e6",
    ("degenerate_pair", 42): "29e5213fb5bc47d172a99aa80ffc03904c4e44de643ee9ceb36d38edf39e9004",
    ("degenerate_pair_perturbed", 42): "facca42f4a9ec78da03d50e2fbdf08a0eeaeac788e0c3535917b745d9bfd9284",
    ("half_disk", 42): "41a12a1608dd6caaba38dee93a00cbf4c128f0acc2fbff56251bd4683a21f69f",
    ("partition_n2", 42): "523904125669541280bb3ba46ff9836bbed898960bc0123ac1a1907c6a6fd3c3",
    ("quadratic_bowl", 42): "3b520ff5d92a4ca7b030cb5bbda9a910d6d720a646229a4b641acb84c58e366f",
    ("sphere_cubic", 42): "c36d2ec996fe3c601e8ec607d812b0cfbb64ede8276fb575b2866fe18621c7e2",
    ("quadratic_bowl+rings", 42): "7e8d23a3f33f3928e0aefd2889aa74efbb4d0b084d9ad31072d32d03e9432e28",
}


def _path(name: str) -> Path:
    demo = ROOT / "demos" / "systems" / f"{name}.poly"
    return demo if demo.exists() else ROOT / "bench" / "systems" / f"{name}.poly"


@pytest.mark.parametrize("name, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_certify_json_matches_recorded_hash(name, seed, capsys):
    main(["certify", str(_path(name)), "--seed", str(seed), "--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[name, seed]


@pytest.mark.parametrize("name, seed", sorted(VERIFY_GOLDEN), ids=lambda v: str(v))
def test_verify_json_matches_recorded_hash(name, seed, capsys):
    system, _, rings = name.partition("+")
    path = _path(system)
    n = parse_system(path.read_text()).n
    argv = ["verify", str(path), "--seed", str(seed), "--format", "json", "--samples", "300"]
    argv += ["--box", ",".join(["-3:3"] * n)] + (["--rings", "2,8,32"] if rings else [])
    main(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_GOLDEN[name, seed]


def test_library_certify_raises_no_runtime_warning():
    # The float rank test overflows on this system's faces, and a gauge can
    # underflow to a division by zero; every face is decided in closed form,
    # in exact arithmetic, and a library caller sees no warning.
    system = parse_system("f1 = x^400*y^300 + x^600 + y^500 - 1\nf2 = x - y^3")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdict = certify_system(system, CertifyConfig(seed=1))
    out = json.dumps(verdict.to_json(), indent=2, sort_keys=True) + "\n"
    # The output of ``certify --format json --seed 1`` on the system.
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "9ffffd8e7db7c5e668f449f29ad8fa508664948baa538fa04e4bd58fb157ed17"
    )


# A searched face on which every objective overflows, and searched faces on
# which a gauge underflows to a division by zero.
SEARCH_OVERFLOWS = {
    "f1 = x^2 + y^2 + z^2 + 1e160*x*y*z - 1": ["inconclusive"] * 3,
    "f1 = x^400*y^300 + x^600 + y^500 + z^2 - 1\nf2 = x - y^3 + z": ["nondegenerate_probable"] * 5,
}


@pytest.mark.parametrize("text", sorted(SEARCH_OVERFLOWS))
def test_library_certify_search_raises_no_runtime_warning(text):
    system = parse_system(text)
    faces = analyze_system(system).faces
    searched = [build_m_delta(system, face) for face in faces if face.dim >= 2]
    # The search meets a floating-point exception on these faces...
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        _certify_faces(searched, range(len(searched)), CertifyConfig(seed=1))
    # ...which a library caller does not see.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdict = certify_system(system, CertifyConfig(seed=1))
    assert [f.status for f in verdict.faces if f.method == "search"] == SEARCH_OVERFLOWS[text]


def test_library_verify_raises_no_runtime_warning():
    # x^3 - y^3 overflows to inf - inf on the ring of radius 1e103 and at
    # (1e200, 1e200); a library caller sees the overflow as a null floor
    # and as a ValueOverflowError, and no numpy warning.
    system = parse_system("f1 = x^3 - y^3 + x")
    plan = SamplePlan(box=((-3.0, 3.0), (-3.0, 3.0)), count=50, rings=(1e103,), seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = probe_goodness(system, plan)
        with pytest.raises(ValueOverflowError):
            slope(system, (1e200, 1e200))
    assert report.to_json() == {
        "rings": [{"R": 1e103, "slope_floor": None, "positive_samples": 0, "overflowed": 20}],
        "trend": "n/a",
        "seed": 1,
    }
