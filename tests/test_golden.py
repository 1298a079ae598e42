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

import pytest

from holderbounds.cli import main
from holderbounds.evaluator import ValueOverflowError
from holderbounds.nondegen import CertifyConfig, certify_system
from holderbounds.polysys import parse_system
from holderbounds.verify import SamplePlan, probe_goodness, slope

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    ("degenerate_pair", 1): "5600183a7b40d18d446dc33b5a6fc94487954c293bc79413f4fa32c07dc43bfe",
    ("degenerate_pair_perturbed", 1): "2adc5614fe87c4df020f8de32e850caf506080ca4264e83238b88a58c98dd4ce",
    ("half_disk", 1): "f97dee635e05aeacaaa267f91f31a47ff7afe4a7124a2e41b344beb27ef717fb",
    ("partition_n2", 1): "7aedfe6028a8dcd9036fb18e8cbeccf2df72849c36ed212d8ebe56c174122f9b",
    ("quadratic_bowl", 1): "6fa984866ca3a74831dc7ecedaa52c2435ece9e1d816bee9f025c7a0b8374e42",
    ("sphere_cubic", 1): "7344f9dfbf1b29eafeb0055413d4fd82c65eeeee83ef73322a5e2ec8867952f0",
    ("rand_n3p2_s8", 1): "e80a24c150c7b47ba5551a4de31de2a27547113d326f07d6bff0dde16f986b81",
    ("degenerate_pair", 7): "8171d6bae5af747af1927ea4f40bf9448c70c9aa46119dbe8753e1de90d4b7f6",
    ("degenerate_pair_perturbed", 7): "45a6467d986e9254402ca46ce4dff261b8c7f9491519418132f7ace3a6dd99f6",
    ("half_disk", 7): "0d6f796b5533244c9d3707f1b52f12ab810b995fba93f32b4d6b84ec458d5aa7",
    ("partition_n2", 7): "cfc63a757ecc28b09764561af3da7ce1a7ed1b689c0fc088e2352784d678332d",
    ("quadratic_bowl", 7): "a0952df6f4650d7517bd4b95b71bb96f208f4292f4a226874b2e50c9c3f6fe7d",
    ("sphere_cubic", 7): "d92f446043aa7de63b47bf8f25a4fd8a1b2491133a25cab19680ccdd850f6f4b",
    ("rand_n3p2_s8", 7): "3b9c81bab96509c92411f5e3a14763ce4ff4c443bb992d9a57eec96918818bd0",
    ("degenerate_pair", 42): "d535398eab0ccde999e9557887ebf94ce7ac869f26fc2ec6886e7e4b150a1948",
    ("degenerate_pair_perturbed", 42): "661c6bc4456c3f9c9416d3dc08deffd6c27b4d4d51dbb5f6716cc4107f7e3d94",
    ("half_disk", 42): "454b0b1e5cc909327abc2e262dc326f7c162dab8fd39455c960ea2a4c4a811c2",
    ("partition_n2", 42): "5d9c0295be480f09806400bd71a3fe8543015da6a395f82d9e74bbfcc901e6f1",
    ("quadratic_bowl", 42): "e28ec9126f5de89a61bf25c4553f81f0028413e401705b4f242e9232c62eb5ad",
    ("sphere_cubic", 42): "4bd5d3af50871c0c7710a2591d0145d246be0cf5a1637055a7005d5b2b1f84b5",
    ("rand_n3p2_s8", 42): "ce7234d11762b7b985f501ce55afc99745297fd2f3bd72cc8358c141f1557cb1",
}

VERIFY_GOLDEN = {
    ("degenerate_pair", 1): "3d58d8cc736b26460469531e31b9239f66d91f0b41a2d80d2991942ecaa72174",
    ("degenerate_pair_perturbed", 1): "fb862dc5dcaa8fb690fe5bb0db5ba982f7eabae6387317791eaf271d3e8c3a71",
    ("half_disk", 1): "4d9d236019f2ac61e3c9583a99a651ee4026b6970399f6d14f8ba2a2eda89df4",
    ("partition_n2", 1): "c51e61746c60e13fb2aa422104a4c79f6fce9483d4fde9ce073429e6775783cd",
    ("quadratic_bowl", 1): "d42c03d220a70c60fbcbfb864969e6cab3c0f0549d22b376dfa74d6473336eff",
    ("sphere_cubic", 1): "a6d26eec08c475c105eea809580a393dfb52849f9172b8a9714b45bd2a449e18",
    ("quadratic_bowl+rings", 1): "3e59d0f00d6f91c8851fd83a3ee71ec5bb1023cb6bfe7bc604330c372deb2dc2",
    ("degenerate_pair", 7): "7d88b70fbd980554617fb2d2ec54bd2c08716ad5ba303eb4b71f8838492790ea",
    ("degenerate_pair_perturbed", 7): "f53dbc134a56168805742b099970f22a4e5460dc3bced874315743a6560c69b3",
    ("half_disk", 7): "f63f3eab9f3e38a374f7e609825b247a2f44b9b247a410ebb6b4e6d0189915d5",
    ("partition_n2", 7): "c2275be296dc9bafa19b63458d18ac586649ba0de2c408f359c6e458f5a6e2ac",
    ("quadratic_bowl", 7): "e6f4e995cb4b2a93b45d3b37b8687d2ddb020ccb401206e5a94c14af2dbed452",
    ("sphere_cubic", 7): "601b4150eae4ca43f5977115d6cbd8b0eaa7e288f7f49a509b3c9361f69220a8",
    ("quadratic_bowl+rings", 7): "2ae6313ab17b319bd6a031f43515a7bdf5f740b8aac47d2cb4c35d9c1eda227c",
    ("degenerate_pair", 42): "29e5213fb5bc47d172a99aa80ffc03904c4e44de643ee9ceb36d38edf39e9004",
    ("degenerate_pair_perturbed", 42): "9cdac797627c32fca61cc5545841e3be1ff2cca6997d4b8644bb633ff0a8a31c",
    ("half_disk", 42): "b4727625aadac4539a58f9457b894d3723c50aaea159bc8ee706902fb9b1fb07",
    ("partition_n2", 42): "523904125669541280bb3ba46ff9836bbed898960bc0123ac1a1907c6a6fd3c3",
    ("quadratic_bowl", 42): "5a5d52e984b528efa264e5f09a95c934aebcbfe0fd576c426620540561e4de9a",
    ("sphere_cubic", 42): "e7ff3389e5e4ffa67bba6cc7389ca4899d82e04fea5d78b2c7318333934a3088",
    ("quadratic_bowl+rings", 42): "59e302405c4c40dd1b0ea77f69bae32fa76c84f188f920ee09373f6066bb0507",
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
    # The power ladder overflows on this system's faces, and a gauge can
    # underflow to a division by zero; a library caller sees neither.
    system = parse_system("f1 = x^400*y^300 + x^600 + y^500 - 1\nf2 = x - y^3")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdict = certify_system(system, CertifyConfig(seed=1))
    out = json.dumps(verdict.to_json(), indent=2, sort_keys=True) + "\n"
    # The output of ``certify --format json --seed 1`` on the system.
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "9c3c9953e4e3c4d62fd1ef1525c354e32d9795380136fe4746180d7eedd4f049"
    )


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
