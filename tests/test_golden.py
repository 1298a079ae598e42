"""``certify --format json`` against recorded SHA-256 hashes of its output.

The rank-test search is meant to give the same bits whatever shape its
kernel takes, so a change to the kernel that moves any objective,
witness or certificate fails here.  The hashes are of the command's
standard output (the JSON and its newline) for the six demo fixtures and
``bench/systems/rand_n3p2_s8.poly`` at seeds 1, 7 and 42.  A change that
alters the output on purpose records the new hashes.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from holderbounds.cli import main
from holderbounds.nondegen import CertifyConfig, certify_system
from holderbounds.polysys import parse_system

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


def _path(name: str) -> Path:
    demo = ROOT / "demos" / "systems" / f"{name}.poly"
    return demo if demo.exists() else ROOT / "bench" / "systems" / f"{name}.poly"


@pytest.mark.parametrize("name, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_certify_json_matches_recorded_hash(name, seed, capsys):
    main(["certify", str(_path(name)), "--seed", str(seed), "--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[name, seed]


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
