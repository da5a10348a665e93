"""Byte-stable outputs: the SHA-256 of every file `run` and `compare` write.

The digests pin the four shipped scenarios at seed 42. A change that
moves any of them changes what users get, and needs its own CHANGES.md
entry saying why, together with the new digests.
"""

import hashlib

import pytest

from tierbroker.cli import EXIT_OK, main

from conftest import SCENARIO_DIR

GOLDEN = {
    "dealer_hours": {
        "metrics.csv": "14d26edb6ce0ce482623f0f080522c1cb049a26f7cad76becbb8a6b20672b557",
        "metrics.json": "8532d374450341dcc9992abcd3db0d26ca7d57cfaa5b9e31226ae1ebfabdcf51",
        "compare.csv": "f8958504e3ab8a443a7caf0ffe1c156874f57564d07b60ae839252a55bdf6a38",
        "compare.json": "2156102f288bd1205c75de5fc992be76315bb59397cd66e4becc8ee21e9bf9ac",
    },
    "hot_cloud_service": {
        "metrics.csv": "f211556d40bd576cda9bbb876b221acf5355418e6332beb787909c65a14d300b",
        "metrics.json": "0fa6ff5335634d9d81f15ba43a40e1d9158bf4eef7a7da217a7e4a723beeb0ba",
        "compare.csv": "5599a399b4ad4b83f5fab2c606d2675761e87bed2d8e9c30c8afac0f2f3f0ec0",
        "compare.json": "ee1256fd29974744e3d91b0657fb37817e7d98a54844c9704c94af9b052bdcb8",
    },
    "latency_mix": {
        "metrics.csv": "6c411ff3e97d5d7ac17748d9a01a48860cda86e47ede481d6958f7d04d4faec4",
        "metrics.json": "b3dc1a72741c1736d9ba7cf5143c092a0f5c33bccdc2863e38546c55ecd367f6",
        "compare.csv": "30257bb92121ceb47b865e4efb46f965567cc622250ca555cf9d58e105b19b26",
        "compare.json": "dc66c82355a2b7562eeccd2094e9690040af36e9a3fa7b38736c00b6e7cbb07a",
    },
    "minimal": {
        "metrics.csv": "2baafdde6a5d0a045e80eefa0e91f1d429556ab9f0d03607ba48ab559aba48e0",
        "metrics.json": "f1315057f73d66da1da11f6b14d1e9fc6135f079698d6f47a107e59d464d833f",
        "compare.csv": "b445ea98cdd82708bb46750a036f39a49d7fbeae07d2d401c0e969dc8bfd5aec",
        "compare.json": "34f14b12eef8064b9404216d92214e406b216b2f3cbb2ac7865609f34ad4a8ab",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_outputs_match_golden_digests(tmp_path, name):
    scenario = str(SCENARIO_DIR / f"{name}.json")
    for command in ("run", "compare"):
        args = [command, "--scenario", scenario, "--seed", "42", "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
    digests = {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
