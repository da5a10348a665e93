"""Byte-stable outputs: the SHA-256 of every file `run` and `compare` write.

The digests pin the four shipped scenarios at seed 42 and at the
held-out seed 7, and the benchmark's 100-service fleet, the one large
run with queueing and requests in flight at the horizon, under sami
and cloud-only at both seeds. A change that moves any of them changes
what users get, and needs its own CHANGES.md entry saying why, together
with the new digests.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from tierbroker.cli import EXIT_OK, main
from tierbroker.report import write_metrics_csv, write_metrics_json
from tierbroker.simulation import simulate_scenario
from tierbroker.workload import load_scenario

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

GOLDEN_SEED_7 = {
    "dealer_hours": {
        "metrics.csv": "51ea6ecaf1d8ee9537fbea2d13174fb8822ce8bc5a9ce2f86e4d3d0d06142826",
        "metrics.json": "8362df418417d70542607530f5fd6193ff083445dd152cd59e1dd0990d38c4f5",
        "compare.csv": "50a878279516db4d592da88d8d1ffc699bd02fc2bf52a73311e075a64788114a",
        "compare.json": "12d519f1219e051600a46c14aebdad9923496a2801a3604e25ac1842333fa9d3",
    },
    "hot_cloud_service": {
        "metrics.csv": "dede5ea265226a33ba4ffce400a2d0eb7582e92f9dc3ebcf65f38ab316643735",
        "metrics.json": "3dc3367851a70ab7ac91868d2e9bafc1126649cc444f4de19223d5fcdddd9afb",
        "compare.csv": "657d2ecaab5f11aea45be6fa84b3d7095305337c449adfd1c827d08bdea79554",
        "compare.json": "a770ce81f571b183fb3040ade9786a83c88aef7b312b9158ad4b6a30fafa5210",
    },
    "latency_mix": {
        "metrics.csv": "7cbaebe3bed1824aa5b0867f59952f50e305349dd8817229e9ea9bb70e84657e",
        "metrics.json": "da0cb8f28381d54b8c216436cc5611ae5ae0af63dec8318aa5b81556c917d75c",
        "compare.csv": "2ffb42c7c07bdfc03a4705454ed7d6a0ecddbba5b4e9249a0ca56854579b910a",
        "compare.json": "ab3d9166e4f09738c6e4afb34493d8e0af81943236a37bccb04ad256fdae3c90",
    },
    "minimal": {
        "metrics.csv": "23f4c7eb5904b0e51791246fb6a1e846a01c14ad137717b9870005223e4d06fe",
        "metrics.json": "59ef1cd8104f0d85af03e99c34ebff316dfb6a0df19342186f5db2bf012484d3",
        "compare.csv": "a1b4dfda70052cea44f3d46c94a9ce642d54fd09b577996fcd0d3aaa81e247fd",
        "compare.json": "3f52ff7e92278130ff9ac9b253fa3e016fbf7cff5a1cc8f406e9076bc53fb4e3",
    },
}


def output_digests(tmp_path, name, seed, filenames):
    scenario = str(SCENARIO_DIR / f"{name}.json")
    for command in ("run", "compare"):
        args = [command, "--scenario", scenario, "--seed", str(seed), "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
    return {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in filenames
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_outputs_match_golden_digests(tmp_path, name):
    assert output_digests(tmp_path, name, 42, GOLDEN[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SEED_7))
def test_held_out_seed_outputs_match_golden_digests(tmp_path, name):
    assert output_digests(tmp_path, name, 7, GOLDEN_SEED_7[name]) == GOLDEN_SEED_7[name]


# bench/digest.py's fleet_sami and fleet_cloud lines: (seed, policy) -> file -> SHA-256.
GOLDEN_FLEET = {
    (42, "cloud-only"): {
        "metrics.csv": "03ac246314027fabcadacd49bbee2109940f378979ed0182add231c756829e7b",
        "metrics.json": "67fe46d830188b10667483596e853edab66f6232fadc4a4cdc0c3833391dfe44",
    },
    (42, "sami"): {
        "metrics.csv": "87a3792c30237e5e2bf9829c7b305da48f4b3821c70b88956bb5a6baac8b1fb4",
        "metrics.json": "9c94e64eb41d7ed39b0d9afac713a56aba6fb752561b93e922aa4a568b48d29f",
    },
    (7, "cloud-only"): {
        "metrics.csv": "75a8e510757201cc7efe005b43c2b3bb069306243118dc8eff6c061b3d603659",
        "metrics.json": "7b38354a443a7e47ee934f1d00f39dd4f44f17c648577b7c240c58f1807a1f43",
    },
    (7, "sami"): {
        "metrics.csv": "701bc4f2746b5713e84633fcfb58c34345b0181bae2350134d17854ab4635113",
        "metrics.json": "3996a36bd340957b6c6416bc8a1f2fb2cc5d2b38059549bcb1f60f9b9db6e487",
    },
}

WORKLOADS = SCENARIO_DIR.parent / "bench" / "workloads.py"


def fleet_dict(seed):
    """bench/workloads.py's fleet at seed, loaded from its file, which is left as it is."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    fleet = module.fleet_dict(seed)
    # Made relative to where bench/ writes the fleet; read from the scenarios here.
    fleet["tag_vocabulary"] = str(SCENARIO_DIR / Path(fleet["tag_vocabulary"]).name)
    return fleet


@pytest.mark.parametrize("seed, policy", sorted(GOLDEN_FLEET))
def test_fleet_outputs_match_golden_digests(tmp_path, seed, policy):
    # As the fleet workloads run it: the scenario read from its file, one
    # simulate_scenario and both metrics files.
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(fleet_dict(seed), indent=1) + "\n", encoding="utf-8")
    result = simulate_scenario(load_scenario(str(path)), policy=policy)
    write_metrics_csv(result.report, str(tmp_path / "metrics.csv"))
    write_metrics_json(result.report, str(tmp_path / "metrics.json"))
    digests = {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in GOLDEN_FLEET[seed, policy]
    }
    assert digests == GOLDEN_FLEET[seed, policy]
