"""Byte-exact artifacts of `ridepool all` for four small pinned configs.

Every artifact"s sha256 is pinned.  A change that alters any byte fails
here; it must update the digests in the same commit and say in CHANGES.md
which files changed and why.  Print fresh digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import os
import tempfile

import pytest

from ridepool.cli import main

_BASE = """
[network]
rows = 6
cols = 6
spacing_m = 500

[demand]
n_trips = 40
n_users = 24
hotspots = 3
hotspot_spread_m = 400
departure_window_s = 900

[run]
seed = 11
train_updates = 2
capacity = {capacity}
objective = {objective}

[embedding]
dim = 4
layers = 2

[ppo]
hidden = 8
rollouts_per_update = 2
epochs_per_update = 2

[sweep]
s_values = 0, 1.0
objectives = {objective}
runs_per_cell = 1
"""

CONFIGS = {
    "capacity2": _BASE.format(capacity=2, objective="distance"),
    "capacity3-tolerance": _BASE.format(capacity=3, objective="distance")
    + "\n[tolerance]\nenabled = true\ntau0_s = 900\n",
    "time": _BASE.format(capacity=2, objective="time"),
    # social_penalty_weight > 0: training pays the expected rejections and the
    # sweep retrains per (objective, s) cell; on this instance the penalty moves
    # policy.txt but no decode (test_tolerance checks the cells themselves)
    "capacity3-penalty": _BASE.format(capacity=3, objective="distance")
    + "\n[tolerance]\nenabled = true\nsocial_penalty_weight = 50\n",
}

GOLDEN = {
    "capacity2": {
        "features.txt": "d129c7d0eceef00d6e2d48ed2a1c1dae6776adbc57149d831750d9f080a8015c",
        "graph.txt": "adb548c84c72dc85122ca464e6ebe51c86c7fe3be9e2ffff943fff98303282a8",
        "manifest.txt": "3e47619af28cfc800a1fa8808f6db1d88963e5090262cbf3ebc886ae33f7123f",
        "matching.txt": "5d027084aa8ffd9f31d5f98b3b05d5d052cd3870958ea14660391a931f8350ac",
        "metrics.csv": "06b50b4663ae5243ca41b9302c367fb690c022dfd8dc4b62635ef369981dd6ef",
        "network.txt": "c8b0e84f6a820d7a2ed1abe66773541382fb7a44e887d76feaccae064dc88eba",
        "policy.txt": "620dd1f91776c86fcc4726252c9e3a576c7f4d91c178e5f6ba40f06251a399af",
        "report.json": "54bf512cc12b8de056965f57c93651f7533c9ae18b253e9db929942307334656",
        "sweep.txt": "f5c5114a5a972fb0eb628946b23dec12e85cee6623f9be8a1f73f8313574e07e",
        "trips.txt": "7aadee94478df6b264a725a7fd2a73092ef4baf96f853fbfc7721bf9709b7eac",
    },
    "capacity3-penalty": {
        "features.txt": "d129c7d0eceef00d6e2d48ed2a1c1dae6776adbc57149d831750d9f080a8015c",
        "graph.txt": "adb548c84c72dc85122ca464e6ebe51c86c7fe3be9e2ffff943fff98303282a8",
        "manifest.txt": "5b77a8024956abfd36c41b0804bc0e70f655acb39ac3c418e80711cbc6a2c192",
        "matching.txt": "2bd495261240d0db1fa53985a3bc1f16878bdc4053e915a5f57b61e81d2aa16f",
        "metrics.csv": "16a6a6aedbeef4c1ba241bbc66e797a77700049bc0e0272799b102c27ea6ec32",
        "network.txt": "c8b0e84f6a820d7a2ed1abe66773541382fb7a44e887d76feaccae064dc88eba",
        "policy.txt": "12bab58008a83e021f977948b90dcb3a4d802964e4917bf43fc879f40b9ed911",
        "report.json": "26d48d804772fd695f40e7a5df3f9d6c8c5d6d6869c2338ba8901776582f38c2",
        "sweep.txt": "2220df3c5868078e3243d3fdb94a87bd767de028681b9033838ae1cb3972c60a",
        "trips.txt": "7aadee94478df6b264a725a7fd2a73092ef4baf96f853fbfc7721bf9709b7eac",
    },
    "capacity3-tolerance": {
        "features.txt": "d129c7d0eceef00d6e2d48ed2a1c1dae6776adbc57149d831750d9f080a8015c",
        "graph.txt": "adb548c84c72dc85122ca464e6ebe51c86c7fe3be9e2ffff943fff98303282a8",
        "manifest.txt": "9d005167c4f200189de000edaf0709cccb06faa037c5a2131bef89e991597dfb",
        "matching.txt": "2bd495261240d0db1fa53985a3bc1f16878bdc4053e915a5f57b61e81d2aa16f",
        "metrics.csv": "16a6a6aedbeef4c1ba241bbc66e797a77700049bc0e0272799b102c27ea6ec32",
        "network.txt": "c8b0e84f6a820d7a2ed1abe66773541382fb7a44e887d76feaccae064dc88eba",
        "policy.txt": "ea27515e17da76c3c440730b91d986a5c2daadb96e4ffdcbfb2dd8380d71e86c",
        "report.json": "26d48d804772fd695f40e7a5df3f9d6c8c5d6d6869c2338ba8901776582f38c2",
        "sweep.txt": "2220df3c5868078e3243d3fdb94a87bd767de028681b9033838ae1cb3972c60a",
        "trips.txt": "7aadee94478df6b264a725a7fd2a73092ef4baf96f853fbfc7721bf9709b7eac",
    },
    "time": {
        "features.txt": "d129c7d0eceef00d6e2d48ed2a1c1dae6776adbc57149d831750d9f080a8015c",
        "graph.txt": "51ca83cd2d7e7118cd8ffe780be18135375bee07bea81a52f7cecada8358b00a",
        "manifest.txt": "c65c06f1f1c024f2516fea860eb5a52ee09b2e20b8cb3da6c5358a3b527b7a81",
        "matching.txt": "deddb103f68453d40f46252a2acdda373224ca32beac7d378d2624d223766359",
        "metrics.csv": "da1dbbc064b4af5e65d70a2db784b8de8816da24d647c2a6cc870cdb4664e574",
        "network.txt": "c8b0e84f6a820d7a2ed1abe66773541382fb7a44e887d76feaccae064dc88eba",
        "policy.txt": "7ae79d05c9cb17f8a92259e1328e80a46e9d5f634978f6a8c1229d977fc2a43a",
        "report.json": "6f32eb73975c808cefd0af2c3ec13c7ea0c3b9ab6edccc2f76d1e7925667a29a",
        "sweep.txt": "8f2996d0710ae2f9c8924ce8f8df08d1e8a1884bf681c648c23084cac21887d2",
        "trips.txt": "7aadee94478df6b264a725a7fd2a73092ef4baf96f853fbfc7721bf9709b7eac",
    },
}


def artifact_digests(config_text, workdir):
    cfg_path = os.path.join(workdir, "run.ini")
    out = os.path.join(workdir, "out")
    with open(cfg_path, "w") as fh:
        fh.write(config_text)
    assert main(["all", "--config", cfg_path, "--out", out]) == 0
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_all_artifacts_match_golden_digests(name, tmp_path):
    assert artifact_digests(CONFIGS[name], str(tmp_path)) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as workdir:
            digests = artifact_digests(CONFIGS[name], workdir)
        print(f'    "{name}": {{')
        for artifact, digest in digests.items():
            print(f'        "{artifact}": "{digest}",')
        print("    },")
    print("}")
