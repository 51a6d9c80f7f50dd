"""Pinned artifacts: the bytes of one small campaign, family by family.

One campaign covers every cov mode (hermite-exact, monte-carlo, empirical,
linear-exact) and every family kind, both stages and ``save_matrices``; it
is run and reported through ``ermu run`` and ``ermu report``. Each family's
rows of each artifact are hashed apart, so a change that moves one family's
numbers shows which family moved and that no other did. A change that
moves a number re-pins the entries it moves and names the reason in
CHANGES.md.

The campaign runs in a fresh process with BLAS on one thread: OpenBLAS
splits some products over its threads, which moves their last bits, and its
default thread count is the machine's core count.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

PINNED_CONFIG = {
    "master_seed": 4646,
    "trials": 2,
    "ladder": [40],
    "save_matrices": True,
    "families": [
        {"id": "rf-hermite", "kind": "random-features", "cov_mode": "hermite-exact"},
        {"id": "rf-mc", "kind": "random-features", "cov_mode": "monte-carlo",
         "cov_samples_per_dim": 20},
        # n > p, so the empirical twin is drawn a row block at a time.
        {"id": "nt", "kind": "neural-tangent", "cov_mode": "empirical",
         "sizes": [{"d": 6, "n": 60}]},
        {"id": "lin", "kind": "linear-independent"},
        {"id": "control", "kind": "control-gaussian"},
    ],
    "problem": {"loss": "huber", "tau": 0.5, "lambda": 0.1},
    "test_risk": {"n_test": 30},
    "bootstrap": {"resamples": 200},
    "free_energy": {"enabled": True, "M": 16, "path_points": 4},
    "perturbed": {"enabled": True, "s_values": [0.1]},
}

FAMILY_CSVS = ("trials.csv", "free_energy_paths.csv", "perturbed.csv", "gap_vs_n.csv")
CLOCK_FIELDS = ("wall_time_s", "created_unix")
# Entries that belong to no one family carry this family name.
CAMPAIGN = "*"

PINS = {
    'free_energy_checks.json:control': '0159b6f074c3ae6c9ab4a3be1476eaaa1ce72ba04d4602357d38f4fc7bfad7e2',
    'free_energy_checks.json:lin': '528c7b21499a2c66ec3d7eb91669b93e2b58bb58c0909ab1f6fb2eff8a8bebdb',
    'free_energy_checks.json:nt': 'b1419144a8e28ba6354241e538e362a2ac7e01041389391d6889d41a582b1a36',
    'free_energy_checks.json:rf-hermite': '0aef32fe7cceb97a01258dd289d3bcc2942526bfed949e4d1cc0ef882d15c750',
    'free_energy_checks.json:rf-mc': '87c8e70a681af1cd9de56c68f7d6aad6a1e51318363effcb6ee4edbe35c8cf5a',
    'free_energy_paths.csv:control': 'efa38a2752758452241955df0226658113f87604f4c20568605b001bf9a299ad',
    'free_energy_paths.csv:lin': '6c0ee0a6088c69367fef04b7e3a91b747d444e7f5319651492f54ac7a7165818',
    'free_energy_paths.csv:nt': '3db486a0519ed7713c35ec5deb28cc08bad14b7210f9ca0623b3c790a4989956',
    'free_energy_paths.csv:rf-hermite': '063005890286e763c5c0abe70d182438ba8f7c9e32cb39fe32dac3ea9669ddef',
    'free_energy_paths.csv:rf-mc': '975e0a3516f674a2dd2fbf6d26a9b78d5517fc426ad3e5f4de88d9b3bac3d212',
    'gap_vs_n.csv:control': '91b3eb8de939df8debfcad0414b9169e7d96e2532a34263d9b6f5443137d9370',
    'gap_vs_n.csv:lin': 'c2fcfeca8e82f564f39a79521ccb343e3a56582d6174afcc1fee9cdb12ff5559',
    'gap_vs_n.csv:nt': 'f1de6427d97b3b81a36cdbb5e8bff9fd3ec4e0041dba7e519763a4a9afdede6a',
    'gap_vs_n.csv:rf-hermite': '51c2b69cc15aa1e2eb8c8c18574e64296865559439a028aa032fa2f09c0494f0',
    'gap_vs_n.csv:rf-mc': '5b3c94a3630a3c16bf0d52071cf5e0c887a49d5a5131db3130a8fa0e4a9c7dc6',
    'manifest.json:*': '895f4a7e49b5875c76f694357eca8ddb5cb7288f80c3b5d52933c0963603f5ef',
    'matrices:control': '864339eaaf736ac3511bb1c95985af22d14c853f54021744f66b715474360495',
    'matrices:lin': 'dd26b10beab2af5d8e21162620b39f58a10186348ff88b1341e38ab1cbc0117b',
    'matrices:nt': 'f387609c8edc0b4fc8f69954b5e13818bec45439a30f6810007c1eb1c8dfd1e9',
    'matrices:rf-hermite': '799e544a0070d2453d20d2e8dc8dab3e1cf0195c5daf6568ce316eee1c342609',
    'matrices:rf-mc': '130bc3e33f50060b844694a305acbefb530e220a2c41db9ff93b4888ac8ca5b7',
    'perturbed.csv:control': 'fb578458c3b17537ef0cb3daf9ccfdcc31d81275fa38331608789f3c09369138',
    'perturbed.csv:lin': '3602050ea094c55b3acb776b236b15e4d98d0c7f37cbe823c8ea15c0eee82cf4',
    'perturbed.csv:nt': '9cae62a1b1bece782ac22386077e8841b22675004b6c53d53a2ad36881b6e873',
    'perturbed.csv:rf-hermite': 'e9a0b09762f510d21bf0b0f1decea345b8d836d2ebfa9d6a40bc6d19d6c4c6c8',
    'perturbed.csv:rf-mc': '41daa63c804f40650b2d524dcb1a66d71fa55d43ac31812267b783d6f06b670d',
    'report.json:*': '6cea7f773c2e2d2dcf59eb959253ba07162001794dbaee02203556aa59a8b5cd',
    'report.json:control': '73a211d48d5f4eaa560ec421b7e825401eb2c05efd1435528026aeacf7448e4b',
    'report.json:lin': 'fdd74dbf4ed2705d2aa08182bdc89bc81735df8e29ef0ad830800629544819ae',
    'report.json:nt': '7a9eed95a106c4603178d91d34e6e75ff605ee5be06b78e0d4684e0337a29f52',
    'report.json:rf-hermite': '4d5970338099e4e6635e9ad1c3838abe96ef59efaf83987121ff6fdac3682af9',
    'report.json:rf-mc': '6ed0a77194514f1d227e24f63583b2a9171d1a7cab8439739e505944c5d34c13',
    'trials.csv:control': '99273949f50e58f455cc143a0cb56a4a9f8c673a4089011ac7b1b3e0101f0a98',
    'trials.csv:lin': 'c88558fe7d3dfa3280f81a45c076d739c16430da18d6aad9cd0cee00ff5f6f9a',
    'trials.csv:nt': 'd2b156af874ddd8672c6d6a4b543cbb31e326e4b4403b611422190b605a8207b',
    'trials.csv:rf-hermite': 'd4ac9e330057101e911c8247ceb3c39afefe0c67fe55e014e4408079410a879d',
    'trials.csv:rf-mc': '18ed01b20dbe275f4d887e669c00983ef3679dcc8a46b7750475db418594cd8e',
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(value) -> str:
    return _sha(json.dumps(value, sort_keys=True).encode())


def artifact_digests(out: Path, families: list[str]) -> dict[str, str]:
    """``"artifact:family"`` -> SHA-256 of that family's part of the artifact.

    A CSV's part is its header and the family's lines, as written; a JSON
    artifact's part is the family's entries, dumped with sorted keys; the
    matrices' part is the family's files, each with its name. The manifest
    is one campaign-wide entry without its clock fields, and so is the part
    of ``report.json`` outside its families.
    """
    digests = {}
    for name in FAMILY_CSVS:
        header, *lines = (out / name).read_bytes().splitlines(keepends=True)
        column = next(csv.reader([header.decode()])).index("family")
        for family in families:
            rows = [line for line in lines if next(csv.reader([line.decode()]))[column] == family]
            digests[f"{name}:{family}"] = _sha(header + b"".join(rows))
    checks = json.loads((out / "free_energy_checks.json").read_text())
    report = json.loads((out / "report.json").read_text())
    for family in families:
        digests[f"free_energy_checks.json:{family}"] = _json_sha(
            [check for check in checks if check["family"] == family]
        )
        digests[f"report.json:{family}"] = _json_sha(report["families"].pop(family))
        digests[f"matrices:{family}"] = _sha(b"".join(
            path.name.encode() + path.read_bytes()
            for path in sorted((out / "matrices").glob(f"{family}_n*.ermumat"))
        ))
    digests[f"report.json:{CAMPAIGN}"] = _json_sha(report)
    manifest = json.loads((out / "manifest.json").read_text())
    digests[f"manifest.json:{CAMPAIGN}"] = _json_sha(
        {key: value for key, value in manifest.items() if key not in CLOCK_FIELDS}
    )
    return digests


BLAS_ON_ONE_THREAD = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS")}


def test_every_family_artifact_matches_its_pin(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ON_ONE_THREAD)
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(PINNED_CONFIG))
    for args in (["run", "--config", str(config_path), "--out", str(out)],
                 ["report", "--results", str(out)]):
        proc = subprocess.run([sys.executable, "-m", "ermu.cli", *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    got = artifact_digests(out, [family["id"] for family in PINNED_CONFIG["families"]])
    moved = {key: got.get(key) for key in sorted(set(got) | set(PINS))
             if got.get(key) != PINS.get(key)}
    assert not moved, (
        "artifact bytes moved from their pins; the pins hold for numpy 2.4.6 with "
        f"scipy-openblas 0.3.31 (this run: numpy {np.__version__}). A change that moves a "
        "number re-pins the entries below and names the reason in CHANGES.md:\n"
        + "\n".join(f"    {key!r}: {value!r}," for key, value in moved.items())
    )
