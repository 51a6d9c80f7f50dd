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
    'free_energy_checks.json:control': 'f8cb4de15608d70d9a1503ef0607dd9b947ac10c70b9e2cd77f43622c32c9c32',
    'free_energy_checks.json:lin': '67823cdcfbde4319255d5e93ed33d6cf39b8474e22edd72468d36312c378cb67',
    'free_energy_checks.json:nt': 'aa42ceb0caf67e3f4b767ffa066298a86ff90dd0eb30aee7acf14e1dfeb2a14e',
    'free_energy_checks.json:rf-hermite': '822b475e423d2cefbe21e28b0444c86474abc523cef86a4b77b9b66aa60b5340',
    'free_energy_checks.json:rf-mc': 'a8f8d72fa057cde9d84b3b6179775f087f497b9c7b082e0b612614aa47b26310',
    'free_energy_paths.csv:control': 'bbc3b05b829dbbbee07c70d3156a1042a20804086be1c6579d5c0ab622bebc1a',
    'free_energy_paths.csv:lin': 'a81af3a1c18f5bf89e359abdef602f5d65c7295773452f8649430e6f938eaa8a',
    'free_energy_paths.csv:nt': '4205dcac403f5537e89318bc0239286a9a8a4c65f166881f745fd4453b13edc0',
    'free_energy_paths.csv:rf-hermite': '49a0b6415683919a873c88baf3beec01d5c9891df2c6fb0b932f61cb77112625',
    'free_energy_paths.csv:rf-mc': '98160f44ccac08d30cfef35cbd24f1fc6eacea071641743cbe71ecfd9db6ded2',
    'gap_vs_n.csv:control': '317cf47079609fc051bdc65b85cd490af03bc871cccb396b4b82329bd4a4a802',
    'gap_vs_n.csv:lin': '0b75e141dafe7ba95517061f0ae26630a5c0c24c3a0a08c1559a8a4b4e7de2e1',
    'gap_vs_n.csv:nt': '8aa698e413b0e6bdaaefdc18f0e20a31ac6d1320cd86d2acfc5cbb4f47b68248',
    'gap_vs_n.csv:rf-hermite': '6ff22b5f9b29571c2fe760e2062aa86b3ba703d23ebe1483302d28ec33199d83',
    'gap_vs_n.csv:rf-mc': 'd6cd885d947779de028d8a57946fea60d97c48918041b177f48669ef8390b627',
    'manifest.json:*': '895f4a7e49b5875c76f694357eca8ddb5cb7288f80c3b5d52933c0963603f5ef',
    'matrices:control': '864339eaaf736ac3511bb1c95985af22d14c853f54021744f66b715474360495',
    'matrices:lin': 'dd26b10beab2af5d8e21162620b39f58a10186348ff88b1341e38ab1cbc0117b',
    'matrices:nt': 'f387609c8edc0b4fc8f69954b5e13818bec45439a30f6810007c1eb1c8dfd1e9',
    'matrices:rf-hermite': '6728a8f52d272f607224fde826b4a8cdd0cfad634803a8a200208340bdf1bbd0',
    'matrices:rf-mc': '868ddade4f9e7908fe5fe0a2d18114091c19177b4e52b6ed46b849777cb57716',
    'perturbed.csv:control': 'b226541aaaa0973fd1e8b4b5609c3b24c3e8747de6d6112821bff024fc25dbdb',
    'perturbed.csv:lin': 'cc5dddb2a64905459249b1939b7ae567db26e2fd98ba1932a01f804167dbcbaf',
    'perturbed.csv:nt': '389f21a77eae690c2c3bd2386302e2193237ba3cf8a461e75f797332363cca93',
    'perturbed.csv:rf-hermite': 'bdcdbe8fd6be5540d0e0068c2d391b332ebcb8c5e5f8b1160f807102548dbc84',
    'perturbed.csv:rf-mc': 'a977346dcaec429bfd5150f90f23e7f24610ef8827bf6393de5c00fcac2a4fb4',
    'report.json:*': '6cea7f773c2e2d2dcf59eb959253ba07162001794dbaee02203556aa59a8b5cd',
    'report.json:control': '6f72dd9c7cd033ccf2dd27b5c9351c2962187210f2f08bcdc93c97297ff6c1b4',
    'report.json:lin': 'e2bfb60b499a7360876f78d03fb98283b35942b658c733f1f7246156e299d725',
    'report.json:nt': 'ba68877d113c10d47958a290706c15acf221ed0c1a836b1ca9476d7fc5589a7d',
    'report.json:rf-hermite': '21b5496d2cb2037c3a41d88d2d5a6cf1e46f112a0bc25593a560799094b84d55',
    'report.json:rf-mc': 'f1e9ab4a0f1fbd6d3b7e8940f306cb7f9b8af5b29c3eeab90a861ec29a687c9c',
    'trials.csv:control': '07f865a43cefb7cfe40ffcb58805acb0720191ea8e1ec759f3a6505acc0908e1',
    'trials.csv:lin': '214206643d2710743953d9371be50e76b43565546144b84a4077de1bdfebf85b',
    'trials.csv:nt': '466be0fc3abad625b469cf4ea0abfdf7255bde5a64b7137222c729922473d966',
    'trials.csv:rf-hermite': '967fa84be6ac5cb964536aa965c21648edca4ce3ceb3a8d43b4a7c3d1b0f665e',
    'trials.csv:rf-mc': 'fdcf1440048a5c63542330d0704e69acda3909231f2d18ef09e6b7536f743b14',
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
