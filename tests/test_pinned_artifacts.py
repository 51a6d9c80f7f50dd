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
    'free_energy_checks.json:control': 'ce92183279e9ea1a7b787631d21514764e29f7125c4174c9b2abcfda9d9270cd',
    'free_energy_checks.json:lin': 'aee1c889da58e3e3ff67b4d1ce2dc3e627a81eab91c2315402c78562fd693930',
    'free_energy_checks.json:nt': '9ffd7b9d89f8878a2aa58cc7012780fda25ffaae71fc55db3d70ec64f8c083ff',
    'free_energy_checks.json:rf-hermite': '9841b386d7e94addc8ae1ce950400bc0503b654004bc25b6dbfb977b7886273c',
    'free_energy_checks.json:rf-mc': 'c43a1bbeb5b585498b4db31d511f39e7b0ed8deb774ddbcfac57469d91385749',
    'free_energy_paths.csv:control': 'e0520cca2848e8344edeac7b245dfdc410081e19c8ba7c0ddfcd3cb0dbebedda',
    'free_energy_paths.csv:lin': '62461b0fa62834d92a7ec6cf575c0344fc37ec192bddbd0a9ca5f4454fb0d248',
    'free_energy_paths.csv:nt': 'cb6a1b253239bec9ff2e629513c4181d89b6de2c2a1f35717c70116ea733be13',
    'free_energy_paths.csv:rf-hermite': '92fc09f1ba2c0c5d222593985f79f7fb0bf9c32a080caaf49931c14f1bf4423b',
    'free_energy_paths.csv:rf-mc': 'c9099c38ec19bbf498a8ba2b138bb60b4d3dc46c94df310ac719ace35b688a30',
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
    'perturbed.csv:control': 'f8a708864269de636788a24dbe29aef20d465bbb100afe3e15ba408fffe13ffe',
    'perturbed.csv:lin': 'fc7d7f378fd7c7e01f6489b9a9390492242854a4d9f6979d78e9597520c821a2',
    'perturbed.csv:nt': 'bcf968fd0f181993ea4c431bcd7761f8cf3b33f78f1644113ad86c3ef2bc296b',
    'perturbed.csv:rf-hermite': '78ff8572da1695ab419e62a07b47277e4af61d3ce8443b9c6e126335592fb587',
    'perturbed.csv:rf-mc': '60565c14eef18f97d00f5676d76524afc642f7b8437dbd9dedd476c9dd34f019',
    'report.json:*': '6cea7f773c2e2d2dcf59eb959253ba07162001794dbaee02203556aa59a8b5cd',
    'report.json:control': 'd6c8cd40c5de9d70572e5b26291c90f83e92101cce4782fe02bba348158aed69',
    'report.json:lin': '17f22b3e63a6c835ef55cf997291af5acaa96c0c4fcbd30a1c6d2e8e556aa435',
    'report.json:nt': '5ececd0a851d68842c3f07f5d4624bb8f05b146fc42ba8c4479c01ba09062904',
    'report.json:rf-hermite': '47b71145c74224615a5f671d873f991d5df9b19adcda2c105ead092cb12174e5',
    'report.json:rf-mc': '47b24ef10ba1784cbc455f56f8bb37fb4c55f40a5f2555cba9992b572cca9161',
    'trials.csv:control': '1f551a27184a822b288d54062f0fb658bee2e32c875c1a5e04b276480dafd183',
    'trials.csv:lin': '5221a01f242c5dec435712a97bf24fe6f62b563fc2460544d92f394c47b97893',
    'trials.csv:nt': '73067861f58c93a6f998cfafac964a62eada7a4743995e40147e95ffe36d6c20',
    'trials.csv:rf-hermite': 'aa00bf3a1ce6b8e7f855f8ed62744ea7e03c59836f91fa4128936d4da9400ac3',
    'trials.csv:rf-mc': '30fb7859abeaee614da8e84df86c9284cb07ec0d2ec0205d6164b747270e7cd0',
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
