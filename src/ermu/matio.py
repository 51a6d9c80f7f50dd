"""Flat binary container for weight matrices and covariance factors.

Layout: 8-byte magic ``ERMUMAT1``, then rows and cols as little-endian
uint64, then the row-major float64 payload. Kept deliberately dumb so any
tool can reread it.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ermu.errors import InvalidArgumentError

MAGIC = b"ERMUMAT1"
_HEADER = struct.Struct("<8sQQ")


def write_matrix(fh: BinaryIO, arr: np.ndarray) -> None:
    """Write ``arr`` to the open binary file ``fh``: header, then payload."""
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    if a.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D array, got ndim={a.ndim}")
    fh.write(_HEADER.pack(MAGIC, a.shape[0], a.shape[1]))
    fh.write(a.tobytes(order="C"))


def load_matrix(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise InvalidArgumentError(f"{path}: truncated header")
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise InvalidArgumentError(f"{path}: bad magic {magic!r}")
        payload = fh.read(8 * rows * cols)
    if len(payload) != 8 * rows * cols:
        raise InvalidArgumentError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
