"""The BLAS thread count of a campaign: the loaded OpenBLAS, pinned to one thread.

OpenBLAS splits some products over its threads, which moves their last
bits, and it takes its default thread count from the machine's core count.
So a campaign runs its BLAS on one thread: its bytes then match across
machines and worker counts, and its many small products run faster. The
library is the OpenBLAS that numpy loaded, found by its file name in
``/proc/self/maps`` and called through ctypes. Where there is none to find
(another BLAS, or no ``/proc``), nothing is pinned, and the manifest says so.
"""

from __future__ import annotations

import contextlib
import ctypes
from pathlib import Path
from typing import Callable, Iterator, Optional

# OpenBLAS names its entry points openblas_<name>, with a scipy_ prefix in
# the builds numpy bundles and a 64_ suffix in the 64-bit-integer builds.
_NAMINGS = [(prefix, suffix) for prefix in ("scipy_", "") for suffix in ("64_", "")]


def _openblas() -> Optional[tuple[str, Callable, Callable, Callable]]:
    """(file name, set_num_threads, get_num_threads, get_config) of the OpenBLAS
    this process has loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "/" in line}
    for path in sorted(p for p in paths if "openblas" in Path(p).name.lower()):
        lib = ctypes.CDLL(path)
        for prefix, suffix in _NAMINGS:
            if hasattr(lib, f"{prefix}openblas_set_num_threads{suffix}"):
                entry = [getattr(lib, f"{prefix}openblas_{name}{suffix}")
                         for name in ("set_num_threads", "get_num_threads", "get_config")]
                entry[2].restype = ctypes.c_char_p
                return (Path(path).name, *entry)
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[dict]:
    """Run the body with BLAS on one thread and restore the old count after it,
    also on an error. Yields the manifest's ``blas`` entry: the library, its
    config string, the thread count in force and whether it was pinned."""
    found = _openblas()
    if found is None:
        yield {"library": None, "config": None, "threads": None, "pinned": False}
        return
    library, set_threads, get_threads, get_config = found
    old = get_threads()
    set_threads(1)
    try:
        yield {
            "library": library,
            "config": get_config().decode(errors="replace").strip(),
            "threads": get_threads(),
            "pinned": True,
        }
    finally:
        set_threads(old)
