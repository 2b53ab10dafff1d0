"""The thread count of the OpenBLAS that numpy's wheel bundles in
``numpy.libs``: read it, and set it for the length of a block; and
whether a command may fork a worker that runs one such thread beside the
main process.

Where numpy links another BLAS, or names its OpenBLAS entry points
otherwise, the count can be neither read nor set: ``threads()`` returns
None and ``pinned`` leaves the count alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

#: (getter, setter) symbol pairs, the 64-bit-integer scipy-openblas build first.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _entry_points():
    """The OpenBLAS (get, set) thread-count functions, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def threads() -> int | None:
    """numpy's OpenBLAS thread count, or None where it cannot be read."""
    entry = _entry_points()
    return None if entry is None else entry[0]()


@contextmanager
def pinned(count: int) -> Iterator[bool]:
    """Run the block with ``count`` OpenBLAS threads and restore the count
    it had before, however the block ends.  Yields whether the count was
    set; where it cannot be, the block runs with the count unchanged."""
    entry = _entry_points()
    if entry is None:
        yield False
        return
    get, set_ = entry
    before = get()
    set_(count)
    try:
        yield True
    finally:
        set_(before)


def forks_a_worker() -> bool:
    """Whether ``train`` and ``extract`` may fork one worker beside the main
    process (``worker.forked``), each process on one OpenBLAS thread:
    ``os.fork`` exists, a second core is usable and the thread count can be
    set; if not, the main process runs alone.  Two processes are the count
    measured to gain; more were never measured, and the usable cores that
    ``os.sched_getaffinity`` reports ignore a cgroup CPU quota.  Each command
    adds its own condition on the size of its work."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and _entry_points() is not None
    )
