"""The thread count of the OpenBLAS that numpy links, through the library's own calls.

Environment variables such as ``OPENBLAS_NUM_THREADS`` are read once, when
numpy is imported; a process that already runs numpy can change its BLAS
thread count only by calling into the library.
"""

from __future__ import annotations

import ctypes

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

# (set, get) pairs, tried in order: numpy's bundled scipy-openblas with 64-bit
# and with 32-bit integers, then a system OpenBLAS with the same two builds.
THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def blas_thread_calls():
    """The (set, get) thread-count functions of numpy's OpenBLAS, or None.

    ``set(n)`` takes the new count; ``get()`` returns the current one. None
    means no pair in ``THREAD_CALLS`` resolves, for example under a BLAS other
    than OpenBLAS.
    """
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for set_name, get_name in THREAD_CALLS:
        try:
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None
