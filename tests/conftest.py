"""Shared fixtures of the test suite."""

import ctypes

import numpy as np
import pytest

from smallbody import cli

try:  # the OpenBLAS that numpy links, as cli._openblas finds it
    _blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _set_blas_threads = _blas.scipy_openblas_set_num_threads64_
    _set_blas_threads.argtypes, _set_blas_threads.restype = [ctypes.c_int], None
    ENVIRONMENT_BLAS_THREADS = _blas.scipy_openblas_get_num_threads64_()
except (OSError, AttributeError):
    _set_blas_threads = ENVIRONMENT_BLAS_THREADS = None


@pytest.fixture(autouse=True)
def blas_threads_of_the_environment():
    """cli.main sets numpy's OpenBLAS to one thread for the rest of its
    process.  After a test that ran it in this process, put back the thread
    count the suite started with and let the next cli.main set it again, so
    that the library tests run BLAS at the environment's thread count
    whatever ran before them."""
    yield
    if cli._openblas.cache_info().currsize:
        cli._openblas.cache_clear()
        if _set_blas_threads is not None:
            _set_blas_threads(ENVIRONMENT_BLAS_THREADS)
