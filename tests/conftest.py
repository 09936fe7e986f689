"""Test-session setup shared by every test module."""

import os

# Keep numpy's BLAS to one thread, as bench/run.py does: a thread pool makes
# the many small matrix products of the simulator erratic and far slower on a
# busy host.  Set before any test module imports numpy; the CLI tests'
# subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
