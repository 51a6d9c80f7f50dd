"""Pin BLAS to one thread for the test run.

OpenBLAS reads its thread count once, when numpy loads, and defaults to the
machine's core count; the tests' many small products run faster on one
thread. This file is loaded before any test module imports numpy. A value
already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
