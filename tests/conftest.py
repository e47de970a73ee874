"""Test-session settings that must be in place before numpy is imported."""

import os

# One BLAS/OpenMP thread, as perfbench/run.py pins: the tests' linear algebra
# is tiny, and an unpinned OpenBLAS pool made single quadrature calls several
# times slower whenever the other cores were busy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
