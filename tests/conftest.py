"""Test-session setup: one BLAS and OpenMP thread, as in perfbench and the
artifact digest tool.

The thread count reaches the last bits of the dense solves and eigensolves,
so pinning it here runs the suite on the numerics whose artifact bytes
`tools/artifact_digests.py` digests; it also keeps small dense kernels from
oversubscribing the cores. Pytest loads this file before any test module
imports numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
