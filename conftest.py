"""Pytest set-up for the whole suite: one BLAS thread.

The model's GEMMs are at most 32 x 64, so extra BLAS threads burn CPU time
without saving wall time (bench/run.py pins its own process the same way).
The variables must be set before numpy is first imported, which is why
this lives in the root conftest.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
