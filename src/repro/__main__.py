"""Module entry point: ``python -m repro``."""

import os
import sys

# One BLAS thread unless the caller says otherwise: numpy's import
# otherwise starts nproc - 1 OpenBLAS threads that spin before they
# sleep (~0.1 CPU-s per start-up on two vCPUs), and no command does
# BLAS-sized linear algebra.  Set before ``cli`` can import numpy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .cli import main  # noqa: E402

sys.exit(main())
