"""Suite-wide setup, run by pytest before any test module is imported.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy (or scipy) loads it,
and the suite's small LAPACK calls run slower threaded. The test modules
import numpy before numrad, whose own default would then come too late, so
the suite pins one thread here unless the variable is already set.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
