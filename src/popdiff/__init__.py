"""popdiff: density engines and constructions for popular 3-AP differences.

The package computes per-difference 3-AP densities exactly (spectral and
direct routes), builds the low-3-AP model profile and the randomized
product-group / interval lower-bound constructions, materializes Bohr sets
for the density-increment search, and verifies every construction by
exhaustive scan.

Importing the package loads neither numpy nor any submodule, so a command
pays only for the modules it runs; import each name from the module that
defines it (``from popdiff.aps import ap_profile``).
"""

import os
import sys

# numpy's OpenBLAS starts a worker thread at import that spins before it
# sleeps, about 75 ms of CPU per process, and popdiff makes no BLAS call; so a
# process starts single-threaded unless numpy is already loaded or the user
# has chosen a thread count
if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.2.0"
