"""popdiff: density engines and constructions for popular 3-AP differences.

The package computes per-difference 3-AP densities exactly (spectral and
direct routes), builds the low-3-AP model profile and the randomized
product-group / interval lower-bound constructions, materializes Bohr sets
for the density-increment search, and verifies every construction by
exhaustive scan.
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

__version__ = "0.1.0"

from .aps import ap_profile, per_diff_density, total_3ap_density
from .behrend import apfree_set, brute_max_apfree, is_apfree, low_ap_density_subset, scaled_indicator
from .bohr import (
    BohrSet,
    bohr_set,
    dilate,
    double,
    find_regular_scale,
    inequality_suite,
    is_regular,
    pick_increment_index,
    schur_gap,
    upper_search,
)
from .domains import (
    CYCLIC,
    GROUP,
    INTERVAL,
    OVER_N,
    OVER_WINDOW,
    PRODUCT,
    APProfile,
    DensityFn,
    DomainDesc,
    Spectrum,
    cyclic,
    interval,
    load_fn,
    product,
    save_fn,
)
from .errors import (
    DegenerateBohrError,
    DomainError,
    FileFormatError,
    InfeasibleError,
    PopdiffError,
    RegularityError,
    RetriesExhausted,
)
from .fourier import convolve, dft, idft
from .interval import (
    choose_interval_params,
    construct_interval_fn,
    sample_set,
    step1_step2_tile,
    step3_overlay,
)
from .modelfn import build_model_fn, verify_model_properties
from .product import (
    ProductParams,
    build_level1,
    construct_product,
    feasibility,
    random_modify_level,
    verify_level,
)
