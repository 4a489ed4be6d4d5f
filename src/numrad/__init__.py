"""Certified numerical radius enclosures and verified operator-matrix bounds.

The package computes rigorous two-sided enclosures of the numerical radius
of dense complex matrices, estimates the generalized Euclidean operator
radius of operator tuples, evaluates a family of upper bounds for radii of
2x2 operator matrices and their off-diagonal parts, and runs seeded
verification campaigns over random matrix ensembles.

Importing it sets OPENBLAS_NUM_THREADS=1 unless set (its small LAPACK calls
run slower threaded); this does nothing if numpy was imported first.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bounds import (
    BOUND_IDS,
    BoundOutcome,
    ZetaEstimate,
    bound_main1,
    bound_main3,
    bound_main4,
    bound_main11,
    bound_main11_young,
    bound_product_xy,
    bound_sum_norm,
    bound_th1,
    refined_young,
)
from .ensembles import KINDS, RngStream, derive, sample
from .errors import NumradError
from .funcpair import (
    FunctionPair,
    HolderPair,
    conjugate_exponent,
    pow_of_pair,
    power_pair,
    validate_pair,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    TrialRecord,
    counterexample_suite,
    default_config,
    report_to_csv,
    report_to_json,
    run_campaign,
)
from .linalg import (
    Block2x2,
    OffDiagPair,
    adjoint,
    as_matrix,
    embed_block,
    embed_offdiag,
    spectral_norm,
)
from .radius import (
    CertifiedRadius,
    OmegaPEstimate,
    omega,
    omega_many,
    omega_p,
    omega_p_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "BOUND_IDS",
    "Block2x2",
    "BoundOutcome",
    "CampaignConfig",
    "CampaignReport",
    "CertifiedRadius",
    "FunctionPair",
    "HolderPair",
    "KINDS",
    "NumradError",
    "OffDiagPair",
    "OmegaPEstimate",
    "RngStream",
    "TrialRecord",
    "ZetaEstimate",
    "adjoint",
    "as_matrix",
    "bound_main1",
    "bound_main3",
    "bound_main4",
    "bound_main11",
    "bound_main11_young",
    "bound_product_xy",
    "bound_sum_norm",
    "bound_th1",
    "conjugate_exponent",
    "counterexample_suite",
    "default_config",
    "derive",
    "embed_block",
    "embed_offdiag",
    "omega",
    "omega_many",
    "omega_p",
    "omega_p_bruteforce",
    "power_pair",
    "pow_of_pair",
    "refined_young",
    "report_to_csv",
    "report_to_json",
    "run_campaign",
    "sample",
    "spectral_norm",
    "validate_pair",
]
