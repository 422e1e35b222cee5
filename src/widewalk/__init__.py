"""Wide replacement-product walks: explicit expanders, exact walk
verification, and bias amplification of binary linear codes."""

import os

# read by OpenBLAS when numpy loads it: idle workers busy-wait 2**value cycles
# for work (default 2**28, about 0.13 s of CPU a process); 4 is the floor
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .amplify import (
    DpTable,
    Moments,
    SignedFn,
    check_base_case,
    check_bias_reduction_lemma,
    check_first_step_trick,
    check_induction_step,
    check_middle_start_identity,
    check_pure_walk_bounds,
    check_weighted_walk_bounds,
    dp_backwards,
    dp_gk,
    moments,
    verify_induction_arithmetic,
)
from .code import (
    AmplifiedCode,
    BaseCodeSearchFailed,
    LinearCode,
    code_bias,
    code_report,
    encode,
    gen_base_code,
)
from .graphs import (
    CayleyGraph,
    SpectralReport,
    build_aghp,
    build_complete_selfloop,
    mixing_check,
    spectrum,
)
from .hitting import (
    HittingInstance,
    check_hitting,
    hitting_bound,
    hitting_prob_exact,
)
from .walks import (
    BudgetExceeded,
    DistributionCheck,
    ReplacementSystem,
    SWalk,
    WalkParams,
    check_first_coord_uniform,
    check_local_invertibility,
    check_pseudorandomness,
    middle_start_distribution_equal,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifiedCode",
    "BaseCodeSearchFailed",
    "BudgetExceeded",
    "CayleyGraph",
    "DistributionCheck",
    "DpTable",
    "HittingInstance",
    "LinearCode",
    "Moments",
    "ReplacementSystem",
    "SWalk",
    "SignedFn",
    "SpectralReport",
    "WalkParams",
    "build_aghp",
    "build_complete_selfloop",
    "check_base_case",
    "check_bias_reduction_lemma",
    "check_first_coord_uniform",
    "check_first_step_trick",
    "check_hitting",
    "check_induction_step",
    "check_local_invertibility",
    "check_middle_start_identity",
    "check_pseudorandomness",
    "check_pure_walk_bounds",
    "check_weighted_walk_bounds",
    "code_bias",
    "code_report",
    "dp_backwards",
    "dp_gk",
    "encode",
    "gen_base_code",
    "hitting_bound",
    "hitting_prob_exact",
    "middle_start_distribution_equal",
    "mixing_check",
    "moments",
    "spectrum",
    "verify_induction_arithmetic",
]
