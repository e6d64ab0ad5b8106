"""Finite-size secret-key-rate bounds for BPSK/QPSK CV-QKD on a lossy line.

The package computes Petz-Rényi, sandwiched Rényi and von Neumann
conditional entropies of the eavesdropper's ensemble under a passive
pure-loss attack, combines them into three finite-size key-rate estimators
and optimizes those over the modulation amplitude and the Rényi order.
"""

from .entropies import (
    BpskClosedFormInputs,
    ContinuityTerms,
    ConvergenceWarning,
    EntropyReport,
    bpsk_closed_forms,
    continuity_bound,
    continuity_terms,
    entropy_report,
    entropy_variance_cq,
    petz_down_cq,
    petz_down_general,
    petz_up_cq,
    petz_up_general,
    sandwiched_down_cq,
    sandwiched_down_general,
    sandwiched_up_general,
    sandwiched_up_invariant,
    von_neumann_cq,
)
from .linalg import (
    Spectrum,
    eig,
    matrix_log2,
    matrix_power,
    partial_trace,
    random_pure_tripartite,
)
from .oracles import (
    DualityReport,
    McConfig,
    McReport,
    duality_suite,
    erf_oracle,
    sample_heterodyne_qpsk,
    sample_homodyne_bpsk,
)
from .rates import (
    RateResult,
    SecurityParams,
    delta_eps,
    g_eps,
    leak,
    optimize_rate,
    rate_aep,
    rate_b,
    rate_s,
)
from .states import (
    CQEnsemble,
    ProtocolParams,
    build_ensemble,
    cond_prob_table,
)

__version__ = "0.1.0"
