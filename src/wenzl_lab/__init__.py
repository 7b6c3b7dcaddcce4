"""Numerical Jones-Wenzl calculus for free orthogonal quantum groups.

Subpackages build on each other in this order: qnum (scalar quantum
arithmetic), tensor_core (dense operators and the dimension cap), jones_wenzl
(projections and irrep bases), vertex (equivariant isometries
in leg coordinates), entangle (Schmidt analysis and witnesses),
channel (equivariant quantum channels and Choi diagnostics), cli.
"""

from __future__ import annotations

from .channel import (
    ChannelNormReport,
    ChoiReport,
    EquivariantChannel,
    MoeBracket,
    TRACE_FIRST,
    TRACE_LAST,
    channel,
    channel_apply,
    channel_norm_report,
    choi_witness_value,
    d_positivity_threshold,
    moe_bracket,
    von_neumann_entropy,
)
from .entangle import (
    EntropyDimTradeoff,
    HigherRankReport,
    MaxSchmidtResult,
    RdCertificate,
    SaturationReport,
    SaturationWitness,
    SchmidtReport,
    SeparabilityWitness,
    entropy_dim_tradeoff,
    higher_rank_value,
    max_schmidt_optimizer,
    rd_certificate,
    saturation_witness,
    schmidt_spectrum,
    separability_witness_highest_weight,
    verify_saturation,
    witness_image,
    witness_family_size,
)
from .errors import DimensionCapError, InvariantViolation, WenzlLabError
from .jones_wenzl import (
    IrrepBasis,
    JwProjection,
    JwVerification,
    jw_projection,
    onb_of_irrep,
    verify_jw,
)
from .qnum import (
    AdmissibleTriple,
    QParams,
    admissible_triples,
    dim_irrep,
    lambda_log,
    log_dim,
    q_factorial_log,
    q_int,
    quantum_parameter,
    rd_bound,
    rd_constant,
    theta_bound_ratio,
    theta_net,
    theta_net_log,
)
from .tensor_core import (
    DEFAULT_DIM_CAP,
    TensorOperator,
    TensorShape,
    reversal_permutation,
)
from .vertex import (
    EquivariantIsometry,
    isometry,
    verify_equivariance_proxy,
)

__version__ = "0.1.0"
