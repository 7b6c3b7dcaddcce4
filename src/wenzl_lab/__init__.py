"""Numerical Jones-Wenzl calculus for free orthogonal quantum groups.

Modules build on each other in this order: errors (exception types and
the dimension cap), qnum (scalar quantum arithmetic), jones_wenzl
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
)
from .entangle import (
    MaxSchmidtResult,
    RdCertificate,
    SaturationReport,
    SaturationWitness,
    SchmidtReport,
    max_schmidt_optimizer,
    rd_certificate,
    saturation_witness,
    schmidt_spectrum,
    verify_saturation,
    witness_image,
    witness_family_size,
)
from .errors import DEFAULT_DIM_CAP, DimensionCapError, InvariantViolation, WenzlLabError
from .jones_wenzl import (
    IrrepBasis,
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
    q_int,
    quantum_parameter,
    rd_bound,
    rd_constant,
    theta_net_log,
)
from .vertex import (
    EquivariantIsometry,
    isometry,
    reversal_permutation,
)

__version__ = "0.1.0"
