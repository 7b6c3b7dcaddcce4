"""Complementary quantum channels of the equivariant isometries.

Each admissible triple (k, l, m) yields a pair of CPTP maps obtained by
conjugating a state with the isometry alpha: H_k -> H_l (x) H_m and
tracing out either tensor factor.  This module computes those channels,
their S1 -> Sinf norms, minimum-output-entropy brackets, and the
Choi-matrix machinery that turns the same isometry into d-positive but
not completely positive maps.

Every function that reads alpha takes the triple as (p, t, ..., max_dim)
and reads alpha only through `vertex.isometry`, in leg coordinates
(`EquivariantIsometry.legs`).  The trace direction is an argument of
`channel_apply` alone: a complementary pair has equal nonzero output
spectra on pure inputs, so it shares the S1 -> Sinf norm and the MOE.
Input states live in IrrepBasis coordinates of H_k (dimension [k+1]_q)
and outputs in those of the kept factor H_l or H_m (d_l or d_m), where
the identity on H_l (x) H_m is the identity matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entangle import (
    PLATEAU_RTOL,
    _blas_threads,
    _entropies,
    _finite,
    _image_spectra,
    _pushed,
    max_schmidt_optimizer,
    schmidt_spectrum,
    witness_family,
    witness_family_size,
    witness_image,
)
from .errors import DEFAULT_DIM_CAP, InvariantViolation, _check_int, _check_real, _check_real_array
from .qnum import AdmissibleTriple, QParams, lambda_log, rd_bound
from .vertex import EquivariantIsometry, isometry

__all__ = [
    "TRACE_FIRST", "TRACE_LAST", "channel_apply", "ChannelNormReport", "channel_norm_report",
    "MoeBracket", "moe_bracket", "d_positivity_threshold", "ChoiReport", "choi_witness_value",
]

# Input states are rejected when their smallest eigenvalue drops below
# -INPUT_PSD_TOL or their trace strays from 1 by more than it; alpha is an
# isometry, so outputs must hold the input's trace to the tighter OUTPUT_TRACE_TOL.
INPUT_PSD_TOL = 1e-8
OUTPUT_TRACE_TOL = 1e-9
MOE_SLACK = 1e-8
CHOI_SAMPLE_TOL = 1e-6

TRACE_FIRST = "trace-first-l"
TRACE_LAST = "trace-last-m"
_DIRECTIONS = (TRACE_FIRST, TRACE_LAST)


def _check_state(rho: np.ndarray, dim: int, what: str) -> np.ndarray:
    arr = _check_real_array(what, rho)
    if arr.shape != (dim, dim):
        raise ValueError(f"{what} must be a {dim} x {dim} matrix, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    if np.max(np.abs(arr - arr.T)) > INPUT_PSD_TOL:
        raise ValueError(f"{what} is not symmetric")
    if abs(np.trace(arr) - 1.0) > INPUT_PSD_TOL:
        raise ValueError(f"{what} trace {np.trace(arr):.3e} is not 1")
    return 0.5 * (arr + arr.T)


def channel_apply(
    p: QParams, t: AdmissibleTriple, rho: np.ndarray, direction: str = TRACE_FIRST,
    max_dim: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """Apply the channel to a state in IrrepBasis coordinates of H_k.

    direction "trace-first-l" traces out H_l and outputs on H_m;
    "trace-last-m" traces out H_m and outputs on H_l.  The output is in
    IrrepBasis coordinates of the kept factor, so it is d_m or d_l square.
    Conjugation by alpha and the partial trace are fused: rho is
    eigendecomposed (it is at most [k+1]_q square), each eigenvector is
    pushed through alpha, and the kept-factor Gram matrix is accumulated
    with the eigenvalue weights, in chunks of `_PUSH_BYTES` of images (bytes,
    not columns; `entangle._pushed`) that agree with one stack to rounding.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    iso = isometry(p, t, max_dim=max_dim)
    arr = _check_state(rho, iso.basis.dim, "input state")
    with _blas_threads(9 * len(arr) ** 3):  # Golub-Van Loan's count for eigh with vectors
        w, u = np.linalg.eigh(arr)
    if w[0] < -INPUT_PSD_TOL:
        raise ValueError(f"input state has negative eigenvalue {w[0]:.3e}")
    u *= np.sqrt(np.clip(w, 0.0, None))
    spec = "jba,jca->bc" if direction == TRACE_LAST else "jab,jac->bc"  # the kept factor's Gram
    out = _pushed(
        iso, len(w), lambda a, b: u[:, a:b], lambda c: np.einsum(spec, *[iso.images(c)] * 2), sum
    )
    out = 0.5 * (out + out.T)
    drift = np.trace(out) - np.trace(arr)
    if not abs(drift) <= OUTPUT_TRACE_TOL:
        raise InvariantViolation(f"channel output trace drifted {drift:.3e} from the input's")
    return out


@dataclass(frozen=True)
class ChannelNormReport:
    """Optimized S1 -> Sinf norm against the closed form and its brackets.

    `bracket_lower_printed` is the often-quoted q^r endpoint; the
    sharp lower endpoint is q^r (1 - q^2) (`bracket_lower_sharp`),
    since 1/[r+1]_q = q^r (1 - q^2)/(1 - q^{2r+2}) < q^r whenever
    r >= 1.  Both memberships are reported so the discrepancy is
    visible rather than silently absorbed.
    """

    triple: AdmissibleTriple
    norm_1_to_inf: float
    closed_form: float
    residual: float
    bracket_lower_printed: float
    bracket_lower_sharp: float
    bracket_upper: float
    in_printed_bracket: bool
    in_sharp_bracket: bool
    converged: bool


def channel_norm_report(
    p: QParams, t: AdmissibleTriple, restarts: int = 20, seed: int = 0, tol: float = 1e-12,
    max_dim: int = DEFAULT_DIM_CAP,
) -> ChannelNormReport:
    res = max_schmidt_optimizer(p, t, restarts=restarts, tol=tol, seed=seed, max_dim=max_dim)
    value = res.value * res.value
    closed, hi = rd_bound(p, t)
    q = p.q
    lo_printed = q ** t.r
    lo_sharp = lo_printed * (1.0 - q * q)
    return ChannelNormReport(
        triple=t,
        norm_1_to_inf=value,
        closed_form=closed,
        residual=value - closed,
        bracket_lower_printed=lo_printed,
        bracket_lower_sharp=lo_sharp,
        bracket_upper=hi,
        in_printed_bracket=lo_printed <= closed <= hi,
        in_sharp_bracket=lo_sharp <= closed <= hi,
        converged=res.converged,
    )


@dataclass(frozen=True)
class MoeBracket:
    """Bracket on the minimum output entropy (natural log).

    lower = log(theta/[k+1]) is the provable floor; upper is the least output
    entropy over the witness, the optimizer's argmax and the samples (argmin
    names which); coarse_lower = -log(C^2 q^r), from `rd_bound`, is the weaker
    closed-form floor.  Whether lower = MOE is open, so they are never equated.
    """

    triple: AdmissibleTriple
    lower: float
    upper: float
    coarse_lower: float
    witness_entropy: float
    optimizer_entropy: float
    sampled_entropy: float
    argmin: str
    samples: int


def moe_bracket(
    p: QParams, t: AdmissibleTriple, samples: int = 200, restarts: int = 20, seed: int = 0,
    tol: float = 1e-12, max_dim: int = DEFAULT_DIM_CAP,
) -> MoeBracket:
    """Bracket the minimum output entropy of the channel.

    The upper estimate minimizes over three candidate families: the
    deterministic alternating-word witness (the best known minimizer,
    and exactly separable on highest-weight triples), the argmax of the
    Schmidt optimizer, and `samples` Haar-ish random pure inputs.  An
    input's output state has the nonzero spectrum of its image's Gram on
    either side, so the argmax's and the samples' spectra come from
    eigvalsh stacks on the smaller side (`entangle._image_spectra`), drawn,
    normalized and pushed by `entangle._pushed` in chunks of `_PUSH_BYTES` of
    images (bytes, not columns), so memory does not grow with `samples`;
    chunks agree with one stack to rounding.  The witness's come from
    `schmidt_spectrum`'s SVD, and must: over the 124 acceptance triples,
    moving it into the Gram stack raises the highest-weight witness entropy
    from at most 8.9e-29 to 7.6e-14 and flips `argmin` on 4 channels whose
    candidates tie exactly.  All three entropies come from
    `entangle._entropies`, with rounding's negative eigenvalues read as 0.
    The optimizer's sweeps and the sampled chunks run in
    `jones_wenzl._blas_threads`, reached through `entangle`.
    """
    samples, seed = _check_int("samples", samples, 1), _check_int("seed", seed, 0)
    iso = isometry(p, t, max_dim=max_dim)
    lower = 0.0 - lambda_log(p, t)  # 0.0, not -0.0, at r = 0
    coarse_lower = -math.log(rd_bound(p, t)[1])

    witness_entropy = schmidt_spectrum(witness_image(iso)).entropy

    res = max_schmidt_optimizer(p, t, restarts=restarts, tol=tol, seed=seed, max_dim=max_dim)
    rng = np.random.default_rng(seed)

    def inputs(start: int, stop: int) -> np.ndarray:  # column 0 is the optimizer's argmax
        draws = rng.standard_normal((stop - max(start, 1), iso.basis.dim))  # rows of one stream
        return np.column_stack([res.xi] * (start == 0) + [draws.T])

    entropies = np.concatenate(
        _pushed(iso, samples + 1, inputs, lambda cols: _entropies(_image_spectra(iso, cols)))
    )
    optimizer_entropy = float(entropies[0])
    sampled_entropy = float(entropies[1:].min())

    entries = [
        ("saturation-witness", witness_entropy),
        ("optimizer-argmax", optimizer_entropy),
        ("random-sample", sampled_entropy),
    ]
    argmin, upper = min(entries, key=lambda item: item[1])
    if not lower <= upper + MOE_SLACK:
        raise InvariantViolation(
            f"MOE floor {lower:.12e} exceeds sampled upper {upper:.12e} on {t}"
        )
    return MoeBracket(
        triple=t,
        lower=lower,
        upper=upper,
        coarse_lower=coarse_lower,
        witness_entropy=witness_entropy,
        optimizer_entropy=optimizer_entropy,
        sampled_entropy=sampled_entropy,
        argmin=argmin,
        samples=samples,
    )


def d_positivity_threshold(p: QParams, t: AdmissibleTriple, d: int) -> float:
    """theta_q(k,l,m) / (d [k+1]_q): the largest scale kept d-positive."""
    return math.exp(-lambda_log(p, t)) / _check_int("d", d, 1)


@dataclass(frozen=True)
class ChoiReport:
    """Quadratic form of the Choi matrix at the rank-d witness.

    predicted_value is the closed form d (1 - scale * d [k+1]/theta):
    exact whenever the witness is drawn purely from the index family
    (d <= family_size); plateau extensions beyond the family report the
    honestly computed form value (always <= the prediction suffices to
    refute d-positivity above the threshold).
    """

    triple: AdmissibleTriple
    scale: float
    d: int
    threshold: float
    witness_value: float
    predicted_value: float
    sampled_min: float
    family_size: int
    witness_rank: int


def _choi_qform(legs: np.ndarray, scale: float, x: np.ndarray) -> float:
    """<x|(1 - scale alpha alpha^*) x> for x in leg coordinates."""
    pulled = _finite(legs.T @ x, "alpha^* x in the Choi form")
    return float(x @ x) - scale * float(pulled @ pulled)


def _witness_pairs(iso: EquivariantIsometry, d: int) -> tuple[np.ndarray, np.ndarray]:
    """First d orthonormal witness pairs in leg coordinates, one pair per
    row of the two returned arrays: index family, then plateau pairs.

    Pairs beyond the family come from the Schmidt plateau of the image
    of the alternating word, after deflating the family block; the two
    sides stay orthonormal, so the combined vector has Schmidt rank d.
    """
    etas, zetas = witness_family(iso)
    size = len(etas)
    if d <= size:
        return etas[:d], zetas[:d]

    root = iso.scale
    mat = witness_image(iso) - root * (etas.T @ zetas)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    extra = int(np.sum(np.abs(s - root) <= PLATEAU_RTOL * root + 1e-12))
    if d > size + extra:
        raise ValueError(
            f"d = {d} exceeds the witness supply on {iso.triple}: index family size "
            f"(N-2)(N-1)^(r-1) = {size}, observed plateau {size + extra}"
        )
    more = d - size
    return np.vstack([etas, u[:, :more].T]), np.vstack([zetas, vt[:more]])


def choi_witness_value(
    p: QParams,
    t: AdmissibleTriple,
    d: int,
    scale: float,
    samples: int = 200,
    seed: int = 0,
    max_dim: int = DEFAULT_DIM_CAP,
) -> ChoiReport:
    """Evaluate <C x|x> at the rank-d witness and over random rank-<=d inputs.

    The witness is decisive above the threshold (the form value goes
    negative); the random sampling is a falsification attempt below it,
    never a proof of positivity.
    """
    samples, seed = _check_int("samples", samples, 1), _check_int("seed", seed, 0)
    scale = _check_real("scale", scale, "a finite number", -math.inf, math.inf)
    threshold = d_positivity_threshold(p, t, d)
    iso = isometry(p, t, max_dim=max_dim)
    etas, zetas = _witness_pairs(iso, d)
    x = (etas.T @ zetas).ravel()
    witness_value = _choi_qform(iso.legs, scale, x)
    predicted = d * (1.0 - scale * d * math.exp(lambda_log(p, t)))

    d_l, d_m = iso.basis_l.dim, iso.basis_m.dim
    rank = min(d, d_l, d_m)
    sampled_min = math.inf
    for i in range(samples):  # child i of SeedSequence(seed).spawn, built one at a time
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        qu, _ = np.linalg.qr(rng.standard_normal((d_l, rank)))
        qv, _ = np.linalg.qr(rng.standard_normal((d_m, rank)))
        weights = rng.standard_normal(rank)
        weights /= np.linalg.norm(weights)
        sample = ((qu * weights) @ qv.T).ravel()
        sampled_min = min(sampled_min, _choi_qform(iso.legs, scale, sample))
    if not all(map(math.isfinite, (witness_value, predicted, sampled_min))):
        raise ValueError(f"scale {scale} overflows the Choi form on {t}")
    if scale <= threshold and not sampled_min >= -CHOI_SAMPLE_TOL:
        raise InvariantViolation(
            f"random rank-{d} input drove <Cx|x> to {sampled_min:.3e} at scale "
            f"{scale} <= threshold {threshold}: d-positivity contradicted"
        )
    return ChoiReport(
        triple=t,
        scale=scale,
        d=int(d),
        threshold=threshold,
        witness_value=witness_value,
        predicted_value=predicted,
        sampled_min=sampled_min,
        family_size=witness_family_size(p, t),
        witness_rank=len(etas),
    )
