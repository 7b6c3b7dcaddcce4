"""Complementary quantum channels of the equivariant isometries.

Each admissible triple (k, l, m) yields a pair of CPTP maps obtained by
conjugating a state with the isometry alpha: H_k -> H_l (x) H_m and
tracing out either tensor factor.  This module computes those channels,
their S1 -> Sinf norms, minimum-output-entropy brackets, and the
Choi-matrix machinery that turns the same isometry into d-positive but
not completely positive maps.

Everything runs on alpha's leg coordinates (`EquivariantIsometry.legs`).
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
    _check_count,
    _entropy_from_lambdas,
    max_schmidt_optimizer,
    saturation_witness,
    schmidt_spectrum,
    witness_image,
)
from .errors import DEFAULT_DIM_CAP, InvariantViolation
from .qnum import AdmissibleTriple, QParams, lambda_log, rd_bound
from .vertex import EquivariantIsometry, isometry

# Input states are rejected when their smallest eigenvalue drops below
# -INPUT_PSD_TOL or their trace strays from 1 by more than it; outputs
# must hold trace to the tighter OUTPUT_TRACE_TOL.
INPUT_PSD_TOL = 1e-8
OUTPUT_TRACE_TOL = 1e-9
MOE_SLACK = 1e-8
CHOI_SAMPLE_TOL = 1e-6

TRACE_FIRST = "trace-first-l"
TRACE_LAST = "trace-last-m"
_DIRECTIONS = (TRACE_FIRST, TRACE_LAST)


@dataclass(frozen=True)
class EquivariantChannel:
    """One half of the complementary pair attached to alpha_k^{l,m}.

    direction "trace-first-l" traces out H_l and outputs on H_m;
    "trace-last-m" traces out H_m and outputs on H_l.
    """

    triple: AdmissibleTriple
    direction: str
    iso: EquivariantIsometry
    max_dim: int

    @property
    def params(self) -> QParams:
        return self.iso.params

    @property
    def input_dim(self) -> int:
        return self.iso.basis.dim

    @property
    def output_dim(self) -> int:
        kept = self.iso.basis_m if self.direction == TRACE_FIRST else self.iso.basis_l
        return kept.dim


def channel(
    p: QParams,
    t: AdmissibleTriple,
    direction: str = TRACE_FIRST,
    max_dim: int = DEFAULT_DIM_CAP,
) -> EquivariantChannel:
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    return EquivariantChannel(t, direction, isometry(p, t, max_dim=max_dim), max_dim)


def _check_state(rho: np.ndarray, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(rho, dtype=np.float64)
    if arr.shape != (dim, dim):
        raise ValueError(f"{what} must be a {dim} x {dim} matrix, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    if np.max(np.abs(arr - arr.T)) > INPUT_PSD_TOL:
        raise ValueError(f"{what} is not symmetric")
    if abs(np.trace(arr) - 1.0) > INPUT_PSD_TOL:
        raise ValueError(f"{what} trace {np.trace(arr):.3e} is not 1")
    return 0.5 * (arr + arr.T)


def _leg_matrices(ch: EquivariantChannel, cols: np.ndarray) -> np.ndarray:
    """alpha applied to coordinate columns, as d_l x d_m matrices stacked on axis 2."""
    return (ch.iso.legs @ cols).reshape(ch.iso.basis_l.dim, ch.iso.basis_m.dim, -1)


def channel_apply(ch: EquivariantChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a state in IrrepBasis coordinates of H_k.

    The output is in IrrepBasis coordinates of the kept factor, so it is
    output_dim square.  Conjugation by alpha and the partial trace are
    fused: rho is eigendecomposed (it is at most [k+1]_q square), each
    eigenvector is pushed through alpha, and the kept-factor Gram matrix
    is accumulated with the eigenvalue weights.
    """
    arr = _check_state(rho, ch.input_dim, "input state")
    w, u = np.linalg.eigh(arr)
    if w[0] < -INPUT_PSD_TOL:
        raise ValueError(f"input state has negative eigenvalue {w[0]:.3e}")
    stack = _leg_matrices(ch, u * np.sqrt(np.clip(w, 0.0, None)))
    if ch.direction == TRACE_FIRST:
        out = np.einsum("abj,acj->bc", stack, stack)
    else:
        out = np.einsum("baj,caj->bc", stack, stack)
    out = 0.5 * (out + out.T)
    if abs(np.trace(out) - 1.0) > OUTPUT_TRACE_TOL:
        raise InvariantViolation(
            f"channel output trace {np.trace(out):.12e} drifted from 1"
        )
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
    ch: EquivariantChannel, restarts: int = 20, seed: int = 0, tol: float = 1e-12
) -> ChannelNormReport:
    p, t = ch.params, ch.triple
    res = max_schmidt_optimizer(
        p, t, restarts=restarts, tol=tol, seed=seed, max_dim=ch.max_dim
    )
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

    lower = log(theta/[k+1]) is the provable floor; upper is the best
    (smallest) sampled output entropy; coarse_lower = -log(C^2 q^r), from
    `rd_bound`, is the weaker closed-form floor.  Whether lower = MOE
    exactly is open, so the two ends are reported, never equated.
    """

    triple: AdmissibleTriple
    direction: str
    lower: float
    upper: float
    coarse_lower: float
    witness_entropy: float
    optimizer_entropy: float
    sampled_entropy: float
    argmin: str
    samples: int


def moe_bracket(
    ch: EquivariantChannel,
    samples: int = 200,
    restarts: int = 20,
    seed: int = 0,
    tol: float = 1e-12,
) -> MoeBracket:
    """Bracket the minimum output entropy of the channel.

    The upper estimate minimizes over three candidate families: the
    deterministic alternating-word witness (the best known minimizer,
    and exactly separable on highest-weight triples), the argmax of the
    Schmidt optimizer, and `samples` Haar-ish random pure inputs.
    """
    _check_count("samples", samples, 1)
    _check_count("seed", seed, 0)
    p, t = ch.params, ch.triple
    lower = -lambda_log(p, t)
    coarse_lower = -math.log(rd_bound(p, t)[1])
    dim_k = ch.input_dim

    witness_entropy = schmidt_spectrum(witness_image(ch.iso)).entropy

    res = max_schmidt_optimizer(
        p, t, restarts=restarts, tol=tol, seed=seed, max_dim=ch.max_dim
    )
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((samples, dim_k))
    # column 0 is the optimizer's argmax, the rest are the random inputs
    cols = np.column_stack([res.xi, draws.T])
    cols /= np.linalg.norm(cols, axis=0)
    stack = np.moveaxis(_leg_matrices(ch, cols), 2, 0)
    svals = np.linalg.svd(stack, compute_uv=False)
    entropies = [_entropy_from_lambdas(row * row) for row in svals]
    optimizer_entropy = entropies[0]
    sampled_entropy = float(np.min(entropies[1:]))

    entries = [
        ("saturation-witness", witness_entropy),
        ("optimizer-argmax", optimizer_entropy),
        ("random-sample", sampled_entropy),
    ]
    argmin, upper = min(entries, key=lambda item: item[1])
    if lower > upper + MOE_SLACK:
        raise InvariantViolation(
            f"MOE floor {lower:.12e} exceeds sampled upper {upper:.12e} on {t}"
        )
    if lower < coarse_lower - MOE_SLACK:
        raise InvariantViolation(
            f"MOE floor {lower:.12e} fell below coarse floor {coarse_lower:.12e}"
        )
    return MoeBracket(
        triple=t,
        direction=ch.direction,
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
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"Schmidt-rank parameter d must be a positive integer, got {d}")
    return math.exp(-lambda_log(p, t)) / d


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
    pulled = legs.T @ x
    return float(x @ x) - scale * float(pulled @ pulled)


def _witness_pairs(
    iso: EquivariantIsometry, d: int, max_dim: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """First d orthonormal witness pairs in leg coordinates, one pair per
    row of the two returned arrays: index family, then plateau pairs.

    Pairs beyond the family come from the Schmidt plateau of the image
    of the alternating word, after deflating the family block; the two
    sides stay orthonormal, so the combined vector has Schmidt rank d.
    """
    p, t = iso.params, iso.triple
    wit = saturation_witness(p, t, max_dim=max_dim)
    etas, zetas = wit.eta_family[:d], wit.zeta_family[:d]
    if d <= wit.family_size:
        return etas, zetas, wit.family_size

    root = math.exp(0.5 * lambda_log(p, t))
    mat = witness_image(iso) - root * (etas.T @ zetas)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    extra = int(np.sum(np.abs(s - root) <= PLATEAU_RTOL * root + 1e-12))
    available = wit.family_size + extra
    if d > available:
        raise ValueError(
            f"d = {d} exceeds the witness supply on {t}: index family size "
            f"(N-2)(N-1)^(r-1) = {wit.family_size}, observed plateau {available}"
        )
    more = d - wit.family_size
    return np.vstack([etas, u[:, :more].T]), np.vstack([zetas, vt[:more]]), wit.family_size


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
    _check_count("samples", samples, 1)
    _check_count("seed", seed, 0)
    if not math.isfinite(scale):
        raise ValueError(f"scale must be a finite number, got {scale}")
    threshold = d_positivity_threshold(p, t, d)
    if t.r < 1:
        raise ValueError(
            f"triple {t} is highest weight: the Choi witness needs r >= 1"
        )
    iso = isometry(p, t, max_dim=max_dim)
    etas, zetas, family_size = _witness_pairs(iso, d, max_dim)
    x = (etas.T @ zetas).ravel()
    witness_value = _choi_qform(iso.legs, scale, x)
    predicted = d * (1.0 - scale * d * math.exp(lambda_log(p, t)))

    d_l, d_m = iso.basis_l.dim, iso.basis_m.dim
    rank = min(d, d_l, d_m)
    sampled_min = math.inf
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        qu, _ = np.linalg.qr(rng.standard_normal((d_l, rank)))
        qv, _ = np.linalg.qr(rng.standard_normal((d_m, rank)))
        weights = rng.standard_normal(rank)
        weights /= np.linalg.norm(weights)
        sample = ((qu * weights) @ qv.T).ravel()
        sampled_min = min(sampled_min, _choi_qform(iso.legs, scale, sample))
    if scale <= threshold and sampled_min < -CHOI_SAMPLE_TOL:
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
        family_size=family_size,
        witness_rank=len(etas),
    )


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum lambda log lambda over the spectrum, with 0 log 0 = 0."""
    arr = np.asarray(rho, dtype=np.float64)
    w = np.linalg.eigvalsh(_check_state(arr, arr.shape[0] if arr.ndim else 0, "state"))
    if w[0] < -INPUT_PSD_TOL:
        raise ValueError(f"state has negative eigenvalue {w[0]:.3e}")
    return _entropy_from_lambdas(np.clip(w, 0.0, None))
