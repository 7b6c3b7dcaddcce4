"""Schmidt analysis of the embedded subspaces alpha(H_k) in H_l (x) H_m.

Everything here revolves around one scalar: the largest squared Schmidt
coefficient lambda_1 of alpha(xi) over unit xi in H_k.  Its exact
supremum is [k+1]_q/theta_q(k,l,m), certified from above by the
rapid-decay bound and attained on the alternating-word witness family,
whose top Schmidt values form a flat plateau of size
|A| = (N-2)(N-1)^{r-1}.

Every step works on alpha's leg coordinates (`EquivariantIsometry.legs`),
where H_l and H_m are R^{d_l} and R^{d_m} and Schmidt spectra across
the l|m cut are singular values of d_l x d_m matrices.  The optimizer
that attains the supremum is a power iteration on the 3-tensor alpha
that applies alpha and alpha^* through their factors B_k, B_l, B_m and
the cup, never through the dense d_l d_m x [k+1]_q `legs`.  alpha(H_k)
is one summand of H_l (x) H_m = (+)_r H_{l+m-2r}, so near highest
weight, where it fills almost all of H_l (x) H_m, the iteration instead
projects onto it as 1 - C C^T over the other summands.  Witness words
enter as rows of the irrep bases at their flat indices, and every
result vector is returned in irrep-basis coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_DIM_CAP, InvariantViolation
from .jones_wenzl import onb_of_irrep
from .qnum import (
    AdmissibleTriple,
    QParams,
    admissible_triples,
    dim_irrep,
    lambda_log,
    log_dim,
    rd_bound,
)
from .vertex import EquivariantIsometry, _cup_gather, isometry

__all__ = [
    "SchmidtReport",
    "RdCertificate",
    "MaxSchmidtResult",
    "SaturationWitness",
    "SaturationReport",
    "HigherRankReport",
    "SeparabilityWitness",
    "EntropyDimTradeoff",
    "schmidt_spectrum",
    "rd_certificate",
    "max_schmidt_optimizer",
    "witness_family_size",
    "witness_image",
    "saturation_witness",
    "verify_saturation",
    "higher_rank_value",
    "separability_witness_highest_weight",
    "entropy_dim_tradeoff",
]

RANK_TOL = 1e-8
PLATEAU_RTOL = 1e-8
PLATEAU_GAP = 1e-10
WITNESS_FIX_TOL = 1e-9
SIDE_AGREEMENT_TOL = 1e-9


def _entropy_from_lambdas(lambdas: np.ndarray) -> float:
    """Entropy (natural log) of a nonnegative spectrum, normalized to sum 1."""
    total = float(lambdas.sum())
    probs = lambdas[lambdas > 0.0] / total
    return float(-(probs * np.log(probs)).sum())


@dataclass(frozen=True)
class SchmidtReport:
    """Squared Schmidt coefficients (descending) across one bipartite cut."""

    coefficients: np.ndarray
    entropy: float
    max: float
    numerical_rank: int


def schmidt_spectrum(mat: np.ndarray) -> SchmidtReport:
    """Schmidt data of a bipartite vector given as its d_l x d_m matrix.

    Coefficients are squared singular values and sum to ||mat||_F^2; the
    entropy is computed on the normalized spectrum, natural log.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"Schmidt spectrum needs a matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("Schmidt spectrum needs finite entries")
    if float(np.einsum("ij,ij->", mat, mat)) <= 1e-300:
        raise ValueError("Schmidt spectrum of the zero vector is undefined")
    sigma = np.linalg.svd(mat, compute_uv=False)
    lambdas = sigma * sigma
    rank = int(np.count_nonzero(lambdas > RANK_TOL * lambdas[0]))
    return SchmidtReport(
        coefficients=lambdas,
        entropy=_entropy_from_lambdas(lambdas),
        max=float(lambdas[0]),
        numerical_rank=rank,
    )


# ---------------------------------------------------------------------------
# rapid-decay certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RdCertificate:
    """Sampled check that lambda_1 never exceeds the exact bound [k+1]/theta."""

    triple: AdmissibleTriple
    samples: int
    max_observed: float
    bound_exact: float
    bound_coarse: float
    violated: bool


def _check_count(name: str, value: object, least: int) -> None:
    """ValueError unless value is an integer (a bool is not) and at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def rd_certificate(
    p: QParams,
    t: AdmissibleTriple,
    samples: int = 200,
    seed: int = 0,
    max_dim: int = DEFAULT_DIM_CAP,
) -> RdCertificate:
    """Push Haar-random unit vectors of H_k through alpha and record lambda_1.

    Sampling is a falsification attempt on the closed-form bound, not a
    proof; `violated` reports whether any sample beat bound_exact + 1e-8.
    samples (at least 1) and seed (at least 0) must be integers, else
    ValueError.
    """
    _check_count("samples", samples, 1)
    _check_count("seed", seed, 0)
    iso = isometry(p, t, max_dim=max_dim)
    d = iso.legs.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal((d, samples))
    x /= np.linalg.norm(x, axis=0)
    images = iso.legs @ x  # leg coordinates, one column per sample
    stack = images.T.reshape(samples, iso.basis_l.dim, iso.basis_m.dim)
    sigma = np.linalg.svd(stack, compute_uv=False)
    max_observed = float((sigma[:, 0] ** 2).max())
    exact, coarse = rd_bound(p, t)
    return RdCertificate(
        triple=t,
        samples=samples,
        max_observed=max_observed,
        bound_exact=exact,
        bound_coarse=coarse,
        violated=bool(max_observed > exact + 1e-8),
    )


# ---------------------------------------------------------------------------
# maximal-Schmidt optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxSchmidtResult:
    """Best value of sup |<alpha(xi)|eta (x) zeta>| found over all restarts.

    `converged` and `sweeps` belong to the winning restart;
    `restart_sweeps`, `restart_converged` and `restart_values` (the last
    objective) record every restart, in restart order, so a losing
    restart that never converged is visible.  xi, eta and zeta are unit
    vectors in IrrepBasis coordinates of H_k, H_l and H_m.
    """

    value: float
    xi: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray
    converged: bool
    sweeps: int
    restart_sweeps: tuple[int, ...]
    restart_converged: tuple[bool, ...]
    restart_values: tuple[float, ...]


def _unit_rows(
    rows: np.ndarray,
    rngs: list[np.random.Generator],
    live: np.ndarray | range,
    norms: np.ndarray | None = None,
) -> np.ndarray:
    """Divide each row by its norm (given, or computed here) in place.

    Row j of norm below 1e-300 is first redrawn from rngs[live[j]], the
    generator of the restart it belongs to.
    """
    if norms is None:
        norms = np.linalg.norm(rows, axis=1)
    if norms.min() < 1e-300:
        norms = norms.copy()
        for j in np.flatnonzero(norms < 1e-300):
            rows[j] = rngs[live[j]].standard_normal(rows.shape[1])
            norms[j] = np.linalg.norm(rows[j])
    rows /= norms[:, None]
    return rows


def _alpha_sweep(ops, xi: np.ndarray, cz: np.ndarray, unit):
    """One sweep through alpha's factors, for rows of unit xi and cz = G zeta.

    ops = (s B_k, B_l, G) with G the cup gather of B_m
    (`vertex._cup_gather`, N^r x N^{m-r} x d_m).  With
    g = (s B_k xi)_{N^{l-r} x N^{m-r}}, the leg matrix alpha(xi) is never
    formed: eta <- B_l^T vec(g cz^T), zeta <- G^T vec((B_l eta)^T g), and
    xi <- alpha^*(eta (x) zeta) = s B_k^T vec((B_l eta) (G zeta)).
    Returns eta, zeta, that xi unnormalized, and the new G zeta.
    """
    sbk, bl, cup = ops
    rows, (i, b, dm) = xi.shape[0], cup.shape
    gather = cup.reshape(i * b, dm)
    g = (xi @ sbk.T).reshape(rows, -1, b)
    eta = unit((g @ cz.transpose(0, 2, 1)).reshape(rows, -1) @ bl)
    left = (eta @ bl.T).reshape(rows, -1, i)
    zeta = unit((left.transpose(0, 2, 1) @ g).reshape(rows, -1) @ gather)
    cz = (zeta @ gather.T).reshape(rows, i, b)
    return eta, zeta, (left @ cz).reshape(rows, -1) @ sbk, cz


def _complement_sweep(ops, img: np.ndarray, zeta: np.ndarray, unit):
    """One sweep through the complement, for rows of unit img = alpha(xi) in leg coordinates.

    ops = (C, d_l).  eta <- M zeta and zeta <- M^T eta with M = img as a
    d_l x d_m matrix, then img <- (1 - C C^T)(eta (x) zeta).  Returns
    eta, zeta, that img unnormalized, and zeta.
    """
    comp, dl = ops
    mats = img.reshape(img.shape[0], dl, -1)
    eta = unit((mats @ zeta[:, :, None])[:, :, 0])
    zeta = unit((eta[:, None, :] @ mats)[:, 0, :])
    outer = (eta[:, :, None] * zeta[:, None, :]).reshape(img.shape[0], -1)
    return eta, zeta, outer - (outer @ comp) @ comp.T, zeta


def _complement_legs(p: QParams, t: AdmissibleTriple, max_dim: int) -> np.ndarray | None:
    """Leg coordinates of every alpha_{k'}, k' != k, side by side, or None
    when the complement has at least as many columns as alpha itself.

    By the fusion rule H_l (x) H_m = (+)_r H_{l+m-2r} their columns are
    orthonormal, span the orthogonal complement of alpha(H_k) and number
    d_l d_m - [k+1]_q; a wrong count or C^T C != I is an InvariantViolation.
    """
    d_l, d_m, d_k = (round(dim_irrep(p, j)) for j in (t.l, t.m, t.k))
    if d_l * d_m - d_k >= d_k:
        return None
    parts = [
        isometry(p, other, max_dim=max_dim).legs
        for other in admissible_triples(t.l, t.m)
        if other.k != t.k
    ]
    comp = np.hstack([np.empty((d_l * d_m, 0)), *parts])
    gram = comp.T @ comp
    gram[np.diag_indices_from(gram)] -= 1.0
    off = float(np.abs(gram).max()) if gram.size else 0.0
    if comp.shape[1] != d_l * d_m - d_k or not off <= SIDE_AGREEMENT_TOL:
        raise InvariantViolation(
            f"fusion rule at {t}: complement has {comp.shape[1]} columns "
            f"(d_l d_m - [k+1] = {d_l * d_m - d_k}) and |C^T C - I| = {off:.3e}"
        )
    return comp


def max_schmidt_optimizer(
    p: QParams,
    t: AdmissibleTriple,
    restarts: int = 20,
    tol: float = 1e-12,
    seed: int = 0,
    max_iters: int = 1000,
    max_dim: int = DEFAULT_DIM_CAP,
) -> MaxSchmidtResult:
    """Alternating power iteration for sup lambda_1^{1/2} = sup |<alpha(xi)|eta (x) zeta>|.

    This is ALS for the best rank-one approximation of the 3-tensor
    alpha.  Each sweep replaces eta by the normalized alpha(xi) zeta, zeta
    by the normalized alpha(xi)^T eta, and xi by the normalized
    alpha^*(eta (x) zeta), whose norm, the objective, is monotone per
    restart.  eta and zeta are coordinates in B_l, B_m, so they stay
    exactly inside H_l, H_m.  Where `legs` is the narrower of the two
    sides of the fusion rule (every r >= 1 triple), alpha is applied
    through its factors B_k, B_l, B_m and the cup (`_alpha_sweep`), and
    no d_l d_m x [k+1]_q product is formed.  Otherwise alpha(xi) is
    carried as its leg matrix and projected as (1 - C C^T)(eta (x) zeta),
    with C the leg coordinates of every other summand alpha_{k'}(H_{k'})
    of H_l (x) H_m (C must be orthonormal with d_l d_m - [k+1]_q columns).

    Every restart draws its Gaussian start from its own generator of a
    split seed, and all restarts advance together as matrix-matrix
    products over the restarts still running.  A contraction of norm
    below 1e-300 is redrawn from its restart's generator: eta or zeta,
    and xi, a [k+1]_q-vector, on the alpha side or alpha(xi), a
    d_l d_m-vector, on the complement side.  A restart leaves the batch
    at the first sweep whose objective moved by at most
    tol * max(1, objective); one that never does reports its last value.
    The best value wins, ties broken by lowest restart index.  The
    winner's xi and the reported value come from one direct product
    with `legs`, which must agree with the iterated value to
    SIDE_AGREEMENT_TOL, else InvariantViolation.  restarts, max_iters
    (at least 1) and seed (at least 0) must be integers, else ValueError.
    """
    _check_count("restarts", restarts, 1)
    _check_count("max_iters", max_iters, 1)
    _check_count("seed", seed, 0)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    iso = isometry(p, t, max_dim=max_dim)
    legs, bl, bm = iso.legs, iso.basis_l.columns, iso.basis_m.columns
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(restarts)]
    sizes = (legs.shape[1], bl.shape[0], bm.shape[0])
    draws = [[rng.standard_normal(size) for size in sizes] for rng in rngs]
    xi, _, zeta = (_unit_rows(np.array(vecs), rngs, range(restarts)) for vecs in zip(*draws))
    zeta = zeta @ bm
    comp = _complement_legs(p, t, max_dim)
    if comp is None:
        cup = _cup_gather(p.n, t, bm)
        step, ops = _alpha_sweep, (iso.scale * iso.basis.columns, bl, cup)
        state = xi
        carry = (zeta @ cup.reshape(-1, cup.shape[2]).T).reshape(restarts, *cup.shape[:2])
    else:
        step, ops = _complement_sweep, (comp, bl.shape[1])
        state, carry = xi @ legs.T, zeta
    value = np.full(restarts, -1.0)  # each restart's last objective
    sweeps = np.full(restarts, max_iters)
    converged = np.zeros(restarts, dtype=bool)
    last_eta = np.empty((restarts, bl.shape[1]))
    last_zeta = np.empty((restarts, bm.shape[1]))
    live = np.arange(restarts)  # restart index of each row still iterating
    prev = np.full(restarts, -1.0)
    for sweep in range(1, max_iters + 1):
        eta, zeta, state, carry = step(ops, state, carry, lambda rows: _unit_rows(rows, rngs, live))
        obj = np.linalg.norm(state, axis=1)
        done = np.abs(obj - prev) <= tol * np.maximum(1.0, obj)
        leave = done | (sweep == max_iters)
        if leave.any():
            out = live[leave]
            value[out], sweeps[out], converged[out] = obj[leave], sweep, done[leave]
            last_eta[out], last_zeta[out] = eta[leave], zeta[leave]
            if leave.all():
                break
            keep = ~leave
            live, obj, state, carry = live[keep], obj[keep], state[keep], carry[keep]
        prev = obj
        state = _unit_rows(state, rngs, live, obj)
    win = int(np.argmax(value))
    eta, zeta = last_eta[win], last_zeta[win]
    raw = np.kron(eta, zeta) @ legs
    direct = float(np.linalg.norm(raw))
    if abs(direct - value[win]) > SIDE_AGREEMENT_TOL:
        raise InvariantViolation(
            f"optimizer at {t}: direct value {direct!r} != iterated value {float(value[win])!r}"
        )
    return MaxSchmidtResult(
        value=direct,
        xi=raw / direct,
        eta=eta,
        zeta=zeta,
        converged=bool(converged[win]),
        sweeps=int(sweeps[win]),
        restart_sweeps=tuple(int(s) for s in sweeps),
        restart_converged=tuple(bool(c) for c in converged),
        restart_values=tuple(float(v) for v in value),
    )


# ---------------------------------------------------------------------------
# saturation witness family
# ---------------------------------------------------------------------------

def _alternating_letters(count: int, first: int = 1, second: int = 2) -> list[int]:
    return [first if s % 2 == 0 else second for s in range(count)]


def _fixed_rows(basis: np.ndarray, n: int, words: list[list[int]]) -> np.ndarray:
    """B^T e_w for each word w of 1-based letters: the rows of the irrep
    basis B at the words' row-major flat indices, leftmost letter slowest.

    Since B B^T = p, ||p e_w - e_w||^2 = 1 - ||B^T e_w||^2, so a word is
    fixed by its Jones-Wenzl projection exactly when its row has unit
    norm; a row off by more than WITNESS_FIX_TOL is a loud error, so a
    wrong reading of the alternation condition cannot slip through.
    """
    letters = np.asarray(words, dtype=np.int64)
    rows = basis[(letters - 1) @ n ** np.arange(letters.shape[1] - 1, -1, -1)]
    off = np.abs(np.linalg.norm(rows, axis=1) - 1.0)
    if off.max() > WITNESS_FIX_TOL:
        worst = int(np.argmax(off))
        raise InvariantViolation(
            f"witness word {words[worst]} is not fixed by its projection "
            f"(row norm off 1 by {off[worst]:.3e})"
        )
    return rows


def witness_family_size(p: QParams, t: AdmissibleTriple) -> int:
    """|A| = (N-2)(N-1)^{r-1}, the size of the witness index family; 0 at r = 0."""
    return (p.n - 2) * (p.n - 1) ** (t.r - 1) if t.r >= 1 else 0


def witness_image(iso: EquivariantIsometry) -> np.ndarray:
    """alpha(xi) for the unit alternating word xi = eta_k(1,2), as its d_l x d_m leg matrix.

    xi enters through its IrrepBasis coordinates, the row of B_k at the
    word's flat index, renormalized so the image has unit norm to rounding.
    """
    coords = _fixed_rows(iso.basis.columns, iso.params.n, [_alternating_letters(iso.triple.k)])[0]
    image = iso.legs @ (coords / np.linalg.norm(coords))
    return image.reshape(iso.basis_l.dim, iso.basis_m.dim)


@dataclass(frozen=True)
class SaturationWitness:
    """The alternating-word input xi and the orthonormal output families.

    All in IrrepBasis coordinates: xi is a vector of H_k, and row i of
    eta_family (|A| x d_l) and of zeta_family (|A| x d_m) are eta_i and
    zeta_i, the product vectors whose span realizes the flat top of the
    Schmidt spectrum of alpha(xi).
    """

    triple: AdmissibleTriple
    xi: np.ndarray
    family_size: int
    eta_family: np.ndarray
    zeta_family: np.ndarray


def _witness_indices(n: int, r: int) -> list[tuple[int, ...]]:
    """A = {i: [r] -> [N] with i(1) >= 3 and i(s) != i(s+1)}, in lexicographic order."""
    return [
        idx
        for idx in itertools.product(range(1, n + 1), repeat=r)
        if idx[0] >= 3 and all(idx[s] != idx[s + 1] for s in range(r - 1))
    ]


def saturation_witness(
    p: QParams, t: AdmissibleTriple, max_dim: int = DEFAULT_DIM_CAP
) -> SaturationWitness:
    """Build xi = eta_k(1,2) and the index family A of Prop-style witnesses.

    Each index i in A yields eta_i = eta_0 (x) e_{i(1)} ... e_{i(r)} and
    the mirrored zeta_i, where eta_0/zeta_0 are the first l-r / last m-r
    letters of xi; each word is read off as a row of B_k, B_l or B_m, and
    every family member must be fixed by its Jones-Wenzl projection.
    """
    if t.r < 1:
        raise ValueError(f"triple {t} is highest weight: no witness family (r = 0)")
    if p.n < 3:
        raise ValueError("witness family needs rank >= 3 (letter i(1) >= 3)")
    n, k, l, m, r = p.n, t.k, t.l, t.m, t.r
    bk, bl, bm = (onb_of_irrep(p, j, max_dim=max_dim).columns for j in (k, l, m))
    word = _alternating_letters(k)
    indices = _witness_indices(n, r)
    want = witness_family_size(p, t)
    if len(indices) != want:
        raise InvariantViolation(
            f"witness family size {len(indices)} != (N-2)(N-1)^(r-1) = {want}"
        )
    etas = _fixed_rows(bl, n, [word[: l - r] + list(idx) for idx in indices])
    zetas = _fixed_rows(bm, n, [list(idx[::-1]) + word[l - r :] for idx in indices])
    return SaturationWitness(t, _fixed_rows(bk, n, [word])[0], want, etas, zetas)


@dataclass(frozen=True)
class SaturationReport:
    """Observed Schmidt plateau of alpha(eta_k(1,2)) against the closed form."""

    triple: AdmissibleTriple
    family_size: int
    lambda_expected: float
    top_values: np.ndarray
    max_rel_err: float
    plateau_ok: bool
    boundary_separated: bool
    observed_plateau_size: int
    mass: float


def verify_saturation(
    p: QParams, t: AdmissibleTriple, max_dim: int = DEFAULT_DIM_CAP
) -> SaturationReport:
    """Check that the top |A| Schmidt values of alpha(xi) all equal [k+1]/theta.

    `boundary_separated` records whether the plateau stops exactly at
    |A|; a larger observed plateau is reported, never asserted away.
    `mass` is |A| [k+1]/theta, the weight the plateau carries.
    """
    wit = saturation_witness(p, t, max_dim=max_dim)
    iso = isometry(p, t, max_dim=max_dim)
    lam = schmidt_spectrum(witness_image(iso)).coefficients
    expected = math.exp(lambda_log(p, t))
    d = wit.family_size
    top = lam[:d]
    max_rel = float(np.abs(top - expected).max() / expected)
    observed = int(np.count_nonzero(lam >= lam[0] - PLATEAU_GAP))
    separated = len(lam) <= d or bool(lam[d] < lam[0] - PLATEAU_GAP)
    return SaturationReport(
        triple=t,
        family_size=d,
        lambda_expected=expected,
        top_values=top,
        max_rel_err=max_rel,
        plateau_ok=bool(max_rel <= PLATEAU_RTOL),
        boundary_separated=separated,
        observed_plateau_size=observed,
        mass=d * expected,
    )


@dataclass(frozen=True)
class HigherRankReport:
    """||alpha^*(sum eta_i (x) zeta_i)|| against its closed form and floor."""

    triple: AdmissibleTriple
    family_size: int
    lhs: float
    rhs_exact: float
    rhs_floor: float
    exact_ok: bool
    floor_ok: bool


def higher_rank_value(
    p: QParams, t: AdmissibleTriple, max_dim: int = DEFAULT_DIM_CAP
) -> HigherRankReport:
    """Evaluate ||alpha^*(sum_{i in A} eta_i (x) zeta_i)|| numerically.

    The exact value is |A| ([k+1]/theta)^{1/2}.  The floor
    |A| q^{(l+m-k)/4} is reported with a flag only: the attainable floor
    carries an extra (1-q^2)^{1/2}, and Bell-type triples sit below the
    unadjusted one.
    """
    wit = saturation_witness(p, t, max_dim=max_dim)
    iso = isometry(p, t, max_dim=max_dim)
    total = wit.eta_family.T @ wit.zeta_family  # sum_i eta_i (x) zeta_i as d_l x d_m
    lhs = float(np.linalg.norm(iso.legs.T @ total.ravel()))
    rhs_exact = wit.family_size * math.sqrt(math.exp(lambda_log(p, t)))
    rhs_floor = wit.family_size * p.q ** ((t.l + t.m - t.k) / 4.0)
    return HigherRankReport(
        triple=t,
        family_size=wit.family_size,
        lhs=lhs,
        rhs_exact=rhs_exact,
        rhs_floor=rhs_floor,
        exact_ok=bool(abs(lhs - rhs_exact) <= 1e-8 * rhs_exact),
        floor_ok=bool(lhs >= rhs_floor - 1e-12),
    )


# ---------------------------------------------------------------------------
# highest-weight separability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparabilityWitness:
    """A rank-1 product vector inside the highest-weight subspace, as its
    d_l x d_m leg matrix."""

    vector: np.ndarray
    schmidt_rank: int
    residual: float


def separability_witness_highest_weight(
    p: QParams,
    l: int,
    m: int,
    i: int,
    j: int,
    max_dim: int = DEFAULT_DIM_CAP,
) -> SeparabilityWitness:
    """eta_l(i,j) (x) eta_m(i',j') with the alternation continued across
    the junction, which lands the product vector inside alpha(H_{l+m}).

    residual = ||alpha alpha^* v - v||; rank-1 separability plus a tiny
    residual shows the embedded subspace touches the product-state set.
    """
    if i == j:
        raise ValueError("separability witness needs two distinct letters")
    if not all(
        type(x) is not bool and isinstance(x, (int, np.integer)) and 1 <= x <= p.n for x in (i, j)
    ):
        raise ValueError(f"letters {i!r}, {j!r} out of range: need integers 1..{p.n}")
    left = _alternating_letters(l, i, j)
    right = _alternating_letters(m, i, j) if l % 2 == 0 else _alternating_letters(m, j, i)
    iso = isometry(p, AdmissibleTriple(l + m, l, m), max_dim=max_dim)
    x = np.outer(
        _fixed_rows(iso.basis_l.columns, p.n, [left])[0],
        _fixed_rows(iso.basis_m.columns, p.n, [right])[0],
    )
    flat = x.ravel()
    residual = float(np.linalg.norm(iso.legs @ (iso.legs.T @ flat) - flat))
    rank = schmidt_spectrum(x).numerical_rank
    return SeparabilityWitness(vector=x, schmidt_rank=rank, residual=residual)


# ---------------------------------------------------------------------------
# entropy / dimension trade-off surrogate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyDimTradeoff:
    """Lower-bound surrogate: entropy floor plus mu-weighted dimension gap.

    entropy_lower = log(theta/[k+1]) bounds every output entropy from
    below; dim_term = log [k+1] - log([l+1][m+1]) is never positive.
    This is a reporting quantity, not the true regularized trade-off.
    """

    mu: float
    entropy_lower: float
    dim_term: float
    value: float


def entropy_dim_tradeoff(p: QParams, t: AdmissibleTriple, mu: float) -> EntropyDimTradeoff:
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must be in (0, 1), got {mu}")
    entropy_lower = -lambda_log(p, t)
    dim_term = log_dim(p, t.k) - log_dim(p, t.l) - log_dim(p, t.m)
    return EntropyDimTradeoff(
        mu=mu,
        entropy_lower=entropy_lower,
        dim_term=dim_term,
        value=entropy_lower + mu * dim_term,
    )
