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
that attains the supremum runs all restarts through one loop (`_ascend`)
with one step per side of H_l (x) H_m = (+)_r H_{l+m-2r}: a power step
on the 3-tensor alpha through its factors B_k, B_l, B_m and the cup,
never through the dense d_l d_m x [k+1]_q `legs`, or, at highest
weight, where alpha(H_k) fills almost all of H_l (x) H_m, exact block
steps in eta and zeta on 1 - ||C^T (eta (x) zeta)||^2, C the other
summands.  The witness family (`witness_family`) and xi (`witness_image`)
are read from the cached isometry's irrep bases, as rows at the words'
flat indices, and every result vector is in irrep-basis coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_DIM_CAP, InvariantViolation, _check_int, _check_real, _check_real_array
from .jones_wenzl import _blas_threads
from .qnum import (
    AdmissibleTriple,
    QParams,
    admissible_triples,
    lambda_log,
    rd_bound,
)
from .vertex import EquivariantIsometry, _cup_gather, isometry

__all__ = [
    "SchmidtReport",
    "RdCertificate",
    "MaxSchmidtResult",
    "SaturationReport",
    "schmidt_spectrum",
    "rd_certificate",
    "max_schmidt_optimizer",
    "witness_family_size",
    "witness_family",
    "witness_image",
    "verify_saturation",
]

RANK_TOL = 1e-8
PLATEAU_RTOL = 1e-8
PLATEAU_GAP = 1e-10
WITNESS_FIX_TOL = 1e-9
SIDE_AGREEMENT_TOL = 1e-9
_PUSH_BYTES = 1 << 20  # bytes of alpha's images per column chunk of `_pushed`


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """arr, a product with alpha's `legs`, or InvariantViolation if a NaN or inf reached it."""
    if not np.isfinite(arr).all():
        raise InvariantViolation(f"{what} is not finite: alpha's legs hold a NaN or inf")
    return arr


def _pushed(iso: EquivariantIsometry, count: int, block, each, fold=list):
    """fold(each(block(start, stop)) for consecutive column ranges covering range(count)),
    in one `jones_wenzl._blas_threads` scope, on one thread.  block returns those columns
    of a stack of IrrepBasis(k) vectors, each pushes them through alpha, and a range holds
    as many as fit _PUSH_BYTES of d_l x d_m images (bytes, not columns; at least one)."""
    width = max(1, _PUSH_BYTES // (8 * iso.basis_l.dim * iso.basis_m.dim))
    with _blas_threads():
        return fold(each(block(s, min(s + width, count))) for s in range(0, count, width))


def _image_spectra(iso: EquivariantIsometry, cols: np.ndarray) -> np.ndarray:
    """Squared singular values, ascending (rounding can leave vanishing ones slightly negative),
    of alpha(x) for each column x of cols, scaled to unit norm in place: eigenvalues of each
    image's smaller-side Gram (M M^T or M^T M) by one eigvalsh stack, cheaper than an SVD.
    Callers pass one `_pushed` chunk; chunks agree with one stack to rounding."""
    cols /= np.linalg.norm(cols, axis=0)
    stack = iso.images(cols)
    small = stack if stack.shape[1] <= stack.shape[2] else stack.transpose(0, 2, 1)
    gram = _finite(small @ small.transpose(0, 2, 1), f"image Gram at {iso.triple}")
    return np.linalg.eigvalsh(gram)


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """Entropy (natural log) of each spectrum along the last axis, normalized
    to sum 1, with rounding's negative values read as 0 and 0 log 0 = 0; a
    pure state's is 0.0, not -0.0."""
    probs = np.clip(spectra, 0.0, None)
    probs /= probs.sum(axis=-1, keepdims=True)
    logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return 0.0 - (probs * logs).sum(axis=-1)


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
    mat = _check_real_array("Schmidt spectrum input", mat)
    if mat.ndim != 2:
        raise ValueError(f"Schmidt spectrum needs a matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("Schmidt spectrum needs finite entries")
    norm2 = float(np.einsum("ij,ij->", mat, mat))
    if not math.isfinite(norm2):  # every sigma^2 <= norm2, so this covers them all
        raise ValueError(f"Schmidt spectrum input's squared norm overflows: {norm2}")
    if norm2 <= 1e-300:
        raise ValueError("Schmidt spectrum of the zero vector is undefined")
    sigma = np.linalg.svd(mat, compute_uv=False)
    lambdas = sigma * sigma
    rank = int(np.count_nonzero(lambdas > RANK_TOL * lambdas[0]))
    return SchmidtReport(
        coefficients=lambdas,
        entropy=float(_entropies(lambdas)),
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
    Each sample's lambda_1 is the top eigenvalue of its image's Gram on
    the smaller side (`_image_spectra`).  The draws (8 [k+1]_q samples bytes)
    are made whole, then normalized and pushed by `_pushed`, in chunks of
    `_PUSH_BYTES` of images (bytes, not columns) that agree with one stack to rounding.
    samples (at least 1) and seed (at least 0) must be integers, else
    ValueError.
    """
    samples, seed = _check_int("samples", samples, 1), _check_int("seed", seed, 0)
    iso = isometry(p, t, max_dim=max_dim)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal((iso.basis.dim, samples))
    top = _pushed(
        iso, samples, lambda a, b: x[:, a:b], lambda c: _image_spectra(iso, c)[:, -1].max(), max
    )
    max_observed = float(top)
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

    Row j of norm below 1e-300 (a vanishing contraction or projection)
    is first redrawn from rngs[live[j]], the generator of its restart.
    The norms are the bare ufunc form of `np.linalg.norm(rows, axis=1)`,
    bit for bit, without its wrapper.
    """
    if norms is None:
        norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    if np.minimum.reduce(norms) < 1e-300:
        norms = norms.copy()
        for j in np.flatnonzero(norms < 1e-300):
            rows[j] = rngs[live[j]].standard_normal(rows.shape[1])
            norms[j] = np.linalg.norm(rows[j])
    rows /= norms[:, None]
    return rows


def _alpha_step(ops, state, unit):
    """One sweep through alpha's factors, for rows of state (unit xi, cz = G zeta).

    ops = (s B_k, B_l, G) with G the cup gather of B_m
    (`vertex._cup_gather`, N^r x N^{m-r} x d_m).  With
    g = (s B_k xi)_{N^{l-r} x N^{m-r}}, the leg matrix alpha(xi) is never
    formed: eta <- B_l^T vec(g cz^T), zeta <- G^T vec((B_l eta)^T g), and
    xi <- alpha^*(eta (x) zeta) = s B_k^T vec((B_l eta) (G zeta)).
    Returns eta, zeta, the objective ||xi|| and the new state (unit xi, G zeta).
    """
    sbk, bl, cup = ops
    xi, cz = state
    rows, (i, b, dm) = xi.shape[0], cup.shape
    gather = cup.reshape(i * b, dm)
    g = (xi @ sbk.T).reshape(rows, -1, b)
    eta = unit((g @ cz.transpose(0, 2, 1)).reshape(rows, -1) @ bl)
    left = (eta @ bl.T).reshape(rows, -1, i)
    zeta = unit((left.transpose(0, 2, 1) @ g).reshape(rows, -1) @ gather)
    cz = (zeta @ gather.T).reshape(rows, i, b)
    xi = (left @ cz).reshape(rows, -1) @ sbk
    obj = np.sqrt(np.add.reduce(xi * xi, axis=1))
    return eta, zeta, obj, (unit(xi, obj), cz)


def _block_minimizer(a: np.ndarray, cur: np.ndarray, unit) -> np.ndarray:
    """Unit x minimizing ||a_j^T x|| for each d x c matrix a_j of the stack a:
    row j of cur projected onto null(a_j^T) through a_j's thin QR if d > c
    (the minimum is then 0), else the bottom eigenvector of a_j a_j^T."""
    if a.shape[1] > a.shape[2]:
        q = np.linalg.qr(a)[0]
        return unit(cur - ((cur[:, None, :] @ q) @ q.transpose(0, 2, 1))[:, 0])
    return np.linalg.eigh(a @ a.transpose(0, 2, 1))[1][:, :, 0]


def _complement_sweep(ops, state, unit):
    """One exact block sweep through the complement C, for rows of state (eta, zeta).

    ops = (C as d_l x d_m x c, C as d_m x d_l x c), both C-contiguous.
    With A_zeta, A_eta C contracted with zeta or eta, eta and then zeta
    minimize ||C^T(eta (x) zeta)|| = ||A_zeta^T eta|| = ||A_eta^T zeta||
    (`_block_minimizer`).  Returns eta, zeta, the objective
    (1 - ||A_eta^T zeta||^2)^{1/2} and the new state.
    """
    cube_l, cube_m = ops
    eta = _block_minimizer(np.tensordot(state[1], cube_m, 1), state[0], unit)
    a_eta = np.tensordot(eta, cube_l, 1)
    zeta = _block_minimizer(a_eta, state[1], unit)
    res = (zeta[:, None, :] @ a_eta)[:, 0]
    obj = np.sqrt(np.maximum(1.0 - np.add.reduce(res * res, axis=1), 0.0))
    return eta, zeta, obj, (eta, zeta)


def _complement_legs(iso: EquivariantIsometry, max_dim: int) -> np.ndarray | None:
    """Leg coordinates of every alpha_{k'}, k' != k, side by side, or None
    when the complement has at least as many columns as alpha itself.

    By the fusion rule H_l (x) H_m = (+)_r H_{l+m-2r} their columns are
    orthonormal, span the orthogonal complement of alpha(H_k) and number
    d_l d_m - [k+1]_q; a wrong count or C^T C != I is an InvariantViolation.
    """
    d_l, d_m, d_k = iso.basis_l.dim, iso.basis_m.dim, iso.basis.dim
    if d_l * d_m - d_k >= d_k:
        return None
    p, t = iso.params, iso.triple
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


def _ascend(step, ops, state, rngs, tol, max_iters):
    """Ascend every restart at once; return one record per restart, in order:
    (objective, sweeps, converged, copies of eta and zeta) as it stopped.

    Each sweep, step(ops, state, unit) advances the rows of state, row j
    for restart live[j], as matrix-matrix products; `unit` normalizes rows
    and redraws a vanishing one from its restart's generator (`_unit_rows`).
    A restart leaves at the first sweep whose objective moved by at most
    tol * max(1, objective), or at max_iters; the state shrinks only then.
    """
    records = [None] * len(rngs)
    live = np.arange(len(rngs))  # restart index of each row still iterating
    prev = np.full(len(rngs), -1.0)

    def unit(rows, norms=None):  # reads `live` at call time, so one closure serves every sweep
        return _unit_rows(rows, rngs, live, norms)

    for sweep in range(1, max_iters + 1):
        eta, zeta, obj, state = step(ops, state, unit)
        done = np.abs(obj - prev) <= tol * np.maximum(1.0, obj)
        if done.any() or sweep == max_iters:
            leave = done | (sweep == max_iters)
            for j in np.flatnonzero(leave):
                records[live[j]] = (obj[j], sweep, done[j], eta[j].copy(), zeta[j].copy())
            if leave.all():
                return records
            keep = ~leave
            live, obj, state = live[keep], obj[keep], tuple(part[keep] for part in state)
        prev = obj


def max_schmidt_optimizer(
    p: QParams,
    t: AdmissibleTriple,
    restarts: int = 20,
    tol: float = 1e-12,
    seed: int = 0,
    max_iters: int = 1000,
    max_dim: int = DEFAULT_DIM_CAP,
) -> MaxSchmidtResult:
    """Alternating maximization of sup lambda_1^{1/2} = sup |<alpha(xi)|eta (x) zeta>|.

    This is ALS for the best rank-one approximation of the 3-tensor
    alpha; eta and zeta are coordinates in B_l, B_m, so they stay exactly
    inside H_l, H_m.  Where `legs` is the narrower side of the fusion
    rule (every r >= 1 triple), a sweep is a power step through alpha's
    factors B_k, B_l, B_m and the cup (`_alpha_step`): eta, zeta and xi
    become the normalized alpha(xi) zeta, alpha(xi)^T eta and
    alpha^*(eta (x) zeta), whose norm, the objective, is monotone per
    restart.  Otherwise (every r = 0 triple) xi is eliminated, and a sweep
    sets eta, then zeta, to the exact maximizer of
    1 - ||C^T (eta (x) zeta)||^2 with the other fixed (`_complement_sweep`),
    C the leg coordinates of every other summand alpha_{k'}(H_{k'}) of
    H_l (x) H_m, which must be orthonormal with d_l d_m - [k+1]_q columns.

    Every restart draws its Gaussian start (xi, eta, zeta) from its own
    generator of a split seed, and all restarts ascend together (`_ascend`).
    The best value wins, ties broken by lowest restart index.  The winner's
    xi and the reported value come from one direct product
    with `legs`, which must agree with the iterated value to
    SIDE_AGREEMENT_TOL, else InvariantViolation.  Everything from the
    draws on runs in one `jones_wenzl._blas_threads` scope, on one thread.
    restarts, max_iters (at least 1) and seed (at least 0) must be
    integers, and tol a positive finite real (not a bool), else ValueError.
    """
    restarts, seed = _check_int("restarts", restarts, 1), _check_int("seed", seed, 0)
    max_iters = _check_int("max_iters", max_iters, 1)
    tol = _check_real("tol", tol, "a positive finite real", 0.0, math.inf)
    iso = isometry(p, t, max_dim=max_dim)
    comp = _complement_legs(iso, max_dim)
    legs, bl, bm = iso.legs, iso.basis_l.columns, iso.basis_m.columns
    with _blas_threads():
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(restarts)]
        sizes = (legs.shape[1], bl.shape[0], bm.shape[0])
        draws = [[rng.standard_normal(size) for size in sizes] for rng in rngs]
        xi, eta, zeta = (_unit_rows(np.array(vecs), rngs, range(restarts)) for vecs in zip(*draws))
        zeta = zeta @ bm
        if comp is None:
            cup = _cup_gather(p.n, t, bm)
            step, ops = _alpha_step, (iso.scale * iso.basis.columns, bl, cup)
            cz = zeta @ cup.reshape(-1, cup.shape[2]).T
            state = (xi, cz.reshape(restarts, *cup.shape[:2]))
        else:
            cube = comp.reshape(bl.shape[1], bm.shape[1], -1)
            ops = (cube, np.ascontiguousarray(cube.swapaxes(0, 1)))
            step, state = _complement_sweep, (eta @ bl, zeta)
        records = _ascend(step, ops, state, rngs, tol, max_iters)
        value, sweeps, converged, etas, zetas = zip(*records)
        win = int(np.argmax(value))
        raw = np.kron(etas[win], zetas[win]) @ legs
        direct = float(np.linalg.norm(raw))
        if not abs(direct - value[win]) <= SIDE_AGREEMENT_TOL:
            raise InvariantViolation(
                f"optimizer at {t}: direct value {direct!r} != iterated value {float(value[win])!r}"
            )
    return MaxSchmidtResult(
        value=direct,
        xi=raw / direct,
        eta=etas[win],
        zeta=zetas[win],
        converged=bool(converged[win]),
        sweeps=sweeps[win],
        restart_sweeps=sweeps,
        restart_converged=tuple(map(bool, converged)),
        restart_values=tuple(map(float, value)),
    )


# ---------------------------------------------------------------------------
# saturation witness family
# ---------------------------------------------------------------------------

def _alternating_letters(count: int) -> list[int]:
    return [1 + s % 2 for s in range(count)]


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
    if not off.max() <= WITNESS_FIX_TOL:
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
    image = iso.images(coords / np.linalg.norm(coords))[0]
    return _finite(image, f"witness image at {iso.triple}")


def _witness_indices(n: int, r: int) -> list[tuple[int, ...]]:
    """A = {i: [r] -> [N] with i(1) >= 3 and i(s) != i(s+1)}, in lexicographic order."""
    return [
        idx
        for idx in itertools.product(range(1, n + 1), repeat=r)
        if idx[0] >= 3 and all(idx[s] != idx[s + 1] for s in range(r - 1))
    ]


def witness_family(iso: EquivariantIsometry) -> tuple[np.ndarray, np.ndarray]:
    """The witness index family A as IrrepBasis rows (etas, zetas), |A| x d_l and |A| x d_m.

    Each index i in A yields eta_i = eta_0 (x) e_{i(1)} ... e_{i(r)} and
    the mirrored zeta_i, where eta_0/zeta_0 are the first l-r / last m-r
    letters of xi = eta_k(1,2); each word is read off as a row of the cached
    isometry's B_l or B_m, and must be fixed by its Jones-Wenzl projection.
    """
    p, t = iso.params, iso.triple
    if t.r < 1:
        raise ValueError(f"triple {t} is highest weight: the witness family needs r >= 1")
    if p.n < 3:
        raise ValueError("witness family needs rank >= 3 (letter i(1) >= 3)")
    indices = _witness_indices(p.n, t.r)
    want = witness_family_size(p, t)
    if len(indices) != want:
        raise InvariantViolation(
            f"witness family size {len(indices)} != (N-2)(N-1)^(r-1) = {want}"
        )
    word, cut = _alternating_letters(t.k), t.l - t.r
    etas = _fixed_rows(iso.basis_l.columns, p.n, [word[:cut] + list(idx) for idx in indices])
    zetas = _fixed_rows(iso.basis_m.columns, p.n, [list(idx[::-1]) + word[cut:] for idx in indices])
    return etas, zetas


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
    iso = isometry(p, t, max_dim=max_dim)
    d = len(witness_family(iso)[0])
    lam = schmidt_spectrum(witness_image(iso)).coefficients
    expected = math.exp(lambda_log(p, t))
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
