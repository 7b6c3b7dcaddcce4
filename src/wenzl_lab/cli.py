"""Batch command-line surface: every computation as a reproducible job.

Reports are emitted to standard output as JSON (or flattened CSV) with a
versioned schema; diagnostics and wall time go to the error stream so
repeated runs with the same configuration are byte-identical.  Exit
codes: 0 success, 2 violated mathematical invariant, 3 dimension cap
exceeded, 4 bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .channel import (
    TRACE_FIRST,
    TRACE_LAST,
    channel,
    channel_norm_report,
    choi_witness_value,
    d_positivity_threshold,
    moe_bracket,
)
from .entangle import schmidt_spectrum, max_schmidt_optimizer, verify_saturation
from .errors import DimensionCapError, InvariantViolation
from .jones_wenzl import jw_projection, onb_of_irrep, verify_jw
from .qnum import (
    AdmissibleTriple,
    QParams,
    dim_irrep,
    q_factorial_log,
    quantum_parameter,
    rd_constant,
    theta_net_log,
)
from .tensor_core import DEFAULT_DIM_CAP, TensorShape, TensorVector, basis_vector
from .vertex import isometry, verify_equivariance_proxy

SCHEMA = "wenzl-lab/1"

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CAP = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so main can return 4."""


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(message)


@dataclass(frozen=True)
class JobConfig:
    """Echoed into every report so a run can be reproduced from its output."""

    n: int | None
    k: int | None
    l: int | None
    m: int | None
    seed: int
    restarts: int
    tol: float
    max_dim: int
    samples: int
    format: str
    log_base: str

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "JobConfig":
        return cls(
            n=getattr(args, "n", None),
            k=getattr(args, "k", None),
            l=getattr(args, "l", None),
            m=getattr(args, "m", None),
            seed=args.seed,
            restarts=args.restarts,
            tol=args.tol,
            max_dim=args.max_dim,
            samples=args.samples,
            format=args.format,
            log_base=args.log_base,
        )

    @property
    def log_scale(self) -> float:
        return 1.0 if self.log_base == "e" else 1.0 / math.log(2.0)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _rank(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"rank N must be >= 2, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="wenzl-lab",
        description=(
            "Irreducible-space calculus over the deformed tensor categories: "
            "projections, vertices, Schmidt analysis, channels, Choi tests."
        ),
    )
    common = _CliParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument(
        "--restarts", type=_positive_int, default=20, help="optimizer restarts"
    )
    common.add_argument(
        "--tol", type=_positive_float, default=1e-12, help="optimizer convergence tolerance"
    )
    common.add_argument(
        "--max-dim",
        dest="max_dim",
        type=_positive_int,
        default=DEFAULT_DIM_CAP,
        help=f"ambient dimension cap (default {DEFAULT_DIM_CAP})",
    )
    common.add_argument(
        "--samples", type=_positive_int, default=200, help="random sample count"
    )
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    common.add_argument(
        "--log-base",
        dest="log_base",
        choices=("e", "2"),
        default="e",
        help="logarithm base for entropies",
    )

    triple = _CliParser(add_help=False)
    triple.add_argument("--n", type=_rank, required=True, help="rank N >= 2")
    triple.add_argument("--k", type=_nonneg_int, required=True)
    triple.add_argument("--l", type=_nonneg_int, required=True)
    triple.add_argument("--m", type=_nonneg_int, required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser(
        "dims", parents=[common], help="dimensions of the irreducible spaces"
    )
    p_dims.add_argument("--n", type=_rank, required=True)
    p_dims.add_argument("--max-k", dest="max_k", type=_nonneg_int, required=True)

    sub.add_parser(
        "theta",
        parents=[common, triple],
        help="closed-form vs trace-computed theta net",
    )
    p_jw = sub.add_parser(
        "jw-verify", parents=[common], help="residuals of a Jones-Wenzl projection"
    )
    p_jw.add_argument("--n", type=_rank, required=True)
    p_jw.add_argument("--k", type=_nonneg_int, required=True)

    sub.add_parser(
        "isometry", parents=[common, triple], help="equivariant isometry diagnostics"
    )
    sub.add_parser(
        "schmidt",
        parents=[common, triple],
        help="Schmidt spectrum of the embedded alternating-word state",
    )
    sub.add_parser(
        "max-schmidt",
        parents=[common, triple],
        help="largest Schmidt coefficient over the embedded space",
    )
    sub.add_parser(
        "saturation",
        parents=[common, triple],
        help="Schmidt plateau of the witness state against the closed form",
    )
    p_channel = sub.add_parser(
        "channel", parents=[common, triple], help="S1 -> Sinf norm of the channel"
    )
    p_channel.add_argument(
        "--direction",
        choices=("first", "last"),
        default="first",
        help="which tensor factor is traced out (first = left)",
    )
    p_moe = sub.add_parser(
        "moe", parents=[common, triple], help="minimum-output-entropy bracket"
    )
    p_moe.add_argument(
        "--direction", choices=("first", "last"), default="first"
    )
    p_choi = sub.add_parser(
        "choi", parents=[common, triple], help="Choi-matrix d-positivity witness"
    )
    p_choi.add_argument("--d", type=_positive_int, required=True)
    p_choi.add_argument("--scale", type=float, required=True)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="one report row per admissible triple over rank and leg ranges",
    )
    p_sweep.add_argument("--n-min", dest="n_min", type=_rank, default=3)
    p_sweep.add_argument("--n-max", dest="n_max", type=_rank, default=5)
    p_sweep.add_argument("--max-l", dest="max_l", type=_positive_int, default=2)
    p_sweep.add_argument("--max-m", dest="max_m", type=_positive_int, default=2)
    return parser


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _triple_dict(t: AdmissibleTriple) -> dict:
    return {"k": t.k, "l": t.l, "m": t.m, "r": t.r}


def _params_and_triple(cfg: JobConfig) -> tuple[QParams, AdmissibleTriple]:
    p = quantum_parameter(cfg.n)
    return p, AdmissibleTriple(cfg.k, cfg.l, cfg.m)


def _lambda_exact(p: QParams, t: AdmissibleTriple) -> float:
    log_dim = q_factorial_log(p, t.k + 1) - q_factorial_log(p, t.k)
    return math.exp(log_dim - theta_net_log(p, t))


def _direction(args: argparse.Namespace) -> str:
    return TRACE_FIRST if args.direction == "first" else TRACE_LAST


# ---------------------------------------------------------------------------
# subcommand payloads
# ---------------------------------------------------------------------------

def _run_dims(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p = quantum_parameter(cfg.n)
    dims = []
    for k in range(args.max_k + 1):
        value = dim_irrep(p, k)
        dims.append(int(round(value)) if value < 2**53 else value)
    return {"n": cfg.n, "max_k": args.max_k, "dims": dims}


def _run_theta(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    iso = isometry(p, t, max_dim=cfg.max_dim)
    closed, trace = iso.theta_closed, iso.theta_trace
    return {
        "triple": _triple_dict(t),
        "theta_closed": closed,
        "theta_trace": trace,
        "residual": trace - closed,
        "rel_err": abs(trace - closed) / closed,
    }


def _run_jw_verify(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p = quantum_parameter(cfg.n)
    report = verify_jw(jw_projection(p, args.k, max_dim=cfg.max_dim))
    return {
        "n": report.n,
        "k": report.k,
        "dim": int(round(dim_irrep(p, args.k))),
        "idempotence": report.idempotence,
        "symmetry": report.symmetry,
        "trace_rel": report.trace_rel,
        "cap_annihilation": report.cap_annihilation,
        "ok": report.ok,
    }


def _run_isometry(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    iso = isometry(p, t, max_dim=cfg.max_dim)
    gram = iso.reduced.T @ iso.reduced
    ortho = float(np.abs(gram - np.eye(gram.shape[0])).max())
    return {
        "triple": _triple_dict(t),
        "scale": iso.scale,
        "theta_closed": iso.theta_closed,
        "theta_trace": iso.theta_trace,
        "orthonormality_residual": ortho,
        "equivariance_residual": verify_equivariance_proxy(iso),
    }


def _witness_reduced(p: QParams, t: AdmissibleTriple, max_dim: int) -> np.ndarray:
    """IrrepBasis coordinates of the alternating-word state eta_k(1,2)."""
    if t.k == 0:
        return np.ones(1)
    word = [1 if i % 2 == 0 else 2 for i in range(t.k)]
    xi = basis_vector(TensorShape(p.n, t.k), word, max_dim=max_dim)
    basis = onb_of_irrep(p, t.k, max_dim=max_dim)
    coords = basis.columns.T @ xi.data
    return coords / np.linalg.norm(coords)


def _run_schmidt(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    iso = isometry(p, t, max_dim=cfg.max_dim)
    coords = _witness_reduced(p, t, cfg.max_dim)
    image = TensorVector(TensorShape(p.n, t.l + t.m), iso.reduced @ coords)
    report = schmidt_spectrum(image, split=t.l)
    lam = _lambda_exact(p, t)
    scale = cfg.log_scale
    coeffs = report.coefficients[report.coefficients > 1e-14]
    return {
        "triple": _triple_dict(t),
        "input": "alternating-word",
        "coefficients": coeffs,
        "entropy": report.entropy * scale,
        "max": report.max,
        "numerical_rank": report.numerical_rank,
        "closed_form_max": lam,
        "residual": report.max - lam,
        "log_base": cfg.log_base,
    }


def _run_max_schmidt(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    res = max_schmidt_optimizer(
        p,
        t,
        restarts=cfg.restarts,
        tol=cfg.tol,
        seed=cfg.seed,
        max_dim=cfg.max_dim,
    )
    closed = math.sqrt(_lambda_exact(p, t))
    return {
        "triple": _triple_dict(t),
        "value": res.value,
        "value_squared": res.value * res.value,
        "closed_form": closed,
        "residual": res.value - closed,
        "converged": res.converged,
        "sweeps": res.sweeps,
    }


def _run_saturation(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    report = verify_saturation(p, t, max_dim=cfg.max_dim)
    return {
        "triple": _triple_dict(t),
        "family_size": report.family_size,
        "lambda_expected": report.lambda_expected,
        "top_values": report.top_values,
        "max_rel_err": report.max_rel_err,
        "plateau_ok": report.plateau_ok,
        "boundary_separated": report.boundary_separated,
        "observed_plateau_size": report.observed_plateau_size,
        "mass": report.mass,
    }


def _run_channel(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    ch = channel(p, t, _direction(args), max_dim=cfg.max_dim)
    rep = channel_norm_report(ch, restarts=cfg.restarts, seed=cfg.seed, tol=cfg.tol)
    return {
        "triple": _triple_dict(t),
        "direction": ch.direction,
        "norm_1_to_inf": rep.value,
        "closed_form": rep.closed_form,
        "residual": rep.residual,
        "bracket_lower_printed": rep.bracket_lower_printed,
        "bracket_lower_sharp": rep.bracket_lower_sharp,
        "bracket_upper": rep.bracket_upper,
        "in_printed_bracket": rep.in_printed_bracket,
        "in_sharp_bracket": rep.in_sharp_bracket,
        "converged": rep.converged,
    }


def _run_moe(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    ch = channel(p, t, _direction(args), max_dim=cfg.max_dim)
    bracket = moe_bracket(
        ch, samples=cfg.samples, restarts=cfg.restarts, seed=cfg.seed, tol=cfg.tol
    )
    scale = cfg.log_scale
    return {
        "triple": _triple_dict(t),
        "direction": bracket.direction,
        "lower": bracket.lower * scale,
        "upper": bracket.upper * scale,
        "coarse_lower": bracket.coarse_lower * scale,
        "witness_entropy": bracket.witness_entropy * scale,
        "optimizer_entropy": bracket.optimizer_entropy * scale,
        "sampled_entropy": bracket.sampled_entropy * scale,
        "argmin": bracket.argmin,
        "samples": bracket.samples,
        "log_base": cfg.log_base,
    }


def _run_choi(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    rep = choi_witness_value(
        p,
        t,
        args.d,
        args.scale,
        samples=cfg.samples,
        seed=cfg.seed,
        max_dim=cfg.max_dim,
    )
    return {
        "triple": _triple_dict(t),
        "d": rep.d,
        "scale": rep.scale,
        "threshold": rep.threshold,
        "witness_value": rep.witness_value,
        "predicted_value": rep.predicted_value,
        "prediction_residual": rep.witness_value - rep.predicted_value,
        "sampled_min": rep.sampled_min,
        "family_size": rep.family_size,
        "witness_rank": rep.witness_rank,
    }


def _sweep_row(
    p: QParams, t: AdmissibleTriple, cfg: JobConfig
) -> dict:
    n = p.n
    row = {
        "n": n,
        "k": t.k,
        "l": t.l,
        "m": t.m,
        "r": t.r,
        "skipped": False,
        "skip_reason": "",
    }
    if n ** (t.l + t.m) > cfg.max_dim or n**t.k > cfg.max_dim:
        row["skipped"] = True
        row["skip_reason"] = f"ambient dimension exceeds cap {cfg.max_dim}"
        return row
    iso = isometry(p, t, max_dim=cfg.max_dim)
    lam = _lambda_exact(p, t)
    coarse = rd_constant(p) ** 2 * p.q**t.r
    bracket = moe_bracket(
        channel(p, t, max_dim=cfg.max_dim),
        samples=cfg.samples,
        restarts=cfg.restarts,
        seed=cfg.seed,
        tol=cfg.tol,
    )
    scale = cfg.log_scale
    family = (n - 2) * (n - 1) ** (t.r - 1) if t.r >= 1 and n >= 3 else 0
    row.update(
        {
            "dim_k": int(round(dim_irrep(p, t.k))),
            "theta_closed": iso.theta_closed,
            "theta_trace": iso.theta_trace,
            "lambda_exact": lam,
            "lambda_coarse": coarse,
            "moe_lower": bracket.lower * scale,
            "moe_upper": bracket.upper * scale,
            "moe_coarse_lower": bracket.coarse_lower * scale,
            "family_size": family,
            "mass": family * lam if family else None,
        }
    )
    return row


def _run_sweep(args: argparse.Namespace, cfg: JobConfig) -> dict:
    if args.n_max < args.n_min:
        raise ValueError(f"--n-max {args.n_max} below --n-min {args.n_min}")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        p = quantum_parameter(n)
        for l in range(1, args.max_l + 1):
            for m in range(1, args.max_m + 1):
                for k in range(abs(l - m), l + m + 1, 2):
                    rows.append(_sweep_row(p, AdmissibleTriple(k, l, m), cfg))
    skipped = sum(1 for row in rows if row["skipped"])
    return {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "max_l": args.max_l,
        "max_m": args.max_m,
        "rows": rows,
        "row_count": len(rows),
        "skipped_count": skipped,
        "log_base": cfg.log_base,
    }


_RUNNERS = {
    "dims": _run_dims,
    "theta": _run_theta,
    "jw-verify": _run_jw_verify,
    "isometry": _run_isometry,
    "schmidt": _run_schmidt,
    "max-schmidt": _run_max_schmidt,
    "saturation": _run_saturation,
    "channel": _run_channel,
    "moe": _run_moe,
    "choi": _run_choi,
    "sweep": _run_sweep,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], out)
    elif isinstance(value, list):
        out[prefix] = json.dumps(value, sort_keys=True)
    elif value is None:
        out[prefix] = ""
    else:
        out[prefix] = value


def _emit_csv(report: dict, stream) -> None:
    rows = report.get("rows")
    header_src = [dict(r) for r in rows] if isinstance(rows, list) else [report]
    flat_rows = []
    for row in header_src:
        flat: dict = {}
        _flatten("", row, flat)
        flat_rows.append(flat)
    fields = sorted({key for flat in flat_rows for key in flat})
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for flat in flat_rows:
        writer.writerow(flat)
    stream.write(buffer.getvalue())


def emit(report: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        stream.write(json.dumps(_jsonable(report), sort_keys=True, indent=2))
        stream.write("\n")
    else:
        _emit_csv(_jsonable(report), stream)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        cfg = JobConfig.from_args(args)
        payload = _RUNNERS[args.command](args, cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DimensionCapError as exc:
        print(f"dimension cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "config": asdict(cfg),
    }
    report.update(payload)
    emit(report, cfg.format)
    elapsed = time.perf_counter() - started
    print(f"wall_time_s {elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
