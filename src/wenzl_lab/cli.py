"""Batch command-line surface: every computation as a reproducible job.

Reports are emitted to standard output as JSON (or flattened CSV) with a
versioned schema; diagnostics and wall time go to the error stream so
repeated runs with the same configuration are byte-identical.  Exit
codes: 0 success, 2 violated mathematical invariant (including a NaN or
infinite report value), 3 dimension cap exceeded or out of memory,
4 bad arguments.
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
    EquivariantChannel,
    channel,
    channel_norm_report,
    choi_witness_value,
    moe_bracket,
)
from .entangle import (
    max_schmidt_optimizer,
    schmidt_spectrum,
    verify_saturation,
    witness_family_size,
    witness_image,
)
from .errors import DimensionCapError, InvariantViolation
from .jones_wenzl import jw_projection, verify_jw
from .qnum import (
    AdmissibleTriple,
    QParams,
    dim_irrep,
    lambda_log,
    quantum_parameter,
    rd_bound,
)
from .tensor_core import DEFAULT_DIM_CAP
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


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
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
    p_choi.add_argument("--scale", type=_finite_float, required=True)

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


def _params_and_triple(cfg: JobConfig) -> tuple[QParams, AdmissibleTriple]:
    p = quantum_parameter(cfg.n)
    return p, AdmissibleTriple(cfg.k, cfg.l, cfg.m)


def _direction(args: argparse.Namespace) -> str:
    return TRACE_FIRST if args.direction == "first" else TRACE_LAST


# natural-log fields of report payloads, rescaled to --log-base
_ENTROPY_FIELDS = (
    "entropy",
    "lower",
    "upper",
    "coarse_lower",
    "witness_entropy",
    "optimizer_entropy",
    "sampled_entropy",
)


def _in_log_base(payload: dict, cfg: JobConfig) -> dict:
    for key in _ENTROPY_FIELDS:
        if key in payload:
            payload[key] *= cfg.log_scale
    payload["log_base"] = cfg.log_base
    return payload


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
        "triple": asdict(t),
        "theta_closed": closed,
        "theta_trace": trace,
        "residual": trace - closed,
        "rel_err": abs(trace - closed) / closed,
    }


def _run_jw_verify(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p = quantum_parameter(cfg.n)
    report = verify_jw(jw_projection(p, args.k, max_dim=cfg.max_dim))
    return {**asdict(report), "dim": int(round(dim_irrep(p, args.k)))}


def _run_isometry(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    iso = isometry(p, t, max_dim=cfg.max_dim)
    gram = iso.reduced.T @ iso.reduced
    ortho = float(np.abs(gram - np.eye(gram.shape[0])).max())
    return {
        "triple": asdict(t),
        "scale": iso.scale,
        "theta_closed": iso.theta_closed,
        "theta_trace": iso.theta_trace,
        "orthonormality_residual": ortho,
        "equivariance_residual": verify_equivariance_proxy(iso),
    }


def _run_schmidt(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    iso = isometry(p, t, max_dim=cfg.max_dim)
    report = schmidt_spectrum(witness_image(iso))
    lam = math.exp(lambda_log(p, t))
    payload = {
        **asdict(report),
        "triple": asdict(t),
        "input": "alternating-word",
        "coefficients": report.coefficients[report.coefficients > 1e-14],
        "closed_form_max": lam,
        "residual": report.max - lam,
    }
    return _in_log_base(payload, cfg)


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
    closed = math.sqrt(math.exp(lambda_log(p, t)))
    return {
        "triple": asdict(t),
        "value": res.value,
        "value_squared": res.value * res.value,
        "closed_form": closed,
        "residual": res.value - closed,
        "converged": res.converged,
        "sweeps": res.sweeps,
    }


def _run_saturation(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    return asdict(verify_saturation(p, t, max_dim=cfg.max_dim))


def _run_channel(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    ch = channel(p, t, _direction(args), max_dim=cfg.max_dim)
    rep = channel_norm_report(ch, restarts=cfg.restarts, seed=cfg.seed, tol=cfg.tol)
    return {**asdict(rep), "direction": ch.direction}


def _moe_payload(ch: EquivariantChannel, cfg: JobConfig) -> dict:
    bracket = moe_bracket(
        ch, samples=cfg.samples, restarts=cfg.restarts, seed=cfg.seed, tol=cfg.tol
    )
    return _in_log_base(asdict(bracket), cfg)


def _run_moe(args: argparse.Namespace, cfg: JobConfig) -> dict:
    p, t = _params_and_triple(cfg)
    return _moe_payload(channel(p, t, _direction(args), max_dim=cfg.max_dim), cfg)


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
    return {**asdict(rep), "prediction_residual": rep.witness_value - rep.predicted_value}


def _sweep_row(
    p: QParams, t: AdmissibleTriple, cfg: JobConfig
) -> dict:
    row = {
        "n": p.n,
        **asdict(t),
        "skipped": False,
        "skip_reason": "",
    }
    if p.n < 3:
        row["skip_reason"] = "rapid-decay constant requires rank >= 3 (q < 1)"
    elif p.n ** (t.l + t.m) > cfg.max_dim or p.n**t.k > cfg.max_dim:
        row["skip_reason"] = f"ambient dimension exceeds cap {cfg.max_dim}"
    if row["skip_reason"]:
        row["skipped"] = True
        return row
    iso = isometry(p, t, max_dim=cfg.max_dim)
    lam, coarse = rd_bound(p, t)
    moe = _moe_payload(channel(p, t, max_dim=cfg.max_dim), cfg)
    family = witness_family_size(p, t)
    row.update(
        {
            "dim_k": int(round(dim_irrep(p, t.k))),
            "theta_closed": iso.theta_closed,
            "theta_trace": iso.theta_trace,
            "lambda_exact": lam,
            "lambda_coarse": coarse,
            "moe_lower": moe["lower"],
            "moe_upper": moe["upper"],
            "moe_coarse_lower": moe["coarse_lower"],
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
    """Write the report; a NaN or infinite value raises before any output."""
    stream = stream or sys.stdout
    report = _jsonable(report)
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InvariantViolation(f"report holds a non-finite number: {exc}") from None
    if fmt == "json":
        stream.write(text)
        stream.write("\n")
    else:
        _emit_csv(report, stream)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        cfg = JobConfig.from_args(args)
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "config": asdict(cfg),
        }
        report.update(_RUNNERS[args.command](args, cfg))
        emit(report, cfg.format)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DimensionCapError as exc:
        print(f"dimension cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        print(f"dimension cap: out of memory: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    elapsed = time.perf_counter() - started
    print(f"wall_time_s {elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
