"""Batch command-line surface: every computation as a reproducible job.

One table, `_COMMANDS`, declares each subcommand: its runner, its help
text and every flag it takes; --format is added to all of them.  The
parser and `_RUNNERS` are both derived from it, so a command refuses any
flag its runner does not read (exit 4).

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
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from .channel import (
    TRACE_FIRST,
    TRACE_LAST,
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
from .errors import DEFAULT_DIM_CAP, DimensionCapError, InvariantViolation
from .jones_wenzl import _blas_threads, jw_projection, verify_jw
from .qnum import AdmissibleTriple, admissible_triples, dim_irrep, quantum_parameter, rd_bound
from .vertex import isometry

SCHEMA = "wenzl-lab/1"

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CAP = 3
EXIT_USAGE = 4

# namespace fields echoed into every report, so a run can be reproduced from its output
_CONFIG = (
    "n", "k", "l", "m", "seed", "restarts", "tol", "max_dim", "samples", "format", "log_base"
)

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

# a complementary pair shares the norm and the MOE, so --direction only labels those reports
_TRACED = {"first": TRACE_FIRST, "last": TRACE_LAST}


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so main can return 4."""


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _checked(cast, ok, what: str):
    """Argparse type: cast the text, then reject any value failing `ok`."""

    def check(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text}")
        return value

    check.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return check


_POSITIVE = _checked(int, lambda v: v >= 1, "a positive integer")
_NONNEG = _checked(int, lambda v: v >= 0, "a non-negative integer")
_RANK = _checked(int, lambda v: v >= 2, "a rank N >= 2")
_FINITE = _checked(float, math.isfinite, "a finite number")
_POSITIVE_FINITE = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")


def _in_log_base(payload: dict, args: argparse.Namespace) -> dict:
    scale = 1.0 if args.log_base == "e" else 1.0 / math.log(2.0)
    for key in _ENTROPY_FIELDS:
        if key in payload:
            payload[key] *= scale
    payload["log_base"] = args.log_base
    return payload


# ---------------------------------------------------------------------------
# subcommand payloads; main binds args.p = QParams and args.t = the triple
# ---------------------------------------------------------------------------

def _run_dims(args: argparse.Namespace) -> dict:
    dims = []
    for k in range(args.max_k + 1):
        value = dim_irrep(args.p, k)
        dims.append(int(round(value)) if value < 2**53 else value)
    return {"n": args.n, "max_k": args.max_k, "dims": dims}


def _run_theta(args: argparse.Namespace) -> dict:
    iso = isometry(args.p, args.t, max_dim=args.max_dim)
    closed, trace = iso.theta_closed, iso.theta_trace
    return {
        "triple": asdict(args.t),
        "theta_closed": closed,
        "theta_trace": trace,
        "residual": trace - closed,
        "rel_err": abs(trace - closed) / closed,
    }


def _run_jw_verify(args: argparse.Namespace) -> dict:
    report = verify_jw(args.p, args.k, jw_projection(args.p, args.k, max_dim=args.max_dim))
    return {**asdict(report), "dim": int(round(dim_irrep(args.p, args.k)))}


def _run_isometry(args: argparse.Namespace) -> dict:
    iso = isometry(args.p, args.t, max_dim=args.max_dim)
    with _blas_threads(2 * iso.legs.shape[0] * iso.legs.shape[1] ** 2):
        gram = iso.legs.T @ iso.legs  # B_l (x) B_m has orthonormal columns: no lift needed
    return {
        "triple": asdict(args.t),
        "scale": iso.scale,
        "theta_closed": iso.theta_closed,
        "theta_trace": iso.theta_trace,
        "orthonormality_residual": float(np.abs(gram - np.eye(gram.shape[0])).max()),
    }


def _closed_form_max(p, t: AdmissibleTriple) -> float:
    """[k+1]/theta, the largest squared Schmidt value: 1.0 at r = 0, else from
    `rd_bound`, whose ValueError refuses N = 2, where it is not the maximum."""
    return 1.0 if t.r == 0 else rd_bound(p, t)[0]


def _run_schmidt(args: argparse.Namespace) -> dict:
    lam = _closed_form_max(args.p, args.t)
    report = schmidt_spectrum(witness_image(isometry(args.p, args.t, max_dim=args.max_dim)))
    payload = {
        **asdict(report),
        "triple": asdict(args.t),
        "input": "alternating-word",
        "coefficients": report.coefficients[report.coefficients > 1e-14],
        "closed_form_max": lam,
        "residual": report.max - lam,
    }
    return _in_log_base(payload, args)


def _run_max_schmidt(args: argparse.Namespace) -> dict:
    closed = math.sqrt(_closed_form_max(args.p, args.t))
    res = max_schmidt_optimizer(
        args.p, args.t, restarts=args.restarts, tol=args.tol, seed=args.seed,
        max_dim=args.max_dim,
    )
    return {
        "triple": asdict(args.t),
        "value": res.value,
        "value_squared": res.value * res.value,
        "closed_form": closed,
        "residual": res.value - closed,
        "converged": res.converged,
        "sweeps": res.sweeps,
    }


def _run_saturation(args: argparse.Namespace) -> dict:
    return asdict(verify_saturation(args.p, args.t, max_dim=args.max_dim))


def _run_channel(args: argparse.Namespace) -> dict:
    rep = channel_norm_report(
        args.p, args.t, restarts=args.restarts, seed=args.seed, tol=args.tol,
        max_dim=args.max_dim,
    )
    return {**asdict(rep), "direction": _TRACED[args.direction]}


def _moe(p, t: AdmissibleTriple, args: argparse.Namespace) -> dict:
    bracket = moe_bracket(
        p, t, samples=args.samples, restarts=args.restarts, seed=args.seed, tol=args.tol,
        max_dim=args.max_dim,
    )
    return _in_log_base(asdict(bracket), args)


def _run_moe(args: argparse.Namespace) -> dict:
    return {**_moe(args.p, args.t, args), "direction": _TRACED[args.direction]}


def _run_choi(args: argparse.Namespace) -> dict:
    rep = choi_witness_value(
        args.p, args.t, args.d, args.scale, samples=args.samples, seed=args.seed,
        max_dim=args.max_dim,
    )
    return {**asdict(rep), "prediction_residual": rep.witness_value - rep.predicted_value}


def _sweep_row(p, t: AdmissibleTriple, args: argparse.Namespace) -> dict:
    row = {"n": p.n, **asdict(t), "skipped": True}
    try:
        lam, coarse = rd_bound(p, t)  # refuses N = 2
    except ValueError as exc:
        return {**row, "skip_reason": str(exc)}
    try:
        iso = isometry(p, t, max_dim=args.max_dim)  # raises before it allocates
    except DimensionCapError:
        return {**row, "skip_reason": f"ambient dimension exceeds cap {args.max_dim}"}
    moe = _moe(p, t, args)
    family = witness_family_size(p, t)
    row.update(
        {
            "skipped": False,
            "skip_reason": "",
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


def _run_sweep(args: argparse.Namespace) -> dict:
    if args.n_max < args.n_min:
        raise ValueError(f"--n-max {args.n_max} below --n-min {args.n_min}")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        p = quantum_parameter(n)
        for l in range(1, args.max_l + 1):
            for m in range(1, args.max_m + 1):
                for t in reversed(admissible_triples(l, m)):  # k ascending
                    rows.append(_sweep_row(p, t, args))
    return {
        "n_min": args.n_min,
        "n_max": args.n_max,
        "max_l": args.max_l,
        "max_m": args.max_m,
        "rows": rows,
        "row_count": len(rows),
        "skipped_count": sum(1 for row in rows if row["skipped"]),
        "log_base": args.log_base,
    }


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

_N = ("--n", {"type": _RANK, "required": True, "help": "rank N >= 2"})
_K = ("--k", {"type": _NONNEG, "required": True})
_TRIPLE = (
    _N,
    _K,
    ("--l", {"type": _NONNEG, "required": True}),
    ("--m", {"type": _NONNEG, "required": True}),
)
_MAX_DIM = ("--max-dim", {"type": _POSITIVE, "default": DEFAULT_DIM_CAP,
                          "help": f"ambient dimension cap (default {DEFAULT_DIM_CAP})"})
_SEED = ("--seed", {"type": _NONNEG, "default": 0, "help": "RNG seed (default 0)"})
_OPTIMIZER = (
    _SEED,
    ("--restarts", {"type": _POSITIVE, "default": 20, "help": "optimizer restarts"}),
    ("--tol", {"type": _POSITIVE_FINITE, "default": 1e-12,
               "help": "optimizer convergence tolerance"}),
)
_SAMPLES = ("--samples", {"type": _POSITIVE, "default": 200, "help": "random sample count"})
_LOG_BASE = ("--log-base", {"choices": ("e", "2"), "default": "e",
                            "help": "logarithm base for entropies"})
_DIRECTION = ("--direction", {"choices": tuple(_TRACED), "default": "first",
                              "help": "which tensor factor is traced out (first = left)"})
_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json", "help": "output format"})

# name: (runner, help, every flag it takes besides --format)
_COMMANDS = {
    "dims": (_run_dims, "dimensions of the irreducible spaces",
             (_N, ("--max-k", {"type": _NONNEG, "required": True}))),
    "theta": (_run_theta, "closed-form vs trace-computed theta net", (*_TRIPLE, _MAX_DIM)),
    "jw-verify": (_run_jw_verify, "residuals of a Jones-Wenzl projection", (_N, _K, _MAX_DIM)),
    "isometry": (_run_isometry, "equivariant isometry diagnostics", (*_TRIPLE, _MAX_DIM)),
    "schmidt": (_run_schmidt, "Schmidt spectrum of the embedded alternating-word state",
                (*_TRIPLE, _MAX_DIM, _LOG_BASE)),
    "max-schmidt": (_run_max_schmidt, "largest Schmidt coefficient over the embedded space",
                    (*_TRIPLE, _MAX_DIM, *_OPTIMIZER)),
    "saturation": (_run_saturation, "Schmidt plateau of the witness state against the closed form",
                   (*_TRIPLE, _MAX_DIM)),
    "channel": (_run_channel, "S1 -> Sinf norm of the channel",
                (*_TRIPLE, _MAX_DIM, _DIRECTION, *_OPTIMIZER)),
    "moe": (_run_moe, "minimum-output-entropy bracket",
            (*_TRIPLE, _MAX_DIM, _DIRECTION, *_OPTIMIZER, _SAMPLES, _LOG_BASE)),
    "choi": (_run_choi, "Choi-matrix d-positivity witness",
             (*_TRIPLE, _MAX_DIM, ("--d", {"type": _POSITIVE, "required": True}),
              ("--scale", {"type": _FINITE, "required": True}), _SEED, _SAMPLES)),
    "sweep": (_run_sweep, "one report row per admissible triple over rank and leg ranges",
              (("--n-min", {"type": _RANK, "default": 3}),
               ("--n-max", {"type": _RANK, "default": 5}),
               ("--max-l", {"type": _POSITIVE, "default": 2}),
               ("--max-m", {"type": _POSITIVE, "default": 2}),
               _MAX_DIM, *_OPTIMIZER, _SAMPLES, _LOG_BASE)),
}

_RUNNERS = {name: spec[0] for name, spec in _COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="wenzl-lab",
        description=(
            "Irreducible-space calculus over the deformed tensor categories: "
            "projections, vertices, Schmidt analysis, channels, Choi tests."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, options in (*flags, _FORMAT):
            command.add_argument(flag, **options)
    return parser


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _plain(value):
    """json.dumps hook: numpy arrays and scalars become lists and Python scalars."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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
    flat_rows = []
    for row in rows if isinstance(rows, list) else [report]:
        flat: dict = {}
        _flatten("", row, flat)
        flat_rows.append(flat)
    fields = sorted({key for flat in flat_rows for key in flat})
    writer = csv.DictWriter(stream, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(flat_rows)


def emit(report: dict, fmt: str, stream=None) -> None:
    """Write the report; a NaN or infinite value raises before any output."""
    stream = stream or sys.stdout
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise InvariantViolation(f"report holds a non-finite number: {exc}") from None
    if fmt == "json":
        stream.write(text)
        stream.write("\n")
    else:
        _emit_csv(json.loads(text), stream)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "config": {key: getattr(args, key, None) for key in _CONFIG},
        }
        if hasattr(args, "n"):
            args.p = quantum_parameter(args.n)
        if hasattr(args, "m"):
            args.t = AdmissibleTriple(args.k, args.l, args.m)
        report.update(_RUNNERS[args.command](args))
        emit(report, args.format)
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
