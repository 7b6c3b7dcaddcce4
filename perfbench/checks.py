"""Correctness checks for each workload's outputs.

The sweeps and tolerances come from the acceptance suite, so the benchmark
checks exactly what tests/test_acceptance.py promises. Each check takes
one operation's result and returns the problems it found; an empty list
means the operation passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from test_acceptance import (
    ISOMETRY_TOL,
    MOE_SLACK,
    OPTIMIZER_OVERSHOOT_TOL,
    OPTIMIZER_REL_TOL,
    RD_SAMPLES,
    SWEEP_FULL,
    SWEEP_SMALL,
    THETA_REL_TOL,
)

from wenzl_lab.qnum import dim_irrep, rd_bound

# The seed every seeded program call gets, as in criteria 4 and 6. The
# optimizer's cost depends on its random starts: with seeds 1-5 one
# optimize pass took 19-29 s, a spread across seeds wider than any bound
# the benchmark may set. The benchmark's own --seed orders the work instead.
SEED = 0

__all__ = [
    "SEED",
    "RD_SAMPLES",
    "SWEEP_FULL",
    "SWEEP_SMALL",
    "check_isometry",
    "check_optimum",
    "check_sweep",
]


def check_isometry(p, t, iso) -> list[str]:
    """θ closed form vs trace, basis dimension [k+1]_q, and alpha* alpha = 1."""
    problems = []
    rel = abs(iso.theta_trace - iso.theta_closed) / iso.theta_closed
    if not rel <= THETA_REL_TOL:
        problems.append(f"theta rel err {rel:.3e}")
    want = round(dim_irrep(p, t.k))
    got = (iso.basis.columns.shape[1], iso.reduced.shape[1])
    if got != (want, want):
        problems.append(f"basis dimension {got}, expected {want}")
    gram = iso.reduced.T @ iso.reduced
    gram[np.diag_indices_from(gram)] -= 1.0
    residual = float(np.abs(gram).max()) if gram.size else 0.0
    if not residual <= ISOMETRY_TOL:
        problems.append(f"gram residual {residual:.3e}")
    return problems


def check_optimum(p, t, res, cert) -> list[str]:
    """Optimizer converged onto sqrt([k+1]/θ); sampled certificate holds."""
    problems = []
    if not res.converged:
        problems.append("optimizer did not converge")
    closed = math.sqrt(rd_bound(p, t)[0])
    rel = abs(res.value - closed) / closed
    if not rel <= OPTIMIZER_REL_TOL:
        problems.append(f"optimizer rel err {rel:.3e}")
    if not res.value - closed <= OPTIMIZER_OVERSHOOT_TOL:
        problems.append(f"optimizer overshoot {res.value - closed:.3e}")
    if cert.violated or cert.samples != RD_SAMPLES:
        problems.append(f"rd certificate {cert}")
    return problems


def check_sweep(
    returncode: int, stdout: bytes, expected_rows: int, reference: bytes | None
) -> tuple[int, list[str]]:
    """(failed rows, problems) for one `wenzl-lab sweep` run of expected_rows.

    A run that exits non-zero, prints the wrong number of rows or differs
    byte for byte from the reference run of the same seed fails every row.
    """
    if returncode != 0:
        return expected_rows, [f"exit code {returncode}"]
    if reference is not None and stdout != reference:
        return expected_rows, ["stdout differs from the first run of this seed"]
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError) as exc:
        return expected_rows, [f"unreadable sweep output: {exc!r}"]
    if len(rows) != expected_rows:
        return expected_rows, [f"{len(rows)} rows, expected {expected_rows}"]
    problems = []
    for row in rows:
        where = f"n={row['n']} ({row['k']},{row['l']},{row['m']})"
        if row["skipped"]:
            problems.append(f"{where} skipped: {row['skip_reason']}")
        elif not row["moe_lower"] <= row["moe_upper"] + MOE_SLACK:
            problems.append(f"{where} moe_lower {row['moe_lower']} > moe_upper {row['moe_upper']}")
    return len(problems), problems
