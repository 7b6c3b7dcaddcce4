"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A tiny run of each workload (rank N=3 only, one pass), untraced and
   traced, reports every metric BENCHMARK.json names, with its unit, and
   no failed operation.
2. Each check counts a deliberately perturbed result as a failed operation.
3. Outside a wenzl-lab checkout the benchmark exits non-zero and prints
   no result.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import run  # puts src/ and tests/ on sys.path

import checks  # noqa: E402
import workloads  # noqa: E402
from wenzl_lab import AdmissibleTriple, cli, entangle, quantum_parameter, vertex  # noqa: E402

_failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        _failures.append(what)


def tiny_runs() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for workload in ("tower", "optimize", "sweep"):
        for trace in (False, True):
            report, result = run.run(workload, seed=0, seconds=0, trace=trace, ranks=(3,))
            names = declared["per_layer" if trace else "end_to_end"]
            what = f"{workload} trace={int(trace)}"
            expect(
                list(result["metrics"]) == [m["name"] for m in names],
                f"{what}: every declared metric present",
            )
            expect(
                all(
                    result["metrics"][m["name"]]["unit"] == m["unit"]
                    and isinstance(result["metrics"][m["name"]]["value"], (int, float))
                    for m in names
                ),
                f"{what}: every metric has a number and its unit",
            )
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{what}: {result['attempted']} operations, none failed",
            )
            expect(report["failed_ratio"]["value"] == 0, f"{what}: failed_ratio 0")


def perturbed_results() -> None:
    p = quantum_parameter(3)
    t = AdmissibleTriple(1, 1, 2)
    triples = [(p, t)]

    def failed(results, check) -> int:
        return workloads.checked(triples, results, check)["failed"]

    iso = vertex.isometry(p, t)
    expect(failed([(iso, None)], checks.check_isometry) == 0, "tower: true isometry passes")
    for field, factor in (("theta_trace", 1 + 1e-5), ("reduced", 1 + 1e-6)):
        bad = copy.copy(iso)
        setattr(bad, field, getattr(iso, field) * factor)
        expect(
            failed([(bad, None)], checks.check_isometry) == 1,
            f"tower: {field} scaled by {factor} counts as failed",
        )
    expect(failed([(None, "raised")], checks.check_isometry) == 1, "tower: a raise counts as failed")

    res = entangle.max_schmidt_optimizer(p, t, restarts=workloads.RESTARTS, seed=checks.SEED)
    cert = entangle.rd_certificate(p, t, samples=checks.RD_SAMPLES, seed=checks.SEED)

    def check(p, t, rc):
        return checks.check_optimum(p, t, *rc)

    expect(failed([((res, cert), None)], check) == 0, "optimize: true optimum passes")
    for what, pair in (
        ("value scaled by 1 + 1e-5", (dataclasses.replace(res, value=res.value * (1 + 1e-5)), cert)),
        ("not converged", (dataclasses.replace(res, converged=False), cert)),
        ("violated certificate", (res, dataclasses.replace(cert, violated=True))),
    ):
        expect(failed([(pair, None)], check) == 1, f"optimize: {what} counts as failed")

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(run.sweep_argv((3,)))
    good = buffer.getvalue().encode()
    rows = run.SWEEP_ROWS_PER_RANK
    expect(checks.check_sweep(code, good, rows, good)[0] == 0, "sweep: true output passes")
    report = json.loads(good)
    report["rows"][0]["moe_lower"] = report["rows"][0]["moe_upper"] + 1e-6
    bad = json.dumps(report).encode()
    expect(checks.check_sweep(0, bad, rows, None)[0] == 1, "sweep: moe_lower > moe_upper fails its row")
    expect(checks.check_sweep(0, bad, rows, good)[0] == rows, "sweep: changed stdout fails every row")
    expect(checks.check_sweep(2, good, rows, good)[0] == rows, "sweep: exit code 2 fails every row")
    expect(checks.check_sweep(0, good, rows + 1, None)[0] == rows + 1, "sweep: wrong row count fails")


def bare_directory() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        timeout=180,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout, "bare directory: non-zero exit, no result")


if __name__ == "__main__":
    tiny_runs()
    perturbed_results()
    bare_directory()
    print(f"{len(_failures)} failed" if _failures else "all passed")
    sys.exit(1 if _failures else 0)
