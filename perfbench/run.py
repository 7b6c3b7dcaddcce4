"""wenzl-lab benchmark.

    python3 perfbench/run.py --workload {tower,optimize,sweep} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout. Every pass runs in a fresh interpreter,
so caches start cold and peak RSS means the same thing on every pass; the
program keeps its default threading (see the provenance line). With
--trace 0, passes repeat until S seconds have gone by and the end-to-end
metrics are medians over the passes; setup_s is the median of SETUP_SAMPLES
set-ups in processes of their own. With --trace 1, one untraced and one
traced pass give the per-layer metrics and the tracing overhead.

Stdout ends with a report line (provenance, every pass, failed_ratio) and
then one JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json, each with its unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
SWEEP_ROWS_PER_RANK = 9  # (l, m) in {1, 2}^2 give 2 + 2 + 2 + 3 triples
# A pass still running after this long is killed and counts as failed, so
# that a hung program cannot hold the run past its time limit.
PASS_TIMEOUT_S = 150.0

sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]


def sweep_argv(ranks: tuple[int, ...]) -> list[str]:
    """The sweep a user types; samples and restarts keep their defaults."""
    from checks import SEED

    return [
        "sweep", "--n-min", str(min(ranks)), "--n-max", str(max(ranks)),
        "--max-l", "2", "--max-m", "2", "--seed", str(SEED),
    ]  # fmt: skip


def _spawn(cmd: list[str], name: str) -> dict:
    """Run cmd to completion; its wall time, CPU time, peak RSS and output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out_path = os.path.join(OUT_DIR, f"{name}.out")
    err_path = os.path.join(OUT_DIR, f"{name}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        env["PERFBENCH_SPAWNED_AT"] = repr(start)
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
        "stderr": stderr,
    }


def _worker_result(proc: dict) -> dict | None:
    """The worker's JSON line, or None when it crashed."""
    lines = proc["stdout"].decode(errors="replace").strip().splitlines()
    if proc["returncode"] != 0 or not lines:
        return None
    return json.loads(lines[-1])


class Bench:
    def __init__(self, workload: str, seed: int, ranks: tuple[int, ...]):
        self.workload = workload
        self.seed = seed
        self.ranks = ranks
        self.cli_args = sweep_argv(ranks)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None  # first sweep stdout of this seed

    def _worker(self, *flags: str) -> list[str]:
        return [
            sys.executable, os.path.join(HERE, "worker.py"), self.workload,
            "--seed", str(self.seed), "--ranks", ",".join(map(str, self.ranks)),
            *flags, "--", *self.cli_args,
        ]  # fmt: skip

    def _count(self, failed: int, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def _check_sweep(self, returncode: int, stdout: bytes) -> None:
        from checks import check_sweep

        rows = SWEEP_ROWS_PER_RANK * len(self.ranks)
        failed, problems = check_sweep(returncode, stdout, rows, self.reference)
        self._count(failed, rows, problems)
        if self.reference is None and not failed:
            self.reference = stdout

    def _crashed(self, proc: dict, what: str) -> None:
        self._count(1, 1, [f"{self.workload} {what} crashed:\n{proc['stderr'][-4000:]}"])

    def setup(self) -> float:
        proc = _spawn(self._worker("--setup-only"), "setup")
        result = _worker_result(proc)
        if result is None:
            self._crashed(proc, "set-up")
            return proc["wall_s"]
        return result["setup_s"]

    def one_pass(self, traced: bool = False) -> dict:
        """Run one pass, check its outputs and return its measurements."""
        if self.workload == "sweep" and not traced:
            cmd = [sys.executable, "-m", "wenzl_lab.cli", *self.cli_args]
            proc = _spawn(cmd, "sweep")
            self._check_sweep(proc["returncode"], proc["stdout"])
            return {k: proc[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        flags = ["--trace", "--spans-out", os.path.join(OUT_DIR, f"spans-{self.workload}.jsonl")]
        proc = _spawn(self._worker(*(flags if traced else [])), "pass")
        result = _worker_result(proc)
        if result is None:
            self._crashed(proc, "pass")
            return {k: proc[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        if self.workload == "sweep":
            self._check_sweep(result["returncode"], result["stdout"].encode())
            # Like the untraced CLI process: interpreter start, import and main(),
            # without the benchmark's own imports.
            result.update(
                wall_s=result["setup_s"] + result["wall_s"], peak_rss_mb=proc["peak_rss_mb"]
            )
        else:
            self._count(result["failed"], result["attempted"], result["problems"])
        out = {k: result[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        if traced:
            out["layers"] = result["layers"]
        return out


def _openblas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of numpy's bundled library."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _openblas_threads(),
        "optimizer_pool_workers": min(20, os.cpu_count() or 1),
        "thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, ranks=(3, 4, 5)):
    """(report, result): the report line and the final result line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    bench = Bench(workload, seed, ranks)
    report = {"workload": workload, "seed": seed, "provenance": provenance()}
    if trace:
        base = bench.one_pass()
        traced = bench.one_pass(traced=True)
        if "layers" not in traced:
            raise RuntimeError(f"traced pass crashed: {bench.problems[-1]}")
        values = traced.pop("layers")
        values["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
        report["passes"] = [base, traced]
    else:
        setups = [bench.setup() for _ in range(SETUP_SAMPLES)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(bench.one_pass())
        values = {
            key: statistics.median(p[key] for p in passes)
            for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        values["setup_s"] = statistics.median(setups)
        report.update(setup_samples=setups, passes=passes)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    report["failed_ratio"] = {"value": bench.failed / max(bench.attempted, 1), "unit": "ratio"}
    report["problems"] = bench.problems[:20]
    result = {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tower", "optimize", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = ("BENCHMARK.json", "src/wenzl_lab/__init__.py", "tests/test_acceptance.py")
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"not a wenzl-lab checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
