"""The three workloads, one pass each, as worker.py runs them.

Each runner returns the pass's timings of its timed section and the
outcome of checking every operation; checks run after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))

import checks  # noqa: E402
from wenzl_lab import cli, entangle, vertex  # noqa: E402
from wenzl_lab.qnum import dim_irrep, quantum_parameter  # noqa: E402

RESTARTS = 20
TOL = 1e-12
# Highest-weight SWEEP_SMALL triples with reduced ~ 4096 x 2911: the same
# code as the rest, but about 220 s per pass, too long to repeat.
OPTIMIZE_EXCLUDED = {(4, 6, 3, 3), (5, 5, 2, 3), (5, 5, 3, 2)}


def irrep_dim(n: int, k: int) -> float:
    return dim_irrep(quantum_parameter(n), k)


def _attempt(call):
    """(result, None), or (None, traceback) when the operation raised."""
    try:
        return call(), None
    except Exception:  # one failed operation must not end the pass
        return None, traceback.format_exc()


def _timed(body):
    wall, cpu = time.perf_counter(), time.process_time()
    value = body()
    return value, time.perf_counter() - wall, time.process_time() - cpu


def _peak_rss_mb() -> float:
    """Peak RSS so far; read before the checks, whose arrays are not the program's."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def checked(triples, results, check) -> dict:
    """Count each (result, error) as failed when it raised or check found problems."""
    problems = []
    failed = 0
    for (p, t), (value, error) in zip(triples, results):
        found = [error] if error else check(p, t, value)
        failed += bool(found)
        problems += [f"n={p.n} (k,l,m)=({t.k},{t.l},{t.m}): {f}" for f in found]
    return {"attempted": len(triples), "failed": failed, "problems": problems}


def tower(args, tracer) -> dict:
    """Cold isometry builds for every SWEEP_FULL triple, in seeded order."""
    if args.setup_only:
        return {}
    triples = [(p, t) for p, t in checks.SWEEP_FULL if p.n in args.ranks]
    random.Random(args.seed).shuffle(triples)
    if tracer:
        tracer.install()
    results, wall, cpu = _timed(
        lambda: [_attempt(lambda: vertex.isometry(p, t)) for p, t in triples]
    )
    peak = _peak_rss_mb()
    if tracer:
        tracer.uninstall()
    out = checked(triples, results, checks.check_isometry)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak, **out}


def optimize(args, tracer) -> dict:
    """Optimizer and rd certificate on prebuilt SWEEP_SMALL isometries, in seeded order."""
    triples = [
        (p, t)
        for p, t in checks.SWEEP_SMALL
        if p.n in args.ranks and (p.n, t.k, t.l, t.m) not in OPTIMIZE_EXCLUDED
    ]
    random.Random(args.seed).shuffle(triples)
    if tracer:
        tracer.install()
    _, prebuild_s, _ = _timed(lambda: [vertex.isometry(p, t) for p, t in triples])
    if args.setup_only:
        return {"prebuild_s": prebuild_s}

    def one(p, t):
        res = entangle.max_schmidt_optimizer(
            p, t, restarts=RESTARTS, tol=TOL, seed=checks.SEED
        )
        cert = entangle.rd_certificate(p, t, samples=checks.RD_SAMPLES, seed=checks.SEED)
        return res, cert

    results, wall, cpu = _timed(
        lambda: [_attempt(lambda: one(p, t)) for p, t in triples]
    )
    peak = _peak_rss_mb()
    if tracer:
        tracer.uninstall()
    out = checked(triples, results, lambda p, t, rc: checks.check_optimum(p, t, *rc))
    return {"prebuild_s": prebuild_s, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak, **out}


def sweep(args, tracer) -> dict:
    """`wenzl-lab sweep` in-process through cli.main; run.py checks stdout."""
    if args.setup_only:
        return {}
    buffer = io.StringIO()
    if tracer:
        tracer.install()
    with contextlib.redirect_stdout(buffer):
        code, wall, cpu = _timed(lambda: cli.main(args.cli_args))
    if tracer:
        tracer.uninstall()
    stdout = buffer.getvalue()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "returncode": code,
        "stdout": stdout,
        "stdout_bytes": len(stdout.encode()),
    }


RUNNERS = {"tower": tower, "optimize": optimize, "sweep": sweep}
