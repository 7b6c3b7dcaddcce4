"""The deferred OpenBLAS pool: a process that imports wenzl_lab before numpy
loads OpenBLAS on one thread and stays there at rest.  The pool lives only
inside a scope of SPLIT_FLOPS flops or more opened with no scope open: it starts
at OpenBLAS's own default count when that scope opens and is shut down when the
last scope closes, so no idle worker spins between builds.

Every case runs a fresh interpreter, since this one imported numpy first
(conftest).  Each child prints one JSON line: its OS thread count, the live
BLAS count, OpenBLAS's `get_num_procs`, and `OPENBLAS_NUM_THREADS` as its
`os.environ` holds it.
"""

from __future__ import annotations

import glob
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import wenzl_lab
from conftest import needs_blas_threads

NUMPY_LIBS = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
needs_deferred_pool = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or not glob.glob(str(NUMPY_LIBS / "*scipy_openblas64_*")),
    reason="no /proc/self/task (not Linux), or numpy bundles no scipy-openblas64",
)
pytestmark = [needs_blas_threads, needs_deferred_pool]

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Imports wenzl_lab (before numpy, unless the case's prelude imported it) and
# defines state(**extra), which prints the child's JSON line.
STATE = """
import json, os, time
from wenzl_lab import AdmissibleTriple, isometry, jones_wenzl, quantum_parameter, vertex

def big_build():  # the N=4 (6,4,2) leg vertex, 5.3e9 flops
    return isometry(quantum_parameter(4), AdmissibleTriple(6, 4, 2))

def live():
    return jones_wenzl._openblas("scipy_openblas_get_num_threads64_")()

def leg_vertex_counts():  # a list that gets the live count at each later leg vertex
    seen, real = [], vertex._leg_vertex
    vertex._leg_vertex = lambda *args: seen.append(live()) or real(*args)
    return seen

def sleep_cpu():  # CPU seconds the whole process spends over a 0.3 s sleep
    start = time.process_time()
    time.sleep(0.3)
    return time.process_time() - start

def state(**extra):
    procs = jones_wenzl._openblas("scipy_openblas_get_num_procs64_")
    print(json.dumps(dict(
        os_threads=len(os.listdir("/proc/self/task")), blas=live(), procs=procs(),
        env=os.environ.get("OPENBLAS_NUM_THREADS"), **extra,
    )))
"""


def run_child(body: str, prelude: str = "", **env_vars: str) -> dict:
    """Run prelude, STATE and body in a fresh interpreter; its last stdout line."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    src = str(pathlib.Path(wenzl_lab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + env.get("PYTHONPATH", "").split(os.pathsep))
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", prelude + STATE + body],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_before_numpy_loads_openblas_on_one_thread():
    got = run_child("state(deferred=jones_wenzl._pool_deferred)")
    assert got == {"os_threads": 1, "blas": 1, "procs": got["procs"], "env": None, "deferred": True}


def test_first_large_build_starts_the_pool_with_the_same_legs(tmp_path):
    """The leg vertex runs at OpenBLAS's own count, as in the numpy-first child, and
    the build shuts the pool down as it returns: one OS thread and a count of 1."""
    body = (
        "seen = leg_vertex_counts()\nnp.save({!r}, big_build().legs)\n"
        "state(during=seen, deferred=jones_wenzl._pool_deferred)"
    )
    deferred = run_child("import numpy as np\n" + body.format(str(tmp_path / "deferred.npy")))
    first = run_child(body.format(str(tmp_path / "first.npy")), prelude="import numpy as np\n")
    assert deferred["during"] == [deferred["procs"]] and deferred["deferred"]
    assert (deferred["os_threads"], deferred["blas"]) == (1, 1)
    assert first["during"] == [first["procs"]] and first["blas"] == first["procs"]
    legs = [np.load(tmp_path / name) for name in ("deferred.npy", "first.npy")]
    assert legs[0].shape == legs[1].shape
    assert float(np.abs(legs[0] - legs[1]).max()) <= 1e-14


@pytest.mark.parametrize(
    "prelude, env_vars, want_env",
    [("", {"OPENBLAS_NUM_THREADS": "2"}, "2"), ("import numpy\n", {}, None)],
    ids=["count-set-by-user", "numpy-imported-first"],
)
def test_no_deferral_when_the_user_set_a_count_or_imported_numpy(prelude, env_vars, want_env):
    got = run_child("state(deferred=jones_wenzl._pool_deferred)", prelude, **env_vars)
    want_blas = 2 if env_vars else got["procs"]
    assert (got["blas"], got["env"], got["deferred"]) == (want_blas, want_env, False)


def test_large_build_under_another_threads_scope_starts_no_pool():
    """While a second thread holds `_blas_threads()`, the large build runs on one
    thread and starts nothing, and the scope's close starts nothing either."""
    body = """
import threading
held, release = threading.Event(), threading.Event()

def hold():
    with jones_wenzl._blas_threads():
        held.set()
        release.wait(60)

worker = threading.Thread(target=hold)
worker.start()
assert held.wait(60)
seen = leg_vertex_counts()
big_build()
release.set()
worker.join(60)
state(during=seen, alive=worker.is_alive(), deferred=jones_wenzl._pool_deferred)
"""
    got = run_child(body)
    assert (got["during"], got["alive"], got["deferred"]) == ([1], False, True)
    assert (got["os_threads"], got["blas"]) == (1, 1)


def test_second_large_build_restarts_the_pool_inside_its_scope():
    """Each large build starts the pool at OpenBLAS's count and shuts it down: the
    N=4 (4,3,3) leg vertex (1.1e8 flops) after big_build runs on the pool again."""
    body = """
seen = leg_vertex_counts()
big_build()
after_first = [len(os.listdir("/proc/self/task")), live()]
isometry(quantum_parameter(4), AdmissibleTriple(4, 3, 3))
state(during=seen, after_first=after_first)
"""
    got = run_child(body)
    assert got["during"] == [got["procs"]] * 2
    assert got["after_first"] == [1, 1] and (got["os_threads"], got["blas"]) == (1, 1)


def test_optimize_pattern_leaves_no_worker_spinning():
    """`optimize`'s set-up build, then the optimizer and the rd certificate on one
    thread: no scope re-creates the pool, so the process idles on one OS thread and
    a 0.3 s sleep, after the build or after the checks, costs no CPU."""
    body = """
from wenzl_lab import max_schmidt_optimizer, rd_certificate
p, t = quantum_parameter(4), AdmissibleTriple(4, 3, 3)
isometry(p, t)
after_build = [len(os.listdir("/proc/self/task")), sleep_cpu()]
max_schmidt_optimizer(p, t)
rd_certificate(p, t)
state(after_build=after_build, after_checks=sleep_cpu())
"""
    got = run_child(body)
    assert got["after_build"][0] == 1 and got["after_build"][1] <= 0.02
    assert (got["os_threads"], got["blas"]) == (1, 1) and got["after_checks"] <= 0.02


def test_small_sweep_starts_no_blas_thread():
    """Every build of this sweep is below SPLIT_FLOPS, so the process that imported
    wenzl_lab first ends it with OpenBLAS's pool never started: one OS thread."""
    body = """
import contextlib, io
from wenzl_lab import cli
argv = ["sweep", "--n-min", "3", "--n-max", "5", "--max-l", "2", "--max-m", "2", "--seed", "0"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
state(code=code)
"""
    got = run_child(body)
    assert (got["code"], got["os_threads"], got["blas"]) == (0, 1, 1)
