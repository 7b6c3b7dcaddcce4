"""The deferred OpenBLAS pool: a process that imports wenzl_lab before numpy
loads OpenBLAS on one thread, and the first build of SPLIT_FLOPS flops or more
starts the pool at OpenBLAS's own default count.

Every case runs a fresh interpreter, since the pool is started only once per
process and this one imported numpy first (conftest).  Each child prints one
JSON line: its OS thread count, the live BLAS count, OpenBLAS's
`get_num_procs`, and `OPENBLAS_NUM_THREADS` as its `os.environ` holds it.
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
import json, os
from wenzl_lab import AdmissibleTriple, isometry, jones_wenzl, quantum_parameter

def big_build():  # the N=4 (6,4,2) leg vertex, 5.3e9 flops
    return isometry(quantum_parameter(4), AdmissibleTriple(6, 4, 2))

def state(**extra):
    live = jones_wenzl._openblas("scipy_openblas_get_num_threads64_")
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
    body = "np.save({!r}, big_build().legs)\nstate(deferred=jones_wenzl._pool_deferred)"
    deferred = run_child("import numpy as np\n" + body.format(str(tmp_path / "deferred.npy")))
    first = run_child(body.format(str(tmp_path / "first.npy")), prelude="import numpy as np\n")
    assert deferred["blas"] == deferred["procs"] and not deferred["deferred"]
    assert first["blas"] == first["procs"]
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


def test_pool_started_under_another_threads_scope_is_the_count_it_restores():
    """While a second thread holds `_blas_threads()`, the large build leaves the
    live count at 1 (the scope is process-wide); the scope's close starts the pool."""
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
big_build()
during = jones_wenzl._openblas("scipy_openblas_get_num_threads64_")()
release.set()
worker.join(60)
state(during=during, alive=worker.is_alive(), deferred=jones_wenzl._pool_deferred)
"""
    got = run_child(body)
    assert (got["during"], got["alive"]) == (1, False)
    assert got["blas"] == got["procs"] and not got["deferred"]


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
