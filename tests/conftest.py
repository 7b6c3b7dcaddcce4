"""Shared pytest plumbing: collects acceptance-criterion outcomes and
prints one PASS/FAIL line per criterion and the `src/` line and module
count in the terminal summary, fails any test that leaves the BLAS
thread count changed, and puts a corrupted isometry into the cache."""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import glob
import os
import pathlib

import numpy as np
import pytest

from wenzl_lab import AdmissibleTriple, isometry, jones_wenzl, quantum_parameter, vertex

_criterion_lines: dict[int, str] = {}


def record_criterion(number: int, label: str, ok: bool, note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"CRITERION {number:2d} [{label}]: {verdict}"
    if note:
        line += f" - {note}"
    _criterion_lines[number] = line


def _source_size() -> str:
    """The package's size as `wc -l src/wenzl_lab/*.py` counts it: newlines and modules."""
    paths = list(pathlib.Path(jones_wenzl.__file__).parent.glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in paths)
    return f"SOURCE SIZE: {lines} lines in {len(paths)} modules"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for number in sorted(_criterion_lines):
            terminalreporter.write_line(_criterion_lines[number])
    terminalreporter.write_line(_source_size())


@functools.cache
def _openblas_get_threads():
    """numpy's bundled OpenBLAS thread-count getter, or None without one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return None


def blas_threads() -> int | None:
    """The BLAS thread count OpenBLAS will use now, or None if it cannot be read."""
    get = _openblas_get_threads()
    return None if get is None else get()


needs_blas_threads = pytest.mark.skipif(
    jones_wenzl._openblas("openblas_set_num_threads_local") is None or blas_threads() is None,
    reason="numpy's BLAS has no openblas_set_num_threads_local or no thread-count getter",
)


def record_blas_threads(monkeypatch, module, name, seen, when=lambda *args: True):
    """Wrap module.name so that each call it takes (and `when` accepts)
    appends the BLAS thread count in force to `seen`."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        if when(*args):
            seen.append(blas_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.fixture(autouse=True)
def _blas_threads_restored():
    before = blas_threads()
    yield
    after = blas_threads()
    if after != before:
        pytest.fail(f"test left the BLAS thread count at {after}, found it at {before}")


def put_nan_legs(monkeypatch, at=(0, 0)):
    """Cache alpha at N=3 (2;2,2) with one NaN at legs[at], for the test's
    duration; return its QParams and triple."""
    p, t = quantum_parameter(3), AdmissibleTriple(2, 2, 2)
    iso = isometry(p, t)
    legs = iso.legs.copy()
    legs[at] = np.nan
    monkeypatch.setitem(vertex._iso_cache, (3, 2, 2, 2), dataclasses.replace(iso, legs=legs))
    return p, t
