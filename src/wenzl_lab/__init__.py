"""Numerical Jones-Wenzl calculus for free orthogonal quantum groups.

Modules build on each other in this order: errors (exception types and
the dimension cap), qnum (scalar quantum arithmetic), jones_wenzl
(projections and irrep bases), vertex (equivariant isometries
in leg coordinates), entangle (Schmidt analysis and witnesses),
channel (equivariant quantum channels and Choi diagnostics), cli.

The package re-exports each library module's `__all__`, the one place a public
name is declared; `clear_caches` stays module-level in `jones_wenzl` and `vertex`.
"""

from __future__ import annotations

import os as _os
import sys as _sys
from importlib.util import find_spec as _find_spec
from pathlib import Path as _Path

# OpenBLAS starts its worker pool when numpy loads it, and the idle worker spins
# about 0.1 s of CPU that builds below SPLIT_FLOPS never use.  So if this import
# loads numpy, the user set no count, and numpy bundles scipy-openblas64 (numpy >= 2,
# with the calls `jones_wenzl._blas_threads` makes), it loads on one thread, the count at rest.
_BLAS_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
_np = None if "numpy" in _sys.modules or _BLAS_VARS & _os.environ.keys() else _find_spec("numpy")
if _np and _np.origin and any(_Path(_np.origin).parents[1].glob("numpy.libs/*scipy_openblas64_*")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        from . import jones_wenzl  # imports numpy, which loads OpenBLAS
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]  # child processes see the user's environment
    jones_wenzl._pool_deferred = True

from .channel import *  # noqa: F401,F403
from .entangle import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .jones_wenzl import *  # noqa: F401,F403
from .qnum import *  # noqa: F401,F403
from .vertex import *  # noqa: F401,F403

__version__ = "0.1.0"
