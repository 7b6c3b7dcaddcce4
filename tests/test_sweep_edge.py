"""The admissible triples under the ambient cap that no acceptance sweep covers.

``SWEEP_EDGE`` holds every admissible (k, l, m) with N^(l+m) <= 4096 and
max(l, m) >= 5: 20 at N=3, 8 at N=4 and 2 at N=5.  Each triple gets the
package's leg-coordinate checks at the acceptance tolerances of
``tests/test_acceptance.py``:

* the theta trace against the closed form;
* L^T L = I for the leg matrix;
* the optimizer's winning restart converged and within
  ``OPTIMIZER_REL_TOL`` of ([k+1]/theta)^(1/2).  The losing restarts are
  not asserted: at N=3 (3;2,5) and (3;5,2), 2 of 20 run to ``max_iters``;
* the saturation plateau, for r >= 1;
* the MOE bracket order, which `moe_bracket` reports once for the pair,
  since complementary outputs share their nonzero spectrum;
* the rapid-decay certificate.

From cold caches the module took 11.2-12.6 s in three runs on 2 cores
with OpenBLAS; its budget is 20 s.
"""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest
from test_acceptance import (
    DIM_CAP,
    ISOMETRY_TOL,
    MOE_SLACK,
    MOE_ZERO_TOL,
    OPTIMIZER_OVERSHOOT_TOL,
    OPTIMIZER_REL_TOL,
    PARAMS,
    RD_SAMPLES,
    SATURATION_REL_TOL,
    SWEEP_FULL,
    THETA_REL_TOL,
)

from wenzl_lab import (
    admissible_triples,
    isometry,
    max_schmidt_optimizer,
    moe_bracket,
    rd_bound,
    rd_certificate,
    verify_saturation,
)

SWEEP_EDGE = [
    (p, t)
    for p in PARAMS
    for l in range(8)
    for m in range(8)
    if p.n ** (l + m) <= DIM_CAP and max(l, m) >= 5
    for t in admissible_triples(l, m)
]


def test_sweep_edge_holds_the_unswept_triples_under_the_cap():
    assert collections.Counter(p.n for p, _ in SWEEP_EDGE) == {3: 20, 4: 8, 5: 2}
    full = {(p.n, t) for p, t in SWEEP_FULL}
    assert not full & {(p.n, t) for p, t in SWEEP_EDGE}


@pytest.mark.parametrize(
    "p,t", SWEEP_EDGE, ids=[f"N{p.n}-{t.k}-{t.l}-{t.m}" for p, t in SWEEP_EDGE]
)
def test_edge_triple_passes_the_leg_checks(p, t):
    iso = isometry(p, t)
    assert abs(iso.theta_trace - iso.theta_closed) <= THETA_REL_TOL * iso.theta_closed
    gram = iso.legs.T @ iso.legs
    gram[np.diag_indices_from(gram)] -= 1.0
    assert float(np.abs(gram).max()) <= ISOMETRY_TOL

    res = max_schmidt_optimizer(p, t, restarts=20, seed=0)
    closed = math.sqrt(rd_bound(p, t)[0])
    assert res.converged
    assert abs(res.value - closed) <= OPTIMIZER_REL_TOL * closed
    assert res.value - closed <= OPTIMIZER_OVERSHOOT_TOL

    if t.r >= 1:
        rep = verify_saturation(p, t)
        assert rep.plateau_ok and rep.max_rel_err <= SATURATION_REL_TOL, rep

    b = moe_bracket(p, t, samples=40, restarts=6, seed=0)
    assert b.lower <= b.upper + MOE_SLACK, b
    assert b.lower >= b.coarse_lower - MOE_SLACK, b
    if t.r == 0:
        assert abs(b.lower) <= MOE_ZERO_TOL and abs(b.upper) <= MOE_ZERO_TOL, b

    cert = rd_certificate(p, t, samples=RD_SAMPLES, seed=0)
    assert not cert.violated, cert
