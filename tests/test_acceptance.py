"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Each criterion below sweeps the full supported parameter range (ranks
N in {3, 4, 5}, ambient dimension capped at 4096) at the tolerance the
package promises, and reports a single ``CRITERION nn [...]: PASS/FAIL``
line in the terminal summary (see ``conftest.record_criterion``).

The sweep sets are:

* ``SWEEP_FULL``  - all admissible (k, l, m) with 0 <= l, m <= 4 and
  N^(l+m) <= 4096 (criteria 1, 3, 4, 5, 8);
* ``SWEEP_SMALL`` - the same with l, m <= 3 (optimizer-heavy criteria
  6 and 7);
* criterion 2 covers every rank k with N^k <= 4096.

One deliberate expected failure lives at the end of the file: the
widely quoted lower endpoint ``q^r`` for the channel norm
``[k+1]_q / theta_q(k, l, m)`` is mathematically false (see the xfail
reason), so that containment is recorded as a strict xfail while the
sharp endpoint ``q^r (1 - q^2)`` is verified in criterion 7 proper.
"""

from __future__ import annotations

import functools
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import record_criterion

from wenzl_lab import (
    AdmissibleTriple,
    admissible_triples,
    channel_norm_report,
    choi_witness_value,
    d_positivity_threshold,
    dim_irrep,
    isometry,
    jw_projection,
    max_schmidt_optimizer,
    moe_bracket,
    onb_of_irrep,
    quantum_parameter,
    rd_bound,
    rd_certificate,
    verify_jw,
    verify_saturation,
)

DIM_CAP = 4096
P3 = quantum_parameter(3)
P4 = quantum_parameter(4)
P5 = quantum_parameter(5)
PARAMS = (P3, P4, P5)

THETA_REL_TOL = 1e-7
THETA_TIME_BUDGET_S = 120.0
JW_RESIDUAL_TOL = 1e-9
JW_TRACE_REL_TOL = 1e-8
ISOMETRY_TOL = 1e-9
RD_SAMPLES = 200
SATURATION_REL_TOL = 1e-8
OPTIMIZER_REL_TOL = 1e-6
OPTIMIZER_OVERSHOOT_TOL = 1e-8
NORM_REL_TOL = 1e-6
MOE_SLACK = 1e-8
MOE_ZERO_TOL = 1e-9
CHOI_ROOT_TOL = 1e-9
CHOI_SAMPLE_FLOOR = -1e-6
MASS_REL_TOL = 1e-9


def _triples(max_lm: int) -> list:
    out = []
    for p in PARAMS:
        for l in range(max_lm + 1):
            for m in range(max_lm + 1):
                if p.n ** (l + m) > DIM_CAP:
                    continue
                for t in admissible_triples(l, m):
                    out.append((p, t))
    return out


SWEEP_FULL = _triples(4)
SWEEP_SMALL = _triples(3)


def criterion(number: int, label: str):
    """Record a PASS/FAIL summary line for the wrapped acceptance test."""

    def wrap(fn):
        @functools.wraps(fn)
        def runner():
            try:
                note = fn()
            except BaseException:
                record_criterion(number, label, False)
                raise
            record_criterion(number, label, True, note or "")

        return runner

    return wrap


@criterion(1, "theta closed form matches brute-force trace")
def test_criterion_01_theta_oracle():
    start = time.monotonic()
    worst = 0.0
    for p, t in SWEEP_FULL:
        iso = isometry(p, t)
        rel = abs(iso.theta_trace - iso.theta_closed) / iso.theta_closed
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert worst <= THETA_REL_TOL, f"worst theta rel err {worst:.3e}"
    assert elapsed < THETA_TIME_BUDGET_S, f"theta sweep took {elapsed:.1f}s"
    return f"{len(SWEEP_FULL)} triples, worst rel err {worst:.2e}, {elapsed:.1f}s"


@criterion(2, "Jones-Wenzl projections valid at every rank under the cap")
def test_criterion_02_jones_wenzl():
    checked = 0
    for p in PARAMS:
        k = 0
        while p.n**k <= DIM_CAP:
            rep = verify_jw(p, k, jw_projection(p, k))
            assert rep.idempotence <= JW_RESIDUAL_TOL, (p.n, k, rep)
            assert rep.symmetry <= JW_RESIDUAL_TOL, (p.n, k, rep)
            assert rep.cap_annihilation <= JW_RESIDUAL_TOL, (p.n, k, rep)
            assert rep.trace_rel <= JW_TRACE_REL_TOL, (p.n, k, rep)
            assert rep.ok
            cols = onb_of_irrep(p, k).columns
            assert cols.shape[1] == round(dim_irrep(p, k)), (p.n, k)
            fixed = float(np.abs(jw_projection(p, k) @ cols - cols).max())
            assert fixed <= JW_RESIDUAL_TOL, (p.n, k, fixed)
            gram = cols.T @ cols
            gram[np.diag_indices_from(gram)] -= 1.0
            assert float(np.abs(gram).max()) <= JW_RESIDUAL_TOL, (p.n, k)
            checked += 1
            k += 1
    return f"{checked} projections, ranks up to k=7"


@criterion(3, "equivariant maps are exact isometries into the right range")
def test_criterion_03_isometry_contract():
    worst_gram = 0.0
    worst_range = 0.0
    for p, t in SWEEP_FULL:
        iso = isometry(p, t)
        reduced = iso.reduced
        dim_k = reduced.shape[1]
        gram = reduced.T @ reduced
        gram[np.diag_indices_from(gram)] -= 1.0
        worst_gram = max(worst_gram, float(np.abs(gram).max()))

        nl, nm = p.n**t.l, p.n**t.m
        pl = jw_projection(p, t.l)
        pm = jw_projection(p, t.m)
        flat = reduced.reshape(nl, nm * dim_k)
        worst_range = max(worst_range, float(np.abs(pl @ flat - flat).max()))
        cube = reduced.reshape(nl, nm, dim_k)
        proj = pm @ cube
        worst_range = max(worst_range, float(np.abs(proj - cube).max()))
    assert worst_gram <= ISOMETRY_TOL, f"worst gram residual {worst_gram:.3e}"
    assert worst_range <= ISOMETRY_TOL, f"worst range residual {worst_range:.3e}"
    return (
        f"{len(SWEEP_FULL)} triples, gram {worst_gram:.2e}, "
        f"range {worst_range:.2e}"
    )


@criterion(4, "rapid-decay certificate never violated by random inputs")
def test_criterion_04_rd_certificate():
    worst_margin = -math.inf
    for p, t in SWEEP_FULL:
        exact, coarse = rd_bound(p, t)
        assert exact <= coarse * (1 + 1e-12), (p.n, t)
        cert = rd_certificate(p, t, samples=RD_SAMPLES, seed=0)
        assert not cert.violated, (p.n, t, cert)
        assert cert.samples == RD_SAMPLES
        worst_margin = max(worst_margin, cert.max_observed - cert.bound_exact)
    assert worst_margin <= 1e-8
    return (
        f"{len(SWEEP_FULL)} triples x {RD_SAMPLES} samples, "
        f"worst overshoot {worst_margin:.2e}"
    )


@criterion(5, "top Schmidt plateau equals [k+1]/theta with the index family size")
def test_criterion_05_saturation_plateau():
    spots = {}
    count = 0
    for p, t in SWEEP_FULL:
        if t.r < 1:
            continue
        rep = verify_saturation(p, t)
        assert rep.plateau_ok, (p.n, t, rep)
        assert rep.max_rel_err <= SATURATION_REL_TOL, (p.n, t, rep)
        spots[(p.n, t.k, t.l, t.m)] = rep
        count += 1
    bell_like = spots[(3, 1, 1, 2)]
    assert bell_like.family_size == 1
    assert bell_like.lambda_expected == pytest.approx(3 / 8, rel=1e-12)
    square = spots[(4, 2, 2, 2)]
    assert square.family_size == 2
    assert square.lambda_expected == pytest.approx(2 / 7, rel=1e-12)
    return f"{count} witness triples, spot checks 3/8 (|A|=1) and 2/7 (|A|=2)"


@criterion(6, "alternating optimizer attains the closed-form maximal Schmidt value")
def test_criterion_06_optimizer_attainment():
    worst_rel = 0.0
    worst_overshoot = -math.inf
    for p, t in SWEEP_SMALL:
        res = max_schmidt_optimizer(p, t, restarts=20, seed=0)
        assert res.converged, (p.n, t)
        closed = math.sqrt(rd_bound(p, t)[0])
        worst_rel = max(worst_rel, abs(res.value - closed) / closed)
        worst_overshoot = max(worst_overshoot, res.value - closed)
    assert worst_rel <= OPTIMIZER_REL_TOL, f"worst rel err {worst_rel:.3e}"
    assert worst_overshoot <= OPTIMIZER_OVERSHOOT_TOL
    return (
        f"{len(SWEEP_SMALL)} triples, worst rel err {worst_rel:.2e}, "
        f"max overshoot {worst_overshoot:.2e}"
    )


@criterion(7, "S1->Sinf channel norm equals [k+1]/theta inside the sharp bracket")
def test_criterion_07_channel_norm():
    worst_rel = 0.0
    for p, t in SWEEP_SMALL:
        rep = channel_norm_report(p, t, restarts=20, seed=0)
        assert rep.converged, (p.n, t)
        worst_rel = max(worst_rel, abs(rep.norm_1_to_inf - rep.closed_form) / rep.closed_form)
        assert rep.in_sharp_bracket, (p.n, t, rep)
        assert rep.norm_1_to_inf >= rep.bracket_lower_sharp - 1e-8, (p.n, t, rep)
        assert rep.norm_1_to_inf <= rep.bracket_upper * (1 + 1e-9) + 1e-12, (p.n, t, rep)
    assert worst_rel <= NORM_REL_TOL, f"worst rel err {worst_rel:.3e}"
    return (
        f"{len(SWEEP_SMALL)} triples, worst rel err {worst_rel:.2e}; "
        "literal q^r endpoint covered by the strict xfail below"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the often-quoted lower endpoint q^r is not a valid lower bound for "
        "the channel norm [k+1]_q/theta_q(k,l,m): already in the extreme "
        "case k = |l-m| one has [k+1]/theta = 1/[r+1]_q = "
        "q^r (1-q^2)/(1-q^(2r+2)) < q^r for every r >= 1; e.g. at N=3, "
        "(k,l,m)=(0,1,1) the norm is 1/3 while q = (3-sqrt(5))/2 = 0.38196... "
        "The sharp endpoint q^r (1-q^2) is what holds, and criterion 7 "
        "verifies it across the sweep."
    ),
)
def test_criterion_07_literal_lower_endpoint():
    for p, t in SWEEP_SMALL:
        lam = rd_bound(p, t)[0]
        assert lam >= p.q**t.r - 1e-12, (p.n, t, lam, p.q**t.r)


@criterion(8, "minimum output entropy bracket is ordered and tight where promised")
def test_criterion_08_moe_bracket():
    worst_gap_sign = -math.inf
    bell_gaps = []
    for p, t in SWEEP_FULL:
        b = moe_bracket(p, t, samples=40, restarts=6, seed=0)
        worst_gap_sign = max(worst_gap_sign, b.lower - b.upper)
        assert b.lower <= b.upper + MOE_SLACK, (p.n, t, b)
        assert b.lower >= b.coarse_lower - MOE_SLACK, (p.n, t, b)
        if t.k == 0:
            bell_gaps.append(b.upper - b.lower)
            assert b.upper - b.lower < MOE_SLACK, (p.n, t, b)
        if t.r == 0:
            assert abs(b.lower) <= MOE_ZERO_TOL, (p.n, t, b)
            assert abs(b.upper) <= MOE_ZERO_TOL, (p.n, t, b)
    assert bell_gaps, "sweep must include k=0 triples"
    return (
        f"{len(SWEEP_FULL)} triples, max(lower-upper) {worst_gap_sign:.2e}, "
        f"{len(bell_gaps)} tight k=0 cases, highest-weight ends both 0"
    )


@criterion(9, "d-positivity witness crosses zero exactly at theta/(d [k+1])")
def test_criterion_09_choi_threshold():
    cases = [
        (P3, AdmissibleTriple(0, 1, 1), 1, 3.0),
        (P3, AdmissibleTriple(0, 1, 1), 2, 1.5),
        (P4, AdmissibleTriple(2, 2, 2), 1, 3.5),
        (P4, AdmissibleTriple(2, 2, 2), 2, 1.75),
    ]
    worst_root = 0.0
    for p, t, d, expected in cases:
        thr = d_positivity_threshold(p, t, d)
        assert thr == pytest.approx(expected, rel=1e-12), (p.n, t, d)
        at = choi_witness_value(p, t, d, thr, samples=200, seed=0)
        worst_root = max(worst_root, abs(at.witness_value))
        assert abs(at.witness_value) < CHOI_ROOT_TOL, (p.n, t, d, at)
        assert at.sampled_min >= CHOI_SAMPLE_FLOOR, (p.n, t, d, at)
        below = choi_witness_value(p, t, d, thr * 0.99, samples=1, seed=0)
        above = choi_witness_value(p, t, d, thr * 1.01, samples=1, seed=0)
        assert below.witness_value > 0, (p.n, t, d, below)
        assert above.witness_value < 0, (p.n, t, d, above)
    return (
        f"{len(cases)} threshold cases (3, 1.5, 3.5, 1.75), "
        f"worst |value at root| {worst_root:.2e}"
    )


@criterion(10, "lowest-weight plateau mass (N-2)/N grows with the rank")
def test_criterion_10_asymptotic_mass():
    bell = AdmissibleTriple(0, 1, 1)
    masses = []
    for n in range(3, 10):
        rep = verify_saturation(quantum_parameter(n), bell)
        assert rep.mass == pytest.approx((n - 2) / n, rel=MASS_REL_TOL), n
        masses.append(rep.mass)
    assert all(a < b for a, b in zip(masses, masses[1:])), masses
    assert masses[4] > 0.7, masses  # N = 7
    return (
        f"N=3..9 masses {masses[0]:.3f}..{masses[-1]:.3f}, "
        f"strictly increasing, {masses[4]:.3f} > 0.7 at N=7"
    )


@criterion(11, "CLI output is byte-identical across repeated seeded runs")
def test_criterion_11_cli_determinism():
    commands = [
        ["moe", "--n", "3", "--k", "1", "--l", "1", "--m", "2",
         "--samples", "40", "--restarts", "8", "--seed", "11"],
        ["choi", "--n", "3", "--k", "0", "--l", "1", "--m", "1",
         "--d", "2", "--scale", "1.4", "--samples", "30", "--seed", "5"],
        ["sweep", "--n-min", "3", "--n-max", "4", "--max-l", "1",
         "--max-m", "2", "--samples", "15", "--restarts", "5", "--seed", "2"],
    ]
    for args in commands:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "wenzl_lab.cli", *args],
                capture_output=True,
                check=False,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            assert b"wall_time_s" not in proc.stdout
            outs.append(proc.stdout)
        assert outs[0] == outs[1], f"non-deterministic stdout for {args[0]}"
    return f"{len(commands)} seeded commands, two runs each, stdout bytes equal"
