"""Quantum-integer arithmetic for the representation ring of O_N^+.

For integer rank N >= 2 the quantum parameter q is the root in (0, 1] of
q + 1/q = N.  Quantum integers

    [n]_q = (q^{-n} - q^n) / (q^{-1} - q)

drive every dimension and normalization in the package: the irreducible
H_k has dimension [k+1]_q, and the theta-net evaluation of a trivalent
vertex is a ratio of q-integer products.  Their logs are taken in one
place, `_log_qratio`, so that ranks far beyond float range stay usable.

Conventions: [0]_q = 0, [1]_q = 1, and at N = 2 (q = 1) the quantum
integers degenerate to ordinary ones, [n]_1 = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvariantViolation, _check_int

__all__ = [
    "QParams",
    "AdmissibleTriple",
    "quantum_parameter",
    "q_int",
    "dim_irrep",
    "log_dim",
    "theta_net_log",
    "lambda_log",
    "rd_constant",
    "rd_bound",
    "admissible_triples",
]


@dataclass(frozen=True)
class QParams:
    """Rank N together with its quantum parameter q, the root in (0, 1] of q + 1/q = N."""

    n: int
    q: float


def _log_qratio(p: QParams, over: list[int], under: list[int]) -> float:
    """log(prod_{s in over} [s]_q / prod_{s in under} [s]_q) for labels s >= 1.

    [s]_q = q^{-(s-1)} (1 - q^{2s}) / (1 - q^2): the q-powers sum to one exact
    integer, and math.fsum adds the log1p terms exactly, in any label order."""
    if p.n == 2:
        return math.fsum([*map(math.log, over), *(-math.log(s) for s in under)])
    q = p.q
    power = sum(over) - len(over) - sum(under) + len(under)
    return math.fsum([
        -power * math.log(q),
        (len(under) - len(over)) * math.log1p(-q * q),
        *(math.log1p(-q ** (2 * s)) for s in over),
        *(-math.log1p(-q ** (2 * s)) for s in under),
    ])


@dataclass(frozen=True)
class AdmissibleTriple:
    """Labels (k, l, m) of irreducibles with Hom(H_k, H_l (x) H_m) nonzero.

    Admissibility means k, l, m >= 0, l + m - k is a nonnegative even
    integer, and k >= |l - m|.  The derived field r = (l + m - k) / 2
    counts the contracted strand pairs of the trivalent vertex.
    """

    k: int
    l: int
    m: int
    r: int = field(init=False)

    def __post_init__(self) -> None:
        for name, value in (("k", self.k), ("l", self.l), ("m", self.m)):
            if type(value) is not int or value < 0:  # a bool or np.int64 is not a label
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if (self.l + self.m - self.k) % 2 != 0:
            raise ValueError(
                f"triple ({self.k},{self.l},{self.m}) violates parity: l+m-k must be even"
            )
        r = (self.l + self.m - self.k) // 2
        if r < 0 or r > min(self.l, self.m):
            raise ValueError(
                f"triple ({self.k},{self.l},{self.m}) is not admissible: "
                f"need |l-m| <= k <= l+m, got k={self.k}"
            )
        object.__setattr__(self, "r", r)


def quantum_parameter(n: int) -> QParams:
    """Return QParams for integer rank n >= 2.

    The quantum parameter is the root in (0, 1] of q + 1/q = n, computed
    in the cancellation-free form q = 2 / (n + sqrt(n^2 - 4)).
    """
    n = _check_int("rank", n, 1)
    if n < 2:
        raise ValueError(f"rank must be an integer >= 2, got {n!r}")
    q = 2.0 / (n + math.sqrt(n * n - 4.0))
    return QParams(n, q)


def q_int(p: QParams, m: int) -> float:
    """Quantum integer [m]_q for m >= 0.

    Raises OverflowError once [m]_q exceeds float range; use
    log_dim(p, m - 1) = log [m]_q for log-space work at such sizes.
    """
    m = _check_int("m", m, 0)
    if m < 2 or p.n == 2:
        return float(m)
    lg = _log_qratio(p, [m], [])
    if lg >= 709.0:
        raise OverflowError(f"[{m}]_q overflows float range at n={p.n}")
    if lg >= 36.0:
        return math.exp(lg)
    # [m] is an integer for integer rank; the three-term recursion
    # [s+1] = N [s] - [s-1] keeps it exact, and it fits a float exactly
    prev, cur = 0, 1
    for _ in range(m - 1):
        prev, cur = cur, p.n * cur - prev
    return float(cur)


def dim_irrep(p: QParams, k: int) -> float:
    """Dimension [k+1]_q of the k-th irreducible H_k."""
    return q_int(p, _check_int("k", k, 0) + 1)


def log_dim(p: QParams, k: int) -> float:
    """log [k+1]_q = log dim H_k; finite far beyond the float range of [k+1]_q."""
    return _log_qratio(p, [_check_int("k", k, 0) + 1], [])


def _theta_factors(t: AdmissibleTriple) -> tuple[list[int], list[int]]:
    """theta(k, l, m) = [r]! [l-r]! [m-r]! [k+r+1]! / ([l]! [m]! [k]!), telescoped
    to 2r+1 q-integers over 2r: [k+1..k+r+1] [1..r] / ([l-r+1..l] [m-r+1..m])."""
    k, l, m, r = t.k, t.l, t.m, t.r
    over = [*range(k + 1, k + r + 2), *range(1, r + 1)]
    return over, [*range(l - r + 1, l + 1), *range(m - r + 1, m + 1)]


def theta_net_log(p: QParams, t: AdmissibleTriple) -> float:
    """log theta(k, l, m), the squared ambient Frobenius norm of the vertex map,
    which vertex.isometry recomputes independently as a trace; always finite."""
    return _log_qratio(p, *_theta_factors(t))


def lambda_log(p: QParams, t: AdmissibleTriple) -> float:
    """log([k+1]_q / theta(k, l, m)), the log of the top squared Schmidt
    coefficient of alpha(H_k) and of the channel norm S1 -> Sinf; exactly 0.0 at r = 0."""
    over, under = _theta_factors(t)
    return _log_qratio(p, [t.k + 1, *under], over)


def rd_constant(p: QParams) -> float:
    """Rapid-decay constant C(q) = (1-q^2)^{-1/2} prod_{s>=1} (1-q^{2s})^{-3/2}.

    Defined for n >= 3 (q < 1); the infinite product diverges at q = 1.
    """
    if p.n < 3:
        raise ValueError("rapid-decay constant requires rank >= 3 (q < 1)")
    q2 = p.q * p.q
    log_prod = 0.0
    term = q2
    while term > 1e-300:
        log_prod += math.log1p(-term)
        term *= q2
    return math.exp(-0.5 * math.log1p(-q2) - 1.5 * log_prod)


def rd_bound(p: QParams, t: AdmissibleTriple) -> tuple[float, float]:
    """Exact and coarse upper bounds for the maximal Schmidt coefficient.

    Returns (exact, coarse) where exact = [k+1]_q / theta(k, l, m) and
    coarse = C(q)^2 q^r.  Every unit vector xi in H_k satisfies
    lambda_1(alpha xi) <= exact <= coarse.
    """
    exact = math.exp(lambda_log(p, t))
    c = rd_constant(p)
    coarse = c * c * p.q ** t.r
    if not exact <= coarse * (1.0 + 1e-12):
        raise InvariantViolation(  # pragma: no cover - mathematically impossible
            f"exact bound {exact} exceeds coarse bound {coarse} for {t}"
        )
    return exact, coarse


def admissible_triples(l: int, m: int) -> list[AdmissibleTriple]:
    """All admissible (k, l, m) for fixed legs l, m, in increasing r.

    These are exactly the irreducible summands of H_l (x) H_m:
    k = l + m - 2r for r = 0 .. min(l, m), each with multiplicity one.
    """
    l, m = _check_int("l", l, 0), _check_int("m", m, 0)
    return [AdmissibleTriple(l + m - 2 * r, l, m) for r in range(min(l, m) + 1)]
