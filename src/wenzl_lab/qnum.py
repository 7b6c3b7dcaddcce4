"""Quantum-integer arithmetic for the representation ring of O_N^+.

For integer rank N >= 2 the quantum parameter q is the root in (0, 1] of
q + 1/q = N.  Quantum integers

    [n]_q = (q^{-n} - q^n) / (q^{-1} - q)

drive every dimension and normalization in the package: the irreducible
H_k has dimension [k+1]_q, and the theta-net evaluation of a trivalent
vertex is a ratio of quantum factorials.  All heavy quantities are kept
in log space so that ranks far beyond machine range stay usable.

Conventions: [0]_q = 0, [1]_q = 1, and at N = 2 (q = 1) the quantum
integers degenerate to ordinary ones, [n]_1 = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvariantViolation

__all__ = [
    "QParams",
    "AdmissibleTriple",
    "quantum_parameter",
    "q_int",
    "q_factorial_log",
    "dim_irrep",
    "log_dim",
    "theta_net",
    "theta_net_log",
    "lambda_log",
    "rd_constant",
    "rd_bound",
    "theta_bound_ratio",
    "admissible_triples",
]


class QParams:
    """Rank N together with its quantum parameter and growable value caches.

    Instances are cheap to create but are meant to be shared: the quantum
    integer and log-factorial tables grow on demand, append-only, and are
    reused by every module downstream.
    """

    __slots__ = ("n", "q", "log_q", "_qint", "_qfact_log")

    def __init__(self, n: int, q: float):
        self.n = n
        self.q = q
        self.log_q = math.log(q)
        self._qint = [0.0, 1.0]  # _qint[m] == [m]_q
        self._qfact_log = [0.0, 0.0]  # _qfact_log[m] == log([m]_q!)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QParams(n={self.n}, q={self.q!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QParams) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("QParams", self.n))

    # -- internal table management -------------------------------------

    def _log_qint(self, m: int) -> float:
        """log [m]_q for m >= 1, evaluated stably (no overflow)."""
        if self.n == 2:
            return math.log(m)
        # [m]_q = q^{-(m-1)} (1 - q^{2m}) / (1 - q^2)
        q = self.q
        return -(m - 1) * self.log_q + math.log1p(-q ** (2 * m)) - math.log1p(-q * q)

    def _ensure(self, m: int) -> None:
        """Grow both tables so that index m is valid."""
        while len(self._qint) <= m:
            s = len(self._qint)
            lg = self._log_qint(s)
            if lg < 36.0:
                # [s] is an integer for integer rank; the three-term
                # recursion keeps it bit-exact while it fits in float
                value = self.n * self._qint[s - 1] - self._qint[s - 2]
            elif lg < 709.0:
                value = math.exp(lg)
            else:
                value = math.inf
            self._qint.append(value)
            self._qfact_log.append(self._qfact_log[s - 1] + lg)


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
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"rank must be an integer >= 2, got {n!r}")
    q = 2.0 / (n + math.sqrt(n * n - 4.0))
    return QParams(n, q)


def q_int(p: QParams, m: int) -> float:
    """Quantum integer [m]_q for m >= 0.

    Raises OverflowError once [m]_q exceeds float range; use
    q_factorial_log for log-space work at such sizes.
    """
    if m < 0:
        raise ValueError(f"quantum integer index must be >= 0, got {m}")
    p._ensure(m)
    value = p._qint[m]
    if math.isinf(value):
        raise OverflowError(f"[{m}]_q overflows float range at n={p.n}")
    return value


def q_factorial_log(p: QParams, m: int) -> float:
    """log of the quantum factorial [m]_q! = prod_{s=1..m} [s]_q, with [0]! = 1."""
    if m < 0:
        raise ValueError(f"quantum factorial index must be >= 0, got {m}")
    p._ensure(m)
    return p._qfact_log[m]


def dim_irrep(p: QParams, k: int) -> float:
    """Dimension [k+1]_q of the k-th irreducible H_k."""
    if k < 0:
        raise ValueError(f"irrep label must be >= 0, got {k}")
    return q_int(p, k + 1)


def log_dim(p: QParams, k: int) -> float:
    """log [k+1]_q = log dim H_k; finite far beyond the float range of [k+1]_q."""
    return q_factorial_log(p, k + 1) - q_factorial_log(p, k)


def theta_net_log(p: QParams, t: AdmissibleTriple) -> float:
    """log theta(k, l, m); always finite for admissible input."""
    k, l, m, r = t.k, t.l, t.m, t.r
    qfl = q_factorial_log
    return (
        qfl(p, r)
        + qfl(p, l - r)
        + qfl(p, m - r)
        + qfl(p, k + r + 1)
        - qfl(p, l)
        - qfl(p, m)
        - qfl(p, k)
    )


def theta_net(p: QParams, t: AdmissibleTriple) -> float:
    """Theta-net value of the trivalent vertex (k, l, m).

    theta = [r]! [l-r]! [m-r]! [k+r+1]! / ([l]! [m]! [k]!), evaluated in
    log space.  Equals the squared ambient Frobenius norm of the vertex
    map, which vertex.isometry recomputes independently as a trace.
    """
    lg = theta_net_log(p, t)
    if lg > 709.0:
        raise OverflowError(f"theta{(t.k, t.l, t.m)} overflows float range at n={p.n}")
    return math.exp(lg)


def lambda_log(p: QParams, t: AdmissibleTriple) -> float:
    """log([k+1]_q / theta(k, l, m)), the log of the top squared Schmidt
    coefficient of alpha(H_k) and of the channel norm S1 -> Sinf."""
    return log_dim(p, t.k) - theta_net_log(p, t)


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
    if exact > coarse * (1.0 + 1e-12):
        raise InvariantViolation(  # pragma: no cover - mathematically impossible
            f"exact bound {exact} exceeds coarse bound {coarse} for {t}"
        )
    return exact, coarse


def theta_bound_ratio(p: QParams, t: AdmissibleTriple) -> float:
    """Ratio [r+1]_q [k+1]_q / theta(k, l, m); always >= 1.

    The numerator dominates theta, which pins the vertex operator norm:
    ||A||^2 = [r+1]_q [k+1]_q / theta <= [r+1]_q.
    """
    return math.exp(log_dim(p, t.r) + lambda_log(p, t))


def admissible_triples(l: int, m: int) -> list[AdmissibleTriple]:
    """All admissible (k, l, m) for fixed legs l, m, in increasing r.

    These are exactly the irreducible summands of H_l (x) H_m:
    k = l + m - 2r for r = 0 .. min(l, m), each with multiplicity one.
    """
    if l < 0 or m < 0:
        raise ValueError(f"legs must be >= 0, got l={l}, m={m}")
    return [AdmissibleTriple(l + m - 2 * r, l, m) for r in range(min(l, m) + 1)]
