"""Mean-field limit of the additive coalescent and its cost curves.

The cluster-size concentrations q(k, t) solve the additive-kernel
coagulation system with monodisperse start and have the explicit form

    q(k, t) = [k w]^(k-1) / k! * exp(-t - k w),   w = 1 - exp(-t),

with moments sum_k q = e^-t, sum_k k q = 1, sum_k k^2 q = e^{2t}.

Partial merge costs normalized by n converge, uniformly on compact
alpha ranges, to

    phi^c(alpha) = int_0^{-log(1-alpha)} sum_k sum_l c(k,l) (k+l)/2
                                         q(k,t) q(l,t) dt

where c is the conditional mean cost of a merge of sizes {k, l}.  The
(k+l)/2 factor is the merge intensity; with it the unit cost c = 1
integrates to alpha, matching the event count.  All phi curves here are
normalized so that phi(0) = 0; the classical table values for QF,
Predator and Displacement sit 1/2, 1 and 1/2 above these (their alpha=0
offsets).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .cost_engine import Functional, alpha_in_range

DEFAULT_TOL = 1e-8
_MASS_TOL = 1e-10
_MIN_PANELS = 64
_MAX_PANELS = 1 << 16
_KMAX_HARD = 1 << 21
_ALPHA_MAX = 0.98  # the cutoff kmax grows like (1 - alpha)^-2 toward alpha = 1
_TINY = np.finfo(float).tiny  # smallest normal float; below it q has underflowed


class QuadratureError(RuntimeError):
    """Composite Simpson failed to converge within the panel budget."""


def alpha_to_time(alpha: float) -> float:
    """Time horizon of the alpha*n-th merge: -log(1 - alpha)."""
    if not alpha_in_range(alpha):
        raise ValueError("alpha must be in [0, 1)")
    return -math.log1p(-alpha)


def q(k: int, t: float) -> float:
    """Concentration of size-k clusters at time t (log-space evaluation)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    w = -math.expm1(-t)  # 1 - e^-t
    if w == 0.0:
        return 1.0 if k == 1 else 0.0
    return math.exp((k - 1) * math.log(k * w) - math.lgamma(k + 1) - t - k * w)


def _k_terms(kmax: int):
    """The t-free parts of log q(k, t) for k = 1..kmax: k, k - 1 and log k!."""
    ks = np.arange(1, kmax + 1, dtype=np.float64)
    return ks, ks - 1.0, gammaln(ks + 1.0)


def _q_from_terms(terms, t: float) -> np.ndarray:
    """q(k, t) over the k of `_k_terms`."""
    ks, km1, log_fact = terms
    w = -math.expm1(-t)
    if w == 0.0:
        out = np.zeros(len(ks))
        out[0] = 1.0
        return out
    return np.exp(km1 * np.log(ks * w) - log_fact - t - ks * w)


def q_vector(kmax: int, t: float) -> np.ndarray:
    """q(k, t) for k = 1..kmax as a float64 array."""
    return _q_from_terms(_k_terms(kmax), t)


def moment(t: float, p: int, method: str = "closed", tol: float = 1e-10) -> float:
    """Moment sum_k k^p q(k, t) for p in {0, 1, 2}.

    method="closed" returns e^-t, 1, e^{2t}; method="sum" evaluates the
    truncated series, doubling the cutoff until the increment drops below
    tol (cross-check mode).
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if p not in (0, 1, 2):
        raise ValueError("p must be 0, 1 or 2")
    if method == "closed":
        return (math.exp(-t), 1.0, math.exp(2.0 * t))[p]
    if method != "sum":
        raise ValueError("method must be 'closed' or 'sum'")
    kmax = 256
    prev = None
    while kmax <= _KMAX_HARD:
        qv = q_vector(kmax, t)
        ks = np.arange(1, kmax + 1, dtype=np.float64)
        val = float(np.sum(ks**p * qv))
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        kmax *= 2
    raise QuadratureError("moment series did not stabilize")


def smoluchowski_rhs(k: int, t: float) -> float:
    """Right-hand side of the coagulation ODE for q(k, .) at time t.

    (k/2) sum_{j<k} q(j)q(k-j) - q(k) sum_j (j+k) q(j), with the infinite
    j-sum truncated once its leftover first-moment mass drops below 1e-12.
    """
    kmax = 256
    while True:
        qv = q_vector(kmax, t)
        ks = np.arange(1, kmax + 1, dtype=np.float64)
        residual = abs(1.0 - float(np.sum(ks * qv)))
        if residual < 1e-12 or kmax > _KMAX_HARD:
            break
        kmax *= 2
    gain = 0.0
    if k >= 2:
        j = np.arange(1, k, dtype=np.int64)
        gain = 0.5 * k * float(np.sum(qv[j - 1] * qv[k - j - 1]))
    loss = q(k, t) * float(np.sum((ks + k) * qv))
    return gain - loss


# ---------------------------------------------------------------------------
# phi curves
# ---------------------------------------------------------------------------

_CLOSED_FORMS = {
    Functional.QF: lambda a: 0.5 * a / (1.0 - a) - 0.5 * math.log1p(-a),
    Functional.PREY: lambda a: -math.log1p(-a),
    Functional.QFB: lambda a: -math.log1p(-a),
    Functional.PREDATOR: lambda a: a / (1.0 - a),
    Functional.DISPLACEMENT: lambda a: 0.5 * a / (1.0 - a),
}

_CLASSICAL_TABLE = {
    Functional.QF: lambda a: 0.5 * (1.0 / (1.0 - a) - math.log1p(-a)),
    Functional.PREY: lambda a: -math.log1p(-a),
    Functional.QFB: lambda a: -math.log1p(-a),
    Functional.PREDATOR: lambda a: 1.0 / (1.0 - a),
    Functional.DISPLACEMENT: lambda a: 0.5 / (1.0 - a),
}


def phi_closed_form(functional, alpha: float) -> float:
    """Normalized limit curve phi(alpha) of C_{n, ceil(alpha n)} / n.

    Closed forms exist for QF, Prey (= QFB) and Predator.  For
    Displacement this returns the idealized table curve alpha/(2(1-alpha))
    whose conditional cost is (x^2+y^2)/(2(x+y)); simulated displacement
    totals follow phi_displacement_floor instead (D lives on {0..L-1}).
    QFW has no closed form and raises ValueError; phi_curve_quadrature
    computes its curve.
    """
    if not alpha_in_range(alpha):
        raise ValueError("alpha must be in [0, 1)")
    functional = Functional(functional)
    if functional is Functional.QFW:
        raise ValueError("qfw has no closed form; use phi_curve_quadrature")
    return _CLOSED_FORMS[functional](alpha)


def phi_displacement_floor(alpha: float) -> float:
    """Limit curve of the implemented displacement totals.

    D uniform on {0, ..., L-1} costs 1/2 less per merge than the
    idealized table cost, which integrates to -alpha/2.
    """
    if not alpha_in_range(alpha):
        raise ValueError("alpha must be in [0, 1)")
    return 0.5 * alpha / (1.0 - alpha) - 0.5 * alpha


def phi_classical_table(functional, alpha: float):
    """Unnormalized table value (phi + its alpha=0 offset), None for QFW."""
    functional = Functional(functional)
    fn = _CLASSICAL_TABLE.get(functional)
    return None if fn is None else fn(alpha)


def phi_comparison_curve(functional, alpha: float) -> float:
    """The curve simulated C/n values converge to, per functional.

    Same as phi_closed_form except Displacement, which uses the floor
    convention actually realized by the event streams.
    """
    functional = Functional(functional)
    if functional is Functional.DISPLACEMENT:
        return phi_displacement_floor(alpha)
    return phi_closed_form(functional, alpha)


@dataclass(frozen=True)
class QuadratureResult:
    """phi at one grid point: cumulative value and error estimate, and the
    cutoff of the segment that ends at that point."""

    value: float
    error: float
    kmax: int


class _Integrand:
    """Evaluates I(t) = sum_{k,l} c(k,l) (k+l)/2 q(k,t) q(l,t), truncated.

    c is the functional's conditional mean cost (cost_engine.conditional_mean).
    Each functional uses an exact rearrangement of the truncated double sum:
    products of the moments m_p = sum_k k^p q_k, or a prefix-sum form for
    QFW's min(k, l).
    """

    def __init__(self, functional, kmax: int):
        self.functional = Functional(functional)
        self.kmax = kmax
        self.terms = _k_terms(kmax)  # shared by every node of the segments using kmax

    def __call__(self, t: float) -> float:
        qv = _q_from_terms(self.terms, t)
        ks = self.terms[0]
        m1 = float(np.dot(ks, qv))
        residual = abs(1.0 - m1)
        if residual > 10.0 * _MASS_TOL:
            raise QuadratureError(
                f"truncation mass residual {residual:.2e} at t={t:.4f} (kmax={self.kmax})"
            )
        functional = self.functional
        if functional is Functional.QFW:
            kq = ks * qv
            m0 = float(np.sum(qv))
            p1 = np.cumsum(kq)
            q1 = np.cumsum(qv)
            # sum_l min(k,l) q_l, then weight by k q_k (symmetrized kernel)
            mvec = p1 + ks * (m0 - q1)
            return float(np.dot(kq, mvec))
        m0 = float(np.sum(qv))
        m2 = float(np.dot(ks * ks, qv))
        if functional in (Functional.PREY, Functional.QFB):
            return m1 * m1
        if functional is Functional.PREDATOR:
            return m2 * m0
        if functional is Functional.QF:
            return 0.5 * (m2 * m0 + m1 * m1)
        # displacement, floor convention: ((k^2+l^2)/(k+l) - 1)/2 * (k+l)/2
        return 0.5 * m2 * m0 - 0.25 * (m1 * m0 + m0 * m1)


def _choose_kmax(t_max: float, tol: float, start: int = 1024) -> int:
    """Smallest power-of-two cutoff of at least max(start, 1024) passing both
    tail certificates at t_max.

    Certificates: leftover first-moment mass below the configured bound,
    and a ratio-test majorization of sum_{k>K} k^2 q(k, t_max) below
    max(tol * 1e-3, 1e-12).  Every functional's cost is at most linear in
    the merged sizes, so with the (k+l)/2 intensity the summand is O(k^2).
    A last term below the smallest normal float has underflowed, like an
    exact zero, and passes the tail test: subnormal terms carry no ratio.
    Both tails grow with t, so a cutoff certified at t_max holds at every
    earlier time, and the cutoff does not decrease in t_max: a search
    started at an earlier time's cutoff skips only cutoffs that fail.
    """
    if t_max == 0.0:
        return 256
    target = max(tol * 1e-3, 1e-12)
    kmax = max(start, 1024)
    while kmax <= _KMAX_HARD:
        qv = q_vector(kmax, t_max)
        ks = np.arange(1, kmax + 1, dtype=np.float64)
        residual = 1.0 - float(np.dot(ks, qv))
        a_last = kmax**2 * qv[-1]
        a_prev = (kmax - 1) ** 2 * qv[-2]
        ok_tail = False
        if a_last < _TINY:
            ok_tail = True
        elif a_prev > 0.0 and a_last < a_prev:
            r = a_last / a_prev
            ok_tail = a_last * r / (1.0 - r) < target
        if abs(residual) < _MASS_TOL and ok_tail:
            return kmax
        kmax *= 2
    raise QuadratureError(f"no admissible truncation below {_KMAX_HARD} for t={t_max:.3f}")


def _simpson(f, a: float, b: float, tol: float):
    """Composite Simpson with panel doubling on [a, b] until |delta| < tol."""
    if b <= a:
        return 0.0, 0.0
    cache = {}

    def eval_at(ratio: float) -> float:
        # panel counts are powers of two, so ratios are exact dyadics
        try:
            return cache[ratio]
        except KeyError:
            val = f(a + (b - a) * ratio)
            cache[ratio] = val
            return val

    prev = None
    panels = _MIN_PANELS
    while panels <= _MAX_PANELS:
        h = (b - a) / panels
        total = eval_at(0.0) + eval_at(1.0)
        for j in range(1, panels):
            total += (4.0 if j % 2 else 2.0) * eval_at(j / panels)
        val = total * h / 3.0
        if prev is not None and abs(val - prev) < tol:
            return val, abs(val - prev)
        prev = val
        panels *= 2
    raise QuadratureError(f"Simpson did not converge below {tol:g} within {_MAX_PANELS} panels")


def check_alpha_grid(alphas) -> None:
    """Raise ValueError unless alphas increase strictly within [0, _ALPHA_MAX]."""
    alphas = list(alphas)
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be strictly increasing")
    if alphas and not 0.0 <= alphas[0]:
        raise ValueError("alpha grid must be nonnegative")
    if alphas and alphas[-1] > _ALPHA_MAX:
        raise ValueError(f"alpha grid must stay <= {_ALPHA_MAX}")


def phi_curve_quadrature(functional, alphas, tol: float = DEFAULT_TOL):
    """phi(alpha) of a Functional by composite Simpson over [0, -log(1-alpha)].

    Integrates segment by segment along an increasing alpha grid and
    returns a list of QuadratureResult whose values are cumulative, with
    per-point error estimates summed over the segments used.  The double
    sum is truncated per segment, at the cutoff `_choose_kmax` certifies
    at the segment's end time; since the tails grow with t, it holds at
    every node of the segment, and each segment's search starts at the
    previous segment's cutoff.  Segments that share a cutoff share one
    integrand.
    """
    functional = Functional(functional)
    if not 0.0 < tol < math.inf:  # also rejects nan
        raise ValueError(f"tol must be positive and finite, got {tol}")
    alphas = list(alphas)
    check_alpha_grid(alphas)
    seg_tol = tol / max(1, len(alphas))
    out = []
    acc = 0.0
    err_acc = 0.0
    t_prev = 0.0
    integrand = None
    kmax = 1024
    for a in alphas:
        t_next = alpha_to_time(a)
        kmax = _choose_kmax(t_next, tol, kmax)
        if integrand is None or integrand.kmax != kmax:
            integrand = _Integrand(functional, kmax)
        val, err = _simpson(integrand, t_prev, t_next, seg_tol)
        acc += val
        err_acc += err
        out.append(QuadratureResult(acc, err_acc, kmax))
        t_prev = t_next
    return out
