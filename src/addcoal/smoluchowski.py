"""Mean-field limit of the additive coalescent and its cost curves.

The cluster-size concentrations q(k, t) solve the additive-kernel
coagulation system with monodisperse start and have the explicit form

    q(k, t) = [k w]^(k-1) / k! * exp(-t - k w),   w = 1 - exp(-t),

with moments sum_k q = e^-t, sum_k k q = 1, sum_k k^2 q = e^{2t}.  It is
evaluated as exp((k-1) log w + A_k - k w - t), one log per time and one
exp per term.  A_k = log(k^(k-1) / k!) has one definition,
`log_tree_coefficient`, which rows of q read as a table per cutoff and
the scalar q, p_mk and the Borel(1) mass read directly.  The
integrand of the phi curves evaluates only its live columns, those a
Stirling bound does not place below k^2 q = 1e-30, and writes 0.0 past
them; the cutoff certificates, the moment sums and the ODE right-hand
side read full rows.  The integrand and the cutoff certificates sum a
row's products with numpy's pairwise `add.reduce`, which uses no BLAS, so
the curves do not depend on the BLAS thread count.

Partial merge costs normalized by n converge, uniformly on compact
alpha ranges, to

    phi^c(alpha) = int_0^{-log(1-alpha)} sum_k sum_l k c(k,l) q(k,t) q(l,t) dt

where c(k, l) is the mean cost given L = k and R = l: sizes {k, l} merge
at rate (k+l)/2, with L = k at probability k/(k+l).  Its one definition
is cost_engine.SPLIT_MEANS: a term c k^i l^j sums to c m_(i+1) m_j in the
moments m_p, so the integrand and every closed-form curve derive from it
(QFW's min(k, l) has none).  The unit cost c = 1 integrates to alpha, the
event count.  All phi curves here are normalized so that phi(0) = 0; the
classical table values for QF, Predator and Displacement sit 1/2, 1 and
1/2 above these (their alpha=0 offsets).  The time integral runs segment
by segment along the alpha grid, each segment by adaptive Gauss-Legendre
panels (`_gauss_panels`): the integrand is analytic in t, so a 10-point
Gauss rule is far more accurate than Simpson's rule with as many nodes.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from .cost_engine import SPLIT_MEANS, Functional, alpha_in_range

DEFAULT_TOL = 1e-8
_MASS_TOL = 1e-10
_MAX_DEPTH = 16  # bisection levels below a segment: panels down to 2^-16 of it
_KMAX_HARD = 1 << 21
_CACHE_KMAX = 1 << 15  # the largest cutoff whose `_k_terms` table stays cached
_ALPHA_MAX = 0.98  # the cutoff kmax grows like (1 - alpha)^-2 toward alpha = 1
_TINY = np.finfo(float).tiny  # smallest normal float; below it q has underflowed
_EXP_ZERO = -746.0  # exp(x) rounds to exactly 0.0 below about -745.13
_BATCH_CELLS = 1 << 15  # q values per row batch of the integrand
_STIRLING_FROM = 100  # A_k = log(k^(k-1) / k!) by Stirling's series from this k on
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_NEGLIGIBLE = math.log(1e-30)  # a column with k^2 q below e^this moves no sum


def _panel_rule():
    """The 5- and the 10-point Gauss-Legendre nodes on [-1, 1] in increasing
    order (the two sets are disjoint), their weights, and a mask of the
    5-point rule's nodes."""
    (x5, w5), (x10, w10) = leggauss(5), leggauss(10)
    order = np.argsort(np.concatenate([x5, x10]))
    return np.concatenate([x5, x10])[order], np.concatenate([w5, w10])[order], order < 5


_PANEL_NODES, _PANEL_WEIGHTS, _OF_G5 = _panel_rule()


class QuadratureError(RuntimeError):
    """No cutoff below `_KMAX_HARD` passes `_choose_kmax`'s certificates, an
    integrand node loses mass, or a Gauss-Legendre panel is still open at
    depth `_MAX_DEPTH`."""


def alpha_to_time(alpha: float) -> float:
    """Time horizon of the alpha*n-th merge: -log(1 - alpha)."""
    if not alpha_in_range(alpha):
        raise ValueError("alpha must be in [0, 1)")
    return -math.log1p(-alpha)


def _check_size_and_time(k: int, t: float) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if t < 0.0:
        raise ValueError("t must be >= 0")


def log_tree_coefficient(k):
    """Log tree-function coefficient A_k = log(k^(k-1) / k!), a 0-d array
    for an int k, elementwise for an array: (k-1) log k - gammaln(k+1)
    below k = `_STIRLING_FROM`, then k - 3/2 log k - log(2 pi)/2 - 1/(12k)
    + 1/(360k^3) - 1/(1260k^5), whose next term, 1/(1680k^7), is below
    1e-17, so no k log k cancels against log k!.  Each branch runs only on
    its own entries."""
    k = np.asarray(k, dtype=np.float64)
    out = np.empty_like(k)
    small = k < _STIRLING_FROM
    ks, kl = k[small], k[~small]
    out[small] = (ks - 1.0) * np.log(ks) - gammaln(ks + 1.0)
    r = 1.0 / kl
    r2 = r * r
    out[~small] = (kl - 1.5 * np.log(kl) - _HALF_LOG_2PI
                   - r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0)))
    return out


def q(k: int, t: float) -> float:
    """Concentration of size-k clusters at time t: the exponent of `_q_from_terms`, one exp."""
    _check_size_and_time(k, t)
    w = -math.expm1(-t)  # 1 - e^-t
    if w == 0.0:
        return 1.0 if k == 1 else 0.0
    return math.exp((k - 1) * math.log(w) + float(log_tree_coefficient(k)) - k * w - t)


def _k_table(kmax: int):
    ks = np.arange(1, kmax + 1, dtype=np.float64)
    terms = ks, ks - 1.0, log_tree_coefficient(ks)
    for a in terms:
        a.flags.writeable = False
    return terms


_cached_k_table = functools.lru_cache(maxsize=8)(_k_table)


def _k_terms(kmax: int):
    """The t-free parts of log q(k, t) for k = 1..kmax: k, k - 1 and
    A_k = `log_tree_coefficient(k)`, which the scalar `q` reads too; the ODE
    right-hand side takes every q it sums, q(k) included, from one row
    built on this table.  Read-only and cached per cutoff up to
    `_CACHE_KMAX`, so `q_vector`, `_choose_kmax` and every `_Integrand` of
    one cutoff share one table.  A quadrature to alpha = 0.95 uses at most
    six cutoffs (1024 to 32768), which eight entries hold.  A larger table
    (48 MiB at `_KMAX_HARD`) is built per call, so that a search that
    climbs to `_KMAX_HARD` and raises leaves no large table cached.
    """
    return (_cached_k_table if kmax <= _CACHE_KMAX else _k_table)(kmax)


def _q_from_terms(terms, t, out=None) -> np.ndarray:
    """q(k, t) over the k of `_k_terms`, at one time t or at each time of a 1-D array t.

    The result has shape (kmax,) for a scalar t, and one row per time,
    (len(t), kmax), for an array; each row is bit for bit the scalar call's.
    log q is (k-1) log w + A_k - k w - t, in that order, with one log per
    time.  out, when given, is a float64 array of shape (2, *that shape): q
    is written into out[0], which is returned, and out[1] holds log q.
    exp is exactly 0.0 below `_EXP_ZERO`, where it is also slow, so those q
    are written as 0.0 without calling it (through a boolean mask, the one
    array a call with out allocates).  Subnormal q, just above, are still
    computed by exp: they are not 0.0, and the moment sums read them.
    """
    ks, km1, log_norm = terms
    t = np.asarray(t, dtype=np.float64)[..., None]  # a column: one row per time
    w = np.array([-math.expm1(-x) for x in t.ravel().tolist()]).reshape(t.shape)
    if out is None:
        out = np.empty((2, *t.shape[:-1], len(ks)))
    qv, x = out
    start = w == 0.0  # t = 0: q is the initial condition
    w[start] = 1.0  # any w keeps log finite on the rows overwritten below
    log_w = np.array([math.log(v) for v in w.ravel().tolist()]).reshape(t.shape)
    np.multiply(km1, log_w, out=x)
    x += log_norm
    np.multiply(ks, w, out=qv)  # k w
    x -= qv
    x -= t
    if x[..., -1].min() >= _EXP_ZERO:  # q falls in k, so the last column holds each row's least
        np.exp(x, out=qv)
    else:
        qv.fill(0.0)
        np.exp(x, out=qv, where=x >= _EXP_ZERO)
    start = start[..., 0]
    qv[start] = 0.0
    qv[start, 0] = 1.0
    return qv


def _live_columns(t_max: float, kmax: int) -> int:
    """How many leading columns of q the integrand evaluates for times up to
    t_max: past them k^2 q(k, t) < 1e-30 at every t in [0, t_max].

    Stirling's bound k! >= sqrt(2 pi k) (k/e)^k gives
    log(k^2 q) <= b(k, t) = log(k)/2 - k eps - log w - t - log(2 pi)/2,
    with eps = w - 1 - log w > 0.  b is concave in k and falls past
    k = 1/(2 eps); it rises in t wherever k > 1/(1-w)^2 = e^(2t).  The
    count returned is the larger of e^(2 t_max) and the last k before
    b(k, t_max) falls below log 1e-30 for good, so it serves every row of
    a batch whose largest time is t_max.
    """
    w = -math.expm1(-t_max)
    if w == 0.0:
        return 1  # q is the initial condition: only k = 1 is nonzero
    rising = math.floor(math.exp(2.0 * t_max))  # b rises in t at every k past this
    if rising >= kmax:
        return kmax
    log_w = math.log(w)
    eps = -math.exp(-t_max) - log_w
    bound = _LOG_NEGLIGIBLE + log_w + t_max + _HALF_LOG_2PI

    def negligible(k):  # b(k, t_max) < log 1e-30
        return 0.5 * math.log(k) - k * eps < bound

    lo, hi = max(1, math.ceil(0.5 / eps)), kmax  # b falls in k on [lo, hi]
    if lo >= hi or not negligible(hi):
        return kmax
    while lo < hi:  # the first negligible k in [lo, hi]
        mid = (lo + hi) // 2
        if negligible(mid):
            hi = mid
        else:
            lo = mid + 1
    return max(hi - 1, rising)


def q_vector(kmax: int, t: float) -> np.ndarray:
    """q(k, t) for k = 1..kmax as a float64 array."""
    return _q_from_terms(_k_terms(kmax), t)


def moment(t: float, p: int, method: str = "closed") -> float:
    """Moment sum_k k^p q(k, t) for p in {0, 1, 2}.

    method="closed" returns e^-t, 1, e^{2t}; method="sum" evaluates the
    series truncated at the cutoff `_choose_kmax` certifies at t, the one
    the phi curves use (cross-check mode).
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if p not in (0, 1, 2):
        raise ValueError("p must be 0, 1 or 2")
    if method == "closed":
        return (math.exp(-t), 1.0, math.exp(2.0 * t))[p]
    if method != "sum":
        raise ValueError("method must be 'closed' or 'sum'")
    kmax = _choose_kmax(t, DEFAULT_TOL)
    return float(np.sum(_k_terms(kmax)[0] ** p * q_vector(kmax, t)))


def smoluchowski_rhs(k: int, t: float) -> float:
    """Right-hand side of the coagulation ODE for q(k, .) at time t.

    (k/2) sum_{j<k} q(j)q(k-j) - q(k) sum_j (j+k) q(j), with the infinite
    j-sum truncated at the cutoff `_choose_kmax` certifies at t, or at k
    if that is larger, so that q(k) and q(k - 1) are in its one row of q.
    """
    _check_size_and_time(k, t)
    kmax = max(_choose_kmax(t, DEFAULT_TOL), k)
    ks = _k_terms(kmax)[0]
    qv = q_vector(kmax, t)
    gain = 0.5 * k * float(np.sum(qv[:k - 1] * qv[:k - 1][::-1]))  # 0.0 at k = 1
    loss = float(qv[k - 1]) * float(np.sum((ks + k) * qv))
    return gain - loss


# ---------------------------------------------------------------------------
# phi curves
# ---------------------------------------------------------------------------

# the integrals over [0, -log(1 - alpha)] of m2 m0 = e^t, m1 m1 = 1 and m1 m0 = e^-t
_MOMENT_INTEGRALS = {
    (2, 0): lambda a: a / (1.0 - a),
    (1, 1): lambda a: -math.log1p(-a),
    (1, 0): lambda a: a,
}
# the classical table keeps e^t's value at alpha = 0 in the m2 m0 term
_TABLE_INTEGRALS = {**_MOMENT_INTEGRALS, (2, 0): lambda a: 1.0 / (1.0 - a)}


def _integrate_means(functional, alpha: float, integrals, constant: bool) -> float:
    """Sum over the `SPLIT_MEANS` terms c l^i r^j of c times the integral of m_(i+1) m_j."""
    if not alpha_in_range(alpha):
        raise ValueError("alpha must be in [0, 1)")
    functional = Functional(functional)
    if functional is Functional.QFW:
        raise ValueError("qfw has no closed form; use phi_curve_quadrature")
    return sum(float(c) * integrals[i + 1, j](alpha)
               for (i, j), c in SPLIT_MEANS[functional].items() if constant or i or j)


def phi_closed_form(functional, alpha: float) -> float:
    """Normalized limit curve phi(alpha) of C_{n, ceil(alpha n)} / n.

    Closed forms exist for QF, Prey (= QFB) and Predator.  For
    Displacement this returns the idealized table curve alpha/(2(1-alpha))
    whose conditional cost is (x^2+y^2)/(2(x+y)), its split mean without the
    constant; simulated displacement totals follow phi_comparison_curve.
    QFW has no closed form and raises ValueError; phi_curve_quadrature
    computes its curve.
    """
    return _integrate_means(functional, alpha, _MOMENT_INTEGRALS, constant=False)


def phi_classical_table(functional, alpha: float):
    """Unnormalized table value (phi + its alpha=0 offset), None for QFW."""
    if Functional(functional) is Functional.QFW and alpha_in_range(alpha):
        return None
    return _integrate_means(functional, alpha, _TABLE_INTEGRALS, constant=False)


def phi_comparison_curve(functional, alpha: float) -> float:
    """The curve simulated C/n values converge to, per functional.

    Same as phi_closed_form except Displacement: D uniform on {0, ..., L-1}
    costs 1/2 less per merge than the idealized table cost, which
    integrates to alpha/2 below the table curve.
    """
    return _integrate_means(functional, alpha, _MOMENT_INTEGRALS, constant=True)


@dataclass(frozen=True)
class QuadratureResult:
    """phi at one grid point: cumulative value and error estimate, and the
    cutoff of the segment that ends at that point.  error sums |G10 - G5|
    over the accepted panels of every segment so far: an estimate of the
    5-point rule's error, so a conservative one for the 10-point values the
    curve adds up."""

    value: float
    error: float
    kmax: int


class _Integrand:
    """Evaluates I(t) = sum_{k,l} k c(k,l) q(k,t) q(l,t), truncated.

    c(k, l) is the functional's cost_engine.split_mean(k, l), its mean cost
    given L = k and R = l.  Each `SPLIT_MEANS` term c k^i l^j sums exactly
    to c m_(i+1) m_j, a product of the moments m_p = sum_k k^p q_k; QFW's
    min(k, l) uses a prefix-sum form.  A call takes a time t, or a
    1-D array of nodes, which it evaluates in row batches of at most
    `_BATCH_CELLS` q values: one row of q per node, with the same float
    operations in the same order as a scalar call, so each node's value is
    bit for bit the scalar value.  A weighted moment is `np.add.reduce`
    along the rows of the products `np.multiply(..., out=)` writes into a
    buffer: numpy's pairwise sum, free of BLAS and bit-equal to its 1-D
    form, as are the row sums and the prefix sums.  Each instance computes
    only the moments its functional reads, in buffers of its own.

    A batch evaluates q only on the `_live_columns` of its largest time and
    writes 0.0 past them, where every k^2 q < 1e-30; each sum still runs
    over all kmax columns (a shorter pairwise sum groups its terms
    differently), so the dropped terms, far below half an ulp of every
    partial sum, change no bit: a node's value does not depend on its batch.
    """

    def __init__(self, functional, kmax: int):
        self.functional = Functional(functional)
        self.kmax = kmax
        self.terms = _k_terms(kmax)  # shared by every node of the segments using kmax
        self._rows = max(1, _BATCH_CELLS // kmax)
        # planes 0-1: q and log q (then k q or k^p q), a row per node; QFW adds two prefix sums
        self._work = np.empty((4 if self.functional is Functional.QFW else 2, self._rows, kmax))
        self._means = [(float(c), i + 1, j)
                       for (i, j), c in SPLIT_MEANS.get(self.functional, {}).items()]
        # the moments the terms read besides m1, which the mass check computes
        reads = {p for _, i, j in self._means for p in (i, j)} - {1}
        self._weights = {p: self.terms[0] ** p if p else None for p in reads}  # m0: a row sum

    def __call__(self, t):
        """I(t) as a float for a scalar t; for a 1-D array, an array of I at
        each node.  A node whose truncation loses mass raises, the first
        such node in array order."""
        ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
        values = []
        for lo in range(0, len(ts), self._rows):
            values += self._batch(ts[lo:lo + self._rows])
        return values[0] if np.ndim(t) == 0 else np.array(values)

    def _batch(self, ts) -> list:
        work = self._work[:, :len(ts)]
        live = _live_columns(max(ts.tolist()), self.kmax)
        _q_from_terms([a[:live] for a in self.terms], ts, work[:2, :, :live])
        qv, kq = work[0], work[1]
        qv[:, live:] = 0.0
        ks = self.terms[0]
        np.multiply(ks, qv, out=kq)
        m1 = np.add.reduce(kq, axis=1)
        residual = np.abs(1.0 - m1)
        bad = residual > 10.0 * _MASS_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise QuadratureError(f"truncation mass residual {float(residual[i]):.2e} "
                                  f"at t={float(ts[i]):.4f} (kmax={self.kmax})")
        if self.functional is Functional.QFW:
            m0 = np.sum(qv, axis=1)
            p1, q1 = work[2, :, :live], work[3, :, :live]
            np.cumsum(kq[:, :live], axis=1, out=p1)
            np.cumsum(qv[:, :live], axis=1, out=q1)
            # sum_l min(k,l) q_l = p1 + k (m0 - q1), then weight by k q_k
            np.subtract(m0[:, None], q1, out=q1)
            q1 *= ks[:live]
            p1 += q1
            work[2, :, live:] = 0.0  # k q is 0.0 there: a finite factor keeps its products 0.0
            return np.add.reduce(np.multiply(kq, work[2], out=work[3]), axis=1).tolist()
        m = {1: m1}
        for p, weights in self._weights.items():
            m[p] = (np.sum(qv, axis=1) if weights is None
                    else np.add.reduce(np.multiply(weights, qv, out=kq), axis=1))
        return sum(c * (m[p] * m[q]) for c, p, q in self._means).tolist()


def _choose_kmax(t_max: float, tol: float, start: int = 1024) -> int:
    """Smallest power-of-two cutoff of at least max(start, 1024) passing both
    tail certificates at t_max; at t_max = 0, where q is the initial
    condition, 256 whatever start is.

    Certificates, read from a full row of q (never one the integrand
    trimmed, since the tail test reads its last two terms): leftover
    first-moment mass below the configured bound, and a ratio-test
    majorization of sum_{k>K} k^2 q(k, t_max) below max(tol * 1e-3, 1e-12).
    Every functional's cost is at most linear in the merged sizes, so
    with the (k+l)/2 intensity the summand is O(k^2).
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
        terms = _k_terms(kmax)
        rows = np.empty((2, kmax))
        qv = _q_from_terms(terms, t_max, rows)
        residual = 1.0 - float(np.add.reduce(np.multiply(terms[0], qv, out=rows[1])))
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


def _gauss_panels(f, a: float, b: float, tol: float):
    """Adaptive Gauss-Legendre on [a, b]: (value, error).

    A panel evaluates the 5- and the 10-point rule on its 15 nodes, G5 and
    G10.  It is accepted when |G10 - G5| < its tolerance, and then adds G10
    to the value and |G10 - G5| to the error; otherwise it is split in half,
    each half with half its tolerance.  [a, b] is the one panel of level 0,
    with tolerance tol.  f takes an array of nodes and returns an array of
    values; it is called once per level with the nodes of all the level's
    open panels in increasing order, so a failing f names the node a
    left-to-right loop meets first.  Each rule's weighted sum, and the value
    and error over the accepted panels, are `math.fsum`s: correctly rounded,
    so they do not depend on the order of the terms.  A panel still
    open at depth `_MAX_DEPTH` raises; no deeper level is evaluated.
    """
    if b <= a:
        return 0.0, 0.0
    lo, hi = np.array([a]), np.array([b])
    values, errors = [], []
    for depth in range(_MAX_DEPTH + 1):
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = centre[:, None] + half[:, None] * _PANEL_NODES
        products = f(nodes.ravel()).reshape(nodes.shape) * _PANEL_WEIGHTS
        g5, g10 = (half * np.array([math.fsum(row) for row in products[:, rule].tolist()])
                   for rule in (_OF_G5, ~_OF_G5))
        diff = np.abs(g10 - g5)
        done = diff < tol * 0.5**depth
        values += g10[done].tolist()
        errors += diff[done].tolist()
        if done.all():
            return math.fsum(values), math.fsum(errors)
        lo, centre, hi = lo[~done], centre[~done], hi[~done]
        lo, hi = np.stack([lo, centre], axis=1).ravel(), np.stack([centre, hi], axis=1).ravel()
    raise QuadratureError(f"Gauss-Legendre panels did not converge below {tol:g} "
                          f"within depth {_MAX_DEPTH}")


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
    """phi(alpha) of a Functional by adaptive Gauss-Legendre panels over [0, -log(1-alpha)].

    Integrates segment by segment along an increasing alpha grid, each
    segment by `_gauss_panels` to tol / len(alphas), and returns a list of
    QuadratureResult whose values are cumulative, with per-point error
    estimates summed over the segments used.  The double
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
        val, err = _gauss_panels(integrand, t_prev, t_next, seg_tol)
        acc += val
        err_acc += err
        out.append(QuadratureResult(acc, err_acc, kmax))
        t_prev = t_next
    return out
