"""The verification suite: every acceptance check, runnable as a library.

Exact criteria (oracle equivalence, closed formulas, conditional
identities, mean-field identities) are deterministic.  Monte Carlo
criteria run at fixed recorded seeds so results are reproducible; they
are probabilistic by nature, with the false-failure rate of the stated
levels.  The QFW constant check is a conjecture and never fails the
suite; it is reported as informative.
"""

import math
import os
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cost_engine import Functional
from .exact_oracles import (
    borel_pmf,
    dp_sequence_distribution,
    enumerate_parking,
    enumerate_spanning_trees,
    p_mk,
    parking_final_merge_marginal,
    partition_dp,
)
from .experiment import (
    ExperimentSpec,
    chi_square_gof,
    ks_two_sample,
    regime_sweep,
    run_monte_carlo,
)
from ._replay import block_rows, direct_chain_rows
from .process_core import Embedding, direct_picks
from .process_core import simulate_direct  # noqa: F401  (perfbench/spans.py traces this name)
from .seeding import substream_rng
from .smoluchowski import (
    moment,
    phi_comparison_curve,
    phi_curve_quadrature,
    q,
    smoluchowski_rhs,
)

# recorded seeds and sizes of the Monte Carlo criteria
SEED_CURVES = 106
SEED_QF_TOTAL = 107
SEED_DISPLACEMENT = 207
SEED_SCALING = 108
SEED_REGIME = 111
SEED_DETERMINISM = 112
SEED_ORACLE_CHI = 113
SEED_CHAIN_CHI = 300

CURVE_N = 100_000
CURVE_REPS = 100
TOTAL_N = 100_000
TOTAL_REPS_MEAN = 200
TOTAL_REPS_KS = 500
SCALING_NS = (1_000, 10_000, 100_000)
SCALING_REPS = 100
REGIME_EPS = 0.15
REGIME_REPS = 100

EXCURSION_AREA_MEAN = math.sqrt(math.pi / 8.0)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    passed: bool
    informative: bool
    measured: str
    target: str
    tolerance: str
    detail: str
    seconds: float

    @property
    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "INFO-FAIL" if self.informative else "FAIL"


def _result(cid, passed, measured, target, tolerance, detail="", informative=False,
            started=None):
    return CriterionResult(
        cid=cid,
        passed=bool(passed),
        informative=informative,
        measured=str(measured),
        target=str(target),
        tolerance=str(tolerance),
        detail=detail,
        seconds=round(time.perf_counter() - started, 3) if started is not None else 0.0,
    )


# ---------------------------------------------------------------------------
# deterministic criteria
# ---------------------------------------------------------------------------


def criterion_oracle_equivalence(max_n: int = 6) -> CriterionResult:
    """Three-way equality of full event-sequence laws at n <= 6."""
    t0 = time.perf_counter()
    worst = Fraction(0)
    for n in range(2, max_n + 1):
        park = enumerate_parking(n).project(("s", "S", "L"))
        tree = enumerate_spanning_trees(n)
        chain = dp_sequence_distribution(n)
        worst = max(
            worst,
            park.tv_distance(tree),
            park.tv_distance(chain),
            tree.tv_distance(chain),
        )
    return _result(
        "oracle-equivalence",
        float(worst) < 1e-12,
        f"max TV {float(worst):.3e}",
        "TV = 0 across parking/tree/chain, n=2..%d" % max_n,
        "1e-12",
        started=t0,
    )


def criterion_pmk_exact() -> CriterionResult:
    """p_mk equals the enumerated final-merge law (m <= 8); rows sum to 1."""
    t0 = time.perf_counter()
    mismatch = []
    for m in range(2, 9):
        marginal = parking_final_merge_marginal(m)
        for k in range(1, m):
            if marginal.get(k, Fraction(0)) != p_mk(m, k):
                mismatch.append((m, k))
    bad_rows = [m for m in range(2, 31) if sum(p_mk(m, k) for k in range(1, m)) != 1]
    ok = not mismatch and not bad_rows
    return _result(
        "pmk-exact",
        ok,
        "exact equality" if ok else f"mismatches {mismatch[:3]} rows {bad_rows[:3]}",
        "rational equality, m<=8; unit row sums, m<=30",
        "exact",
        started=t0,
    )


def criterion_borel_limit() -> CriterionResult:
    t0 = time.perf_counter()
    worst = max(abs(p_mk(10_000, 10_000 - k) - borel_pmf(k)) for k in range(1, 11))
    return _result(
        "borel-limit",
        worst < 1e-3,
        f"max |p_mk(1e4, 1e4-k) - borel(k)| = {worst:.3e}",
        "Borel(1) limit of the final prey size, k=1..10",
        "1e-3",
        started=t0,
    )


def criterion_conditional_r(max_n: int = 8) -> CriterionResult:
    """E[R_k | L_k = l] = (n - l)/(n - k), exact for n <= 8."""
    t0 = time.perf_counter()
    bad = []
    for n in range(2, max_n + 1):
        dp = partition_dp(n)
        for k in range(1, n):
            for l, val in dp.conditional_r_given_l(k).items():
                if val != Fraction(n - l, n - k):
                    bad.append((n, k, l))
    return _result(
        "conditional-r",
        not bad,
        "exact equality" if not bad else f"violations {bad[:3]}",
        "E[R|L=l] = (n-l)/(n-k), all reachable (k,l), n<=%d" % max_n,
        "exact",
        started=t0,
    )


def criterion_smoluchowski_identities() -> CriterionResult:
    t0 = time.perf_counter()
    moment_dev = max(
        abs(moment(t, p, "sum", tol=1e-11) - moment(t, p, "closed"))
        for t in (0.1, 1.0, 3.0)
        for p in (0, 1, 2)
    )
    h = 1e-5
    ode_dev = max(
        abs((q(k, 1.0 + h) - q(k, 1.0 - h)) / (2 * h) - smoluchowski_rhs(k, 1.0))
        for k in range(1, 21)
    )
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    quad = phi_curve_quadrature(Functional.PREY, grid, tol=1e-8)
    prey_dev = max(abs(r.value + math.log1p(-a)) for r, a in zip(quad, grid))
    ok = moment_dev < 1e-8 and ode_dev < 1e-6 and prey_dev < 1e-6
    return _result(
        "smoluchowski-identities",
        ok,
        f"moments {moment_dev:.2e}; ODE {ode_dev:.2e}; prey quad {prey_dev:.2e}",
        "moment sums, coagulation ODE, prey curve = log(1/(1-a))",
        "1e-8 / 1e-6 / 1e-6",
        started=t0,
    )


# ---------------------------------------------------------------------------
# Monte Carlo criteria
# ---------------------------------------------------------------------------

_CURVE_FUNCTIONALS = (
    Functional.QF,
    Functional.QFW,
    Functional.PREY,
    Functional.PREDATOR,
    Functional.DISPLACEMENT,
)


def criterion_partial_cost_curves() -> CriterionResult:
    """Normalized partial costs track the limit curves on alpha <= 0.9."""
    t0 = time.perf_counter()
    grid = tuple(round(0.05 * i, 2) for i in range(1, 19))  # 0.05 .. 0.90
    spec = ExperimentSpec(
        n=CURVE_N,
        embedding=Embedding.DIRECT,
        functionals=_CURVE_FUNCTIONALS,
        reps=CURVE_REPS,
        seed=SEED_CURVES,
        alpha_grid=grid,
        beta_grid=(),
    )
    res = run_monte_carlo(spec)
    qfw_phi = [r.value for r in phi_curve_quadrature(Functional.QFW, grid, tol=1e-8)]
    worst = 0.0
    worst_at = ""
    for f in _CURVE_FUNCTIONALS:
        means = res.alpha_values[f].mean(axis=0)
        for j, a in enumerate(grid):
            phi = qfw_phi[j] if f is Functional.QFW else phi_comparison_curve(f, a)
            ratio = abs(means[j] - phi) / (0.02 * (1.0 + phi))
            if ratio > worst:
                worst = ratio
                worst_at = f"{f.value}@a={a}: mean {means[j]:.4f} vs phi {phi:.4f}"
    return _result(
        "partial-cost-curves",
        worst < 1.0,
        f"worst |mean-phi|/(0.02(1+phi)) = {worst:.3f} ({worst_at})",
        "sup deviation within 2% of (1+phi), all five cost curves",
        "0.02*(1+phi)",
        started=t0,
    )


def _qf_totals_sample():
    spec = ExperimentSpec(
        n=TOTAL_N,
        embedding=Embedding.DIRECT,
        functionals=(Functional.QF,),
        reps=TOTAL_REPS_KS,
        seed=SEED_QF_TOTAL,
        alpha_grid=(),
        beta_grid=(),
    )
    return run_monte_carlo(spec).normalized_totals(Functional.QF)


def _displacement_totals_sample():
    spec = ExperimentSpec(
        n=TOTAL_N,
        embedding=Embedding.PARKING,
        functionals=(Functional.DISPLACEMENT,),
        reps=TOTAL_REPS_KS,
        seed=SEED_DISPLACEMENT,
        alpha_grid=(),
        beta_grid=(),
    )
    return run_monte_carlo(spec).normalized_totals(Functional.DISPLACEMENT)


def criterion_qf_total_excursion() -> CriterionResult:
    """Total QF cost: mean near sqrt(pi/8) n^1.5; same law as total parking
    displacement (both converge to the excursion area)."""
    t0 = time.perf_counter()
    qf = _qf_totals_sample()
    disp = _displacement_totals_sample()
    mean = float(np.mean(qf[:TOTAL_REPS_MEAN]))
    rel = abs(mean - EXCURSION_AREA_MEAN) / EXCURSION_AREA_MEAN
    ks = ks_two_sample(qf, disp, level=0.001)
    ok = rel < 0.05 and not ks.reject
    return _result(
        "qf-total-excursion",
        ok,
        f"mean {mean:.5f} (rel dev {rel:.3%}); KS D={ks.statistic:.4f} p={ks.pvalue:.4f}",
        f"mean -> {EXCURSION_AREA_MEAN:.5f}; KS vs n^-1.5 D_n not rejected",
        "5% rel; level 0.001",
        started=t0,
    )


_scaling_cache = {}


def _scaling_runs():
    """Shared runs for the n log n constants and the phase transition.

    The cache is filled only once all runs are done, so a run that raises
    leaves it empty and the next call starts over.
    """
    if not _scaling_cache:
        runs = {}
        for i, n in enumerate(SCALING_NS):
            spec = ExperimentSpec(
                n=n,
                embedding=Embedding.DIRECT,
                functionals=(Functional.QF, Functional.QFB, Functional.QFW),
                reps=SCALING_REPS,
                seed=SEED_SCALING + i,
                alpha_grid=(),
                beta_grid=(n**0.25,),  # checkpoint step floor(n - n^0.75)
            )
            runs[n] = run_monte_carlo(spec)
        _scaling_cache.update(runs)
    return _scaling_cache


def _fit_log_correction(ns, values):
    """Least squares a + b / log n; returns a."""
    u = np.array([1.0 / math.log(n) for n in ns])
    design = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    return float(coef[0])


def _nlogn_means(functional):
    runs = _scaling_runs()
    return [
        float(np.mean(runs[n].totals[functional] / (n * math.log(n))))
        for n in SCALING_NS
    ]


def criterion_qfb_constant() -> CriterionResult:
    """C^QFB / (n log n) -> 1/2, tested on the 1/log n extrapolation."""
    t0 = time.perf_counter()
    means = _nlogn_means(Functional.QFB)
    a = _fit_log_correction(SCALING_NS, means)
    ok = abs(a - 0.5) < 0.05
    return _result(
        "qfb-constant",
        ok,
        f"extrapolated a = {a:.4f} (raw means {[round(v, 4) for v in means]})",
        "0.5",
        "10%",
        started=t0,
    )


def criterion_qfw_conjecture() -> CriterionResult:
    """Conjectured C^QFW / (n log n) -> 1/pi; informative only."""
    t0 = time.perf_counter()
    means = _nlogn_means(Functional.QFW)
    a = _fit_log_correction(SCALING_NS, means)
    target = 1.0 / math.pi
    ok = abs(a - target) < 0.15 * target
    return _result(
        "qfw-conjecture",
        ok,
        f"extrapolated a = {a:.4f} (raw means {[round(v, 4) for v in means]})",
        f"{target:.5f}",
        "15% (informative; conjecture)",
        informative=True,
        started=t0,
    )


def criterion_phase_transition() -> CriterionResult:
    """n^-1.5 C^QF at step floor(n - n^0.75) vanishes with n."""
    t0 = time.perf_counter()
    runs = _scaling_runs()
    means = [float(runs[n].beta_values[Functional.QF][:, 0].mean()) for n in SCALING_NS]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    ok = decreasing and means[-1] < 0.05
    return _result(
        "phase-transition",
        ok,
        f"means {[round(v, 4) for v in means]}",
        "strictly decreasing, < 0.05 at n=1e5",
        "0.05 gate",
        started=t0,
    )


def criterion_regime_sweep() -> CriterionResult:
    """Largest cluster: B/n -> 0 in the sparse window, -> 1 near-full."""
    t0 = time.perf_counter()
    rows = regime_sweep(SCALING_NS, REGIME_EPS, reps=REGIME_REPS, seed=SEED_REGIME)
    sparse = [r.sparse.mean for r in rows]
    full = [r.full.mean for r in rows]
    ok = (
        all(a > b for a, b in zip(sparse, sparse[1:]))
        and all(a < b for a, b in zip(full, full[1:]))
        and full[-1] - sparse[-1] > 0.5
    )
    return _result(
        "regime-sweep",
        ok,
        f"sparse {[round(v, 3) for v in sparse]}; full {[round(v, 3) for v in full]}",
        "sparse decreasing, full increasing, gap > 0.5 at n=1e5",
        "gap 0.5",
        started=t0,
    )


def criterion_determinism() -> CriterionResult:
    """cmd_simulate output bytes identical across runs and worker counts."""
    from . import cli

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"run{i}.csv") for i in range(3)]
        base = [
            "simulate", "--n", "2000", "--reps", "6",
            "--seed", str(SEED_DETERMINISM), "--embedding", "direct",
            "--format", "csv",
        ]
        codes = [
            cli.main(base + ["--workers", "1", "--out", paths[0]]),
            cli.main(base + ["--workers", "1", "--out", paths[1]]),
            cli.main(base + ["--workers", "8", "--out", paths[2]]),
        ]
        blobs = [open(p, "rb").read() for p in paths]
    ok = codes == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
    return _result(
        "determinism",
        ok,
        "byte-identical" if ok else "outputs differ",
        "identical bytes across reruns and 1 vs 8 workers",
        "exact",
        started=t0,
    )


def _perturbed(probs):
    """A wrong null for the mutation mode: cells alternately +8 % and -8 %."""
    probs = probs * (1.0 + 0.08 * np.where(np.arange(len(probs)) % 2 == 0, 1.0, -1.0))
    return probs / probs.sum()


def criterion_pmk_chi_square(mutate: bool = False, runs: int = 100_000) -> CriterionResult:
    """Final-merge predator size at m=50 vs the exact formula (level 0.01).

    Run r draws its predator elements and prey picks from substream r and
    the runs replay in lockstep blocks (u and u' come later in a run's
    draws, so they are not drawn).  With mutate=True the null is
    perturbed; the test must then reject, demonstrating the harness has
    power (mutation test mode).
    """
    t0 = time.perf_counter()
    m = 50
    counts = np.zeros(m - 1, dtype=np.int64)
    rows = block_rows(m)
    for start in range(0, runs, rows):
        picks = [direct_picks(m, substream_rng(SEED_ORACLE_CHI, rep))
                 for rep in range(start, min(start + rows, runs))]
        elem, prey_u = (np.stack(col) for col in zip(*picks))
        # D is not read, so the prey uniforms stand in for u'
        _, _, L, _, _ = direct_chain_rows(m, elem, prey_u, prey_u)
        counts += np.bincount(L[:, -1] - 1, minlength=m - 1)
    probs = np.array([p_mk(m, k) for k in range(1, m)], dtype=np.float64)
    if mutate:
        probs = _perturbed(probs)
    test = chi_square_gof(counts, probs, level=0.01)
    ok = not test.reject
    label = "perturbed p_mk (expected to reject)" if mutate else "p_mk null not rejected"
    return _result(
        "pmk-chi-square",
        ok,
        f"chi2 {test.statistic:.1f} df {test.dof} p {test.pvalue:.4f}",
        label,
        "level 0.01",
        started=t0,
    )


def _sequence_codes(n, L, R):
    """Mixed-radix code of each row's (L_k, R_k) sequence: digit k is L_k n + R_k."""
    return ((L * n + R) * (n * n) ** np.arange(n - 1)).sum(axis=1)


def _sequence_counts(n, codes, keys):
    """How many of the `_sequence_codes` replay each (s, S, L) sequence of keys, in order.

    Raises RuntimeError when a code is not that of a key.
    """
    key_L = np.array([[e[2] for e in key] for key in keys], np.int64)
    key_R = np.array([[e[0] + e[1] - e[2] for e in key] for key in keys], np.int64)
    key_codes = _sequence_codes(n, key_L, key_R)
    order = np.argsort(key_codes)
    # the key each code equals, if any: bins per key, not per possible code
    key = order[np.searchsorted(key_codes, codes, sorter=order).clip(max=len(keys) - 1)]
    outside = np.count_nonzero(key_codes[key] != codes)
    if outside:
        raise RuntimeError(f"{outside} simulated n={n} sequences lie outside the exact "
                           "law's support")
    return np.bincount(key, minlength=len(keys))


def criterion_chain_chi_square(mutate: bool = False, reps: int = 1_000_000) -> CriterionResult:
    """Simulated full event-sequence frequencies at n = 5 vs the exact law.

    All replications draw from one shared stream in two calls, the
    predator elements as one (reps, n-1) array and then the prey uniforms,
    and replay in lockstep blocks; frequencies are tested against the
    partition-chain enumeration at level 0.01.  With mutate=True the null
    is perturbed and the test must reject.
    """
    from .seeding import make_rng

    t0 = time.perf_counter()
    n = 5
    law = dp_sequence_distribution(n)
    keys = sorted(law.probs)
    rng = make_rng(SEED_CHAIN_CHI)
    elem = rng.integers(0, n, size=(reps, n - 1))
    prey_u = rng.random((reps, n - 1))
    rows = block_rows(n)
    codes = []
    for i in range(0, reps, rows):
        # D is not read, so the prey uniforms stand in for u'
        _, _, L, R, _ = direct_chain_rows(n, elem[i:i + rows], prey_u[i:i + rows],
                                          prey_u[i:i + rows])
        codes.append(_sequence_codes(n, L, R))
    codes = np.concatenate(codes)
    counts = _sequence_counts(n, codes, keys)
    probs = np.array([float(law.probs[k]) for k in keys])
    if mutate:
        probs = _perturbed(probs)
    test = chi_square_gof(counts, probs, level=0.01)
    label = ("perturbed sequence law (expected to reject)" if mutate
             else "exact n=5 sequence law not rejected")
    return _result(
        "chain-vs-oracle-chi-square",
        not test.reject,
        f"chi2 {test.statistic:.1f} df {test.dof} p {test.pvalue:.4f} ({reps} reps)",
        label,
        "level 0.01",
        started=t0,
    )


CRITERIA = {
    "oracle-equivalence": criterion_oracle_equivalence,
    "pmk-exact": criterion_pmk_exact,
    "borel-limit": criterion_borel_limit,
    "conditional-r": criterion_conditional_r,
    "smoluchowski-identities": criterion_smoluchowski_identities,
    "partial-cost-curves": criterion_partial_cost_curves,
    "qf-total-excursion": criterion_qf_total_excursion,
    "qfb-constant": criterion_qfb_constant,
    "qfw-conjecture": criterion_qfw_conjecture,
    "phase-transition": criterion_phase_transition,
    "regime-sweep": criterion_regime_sweep,
    "determinism": criterion_determinism,
    "pmk-chi-square": criterion_pmk_chi_square,
    "chain-vs-oracle-chi-square": criterion_chain_chi_square,
}


#: perturbed nulls that `run_criteria(mutate=...)` knows, and the criterion each perturbs
MUTATIONS = {"pmk": "pmk-chi-square", "chain": "chain-vs-oracle-chi-square"}


def run_criteria(only=None, mutate=()):
    """Run all (or selected) criteria; returns CriterionResult list."""
    names = list(CRITERIA)
    if only:
        unknown = [o for o in only if o not in CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}; known: {names}")
        names = [n for n in names if n in set(only)]
    unknown = [m for m in mutate if m not in MUTATIONS]
    if unknown:
        raise ValueError(f"unknown mutations: {unknown}; known: {list(MUTATIONS)}")
    mutated = {MUTATIONS[m] for m in mutate}
    return [CRITERIA[name](mutate=name in mutated) if name in MUTATIONS.values()
            else CRITERIA[name]() for name in names]


def suite_passed(results) -> bool:
    return all(r.passed or r.informative for r in results)
