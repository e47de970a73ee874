"""The verification suite: every acceptance check, runnable as a library.

Exact criteria (oracle equivalence, closed formulas, conditional
identities, mean-field identities) are deterministic.  Monte Carlo
criteria run at fixed recorded seeds so results are reproducible; they
are probabilistic by nature, with the false-failure rate of the stated
levels.  The QFW constant check is a conjecture and never fails the
suite; it is reported as informative.

Each criterion is a judge registered with `_criterion`, which times it
and builds its `CriterionResult`.  The Monte Carlo samples that judges
share are declared as `ExperimentSpec` constants and drawn once per
process by `_sample`, on every core (output does not depend on workers).
"""

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .cost_engine import Functional
from .exact_oracles import (
    borel_pmf,
    decode_counts,
    dp_sequence_distribution,
    enumerate_parking,
    enumerate_spanning_trees,
    p_mk,
    p_mk_row,
    parking_final_merge_marginal,
    partition_dp,
    sequence_codes,
)
from .experiment import (
    ExperimentSpec,
    chi_square_gof,
    ks_two_sample,
    regime_sweep,
    run_monte_carlo,
)
from ._replay import direct_chain_rows, row_blocks
from .process_core import Embedding, direct_picks, direct_rows
from .process_core import simulate as simulate_direct  # noqa: F401  (perfbench/spans.py traces it)
from .seeding import make_rng, substream_bits
from .seeding import substream_rng  # noqa: F401  (perfbench/spans.py traces it)
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

_CURVE_FUNCTIONALS = (
    Functional.QF,
    Functional.QFW,
    Functional.PREY,
    Functional.PREDATOR,
    Functional.DISPLACEMENT,
)

# the samples the Monte Carlo judges read through `_sample`
CURVES_SPEC = ExperimentSpec(
    n=CURVE_N, functionals=_CURVE_FUNCTIONALS, reps=CURVE_REPS, seed=SEED_CURVES,
    alpha_grid=tuple(round(0.05 * i, 2) for i in range(1, 19)), beta_grid=())  # 0.05 .. 0.90
QF_TOTAL_SPEC = ExperimentSpec(n=TOTAL_N, functionals=(Functional.QF,), reps=TOTAL_REPS_KS,
                               seed=SEED_QF_TOTAL, alpha_grid=(), beta_grid=())
DISPLACEMENT_TOTAL_SPEC = ExperimentSpec(
    n=TOTAL_N, embedding=Embedding.PARKING, functionals=(Functional.DISPLACEMENT,),
    reps=TOTAL_REPS_KS, seed=SEED_DISPLACEMENT, alpha_grid=(), beta_grid=())
#: the runs shared by the n log n constants and the phase transition; the
#: beta point n^0.25 is the checkpoint step floor(n - n^0.75)
SCALING_SPECS = tuple(
    ExperimentSpec(n=n, functionals=(Functional.QF, Functional.QFB, Functional.QFW),
                   reps=SCALING_REPS, seed=SEED_SCALING + i, alpha_grid=(), beta_grid=(n**0.25,))
    for i, n in enumerate(SCALING_NS))


#: the worker processes a declared sample runs on
SAMPLE_WORKERS = os.cpu_count() or 1


@functools.cache
def _sample(spec):
    """The Monte Carlo result of a declared spec, run once per process on
    `SAMPLE_WORKERS` workers.

    functools.cache stores nothing for a call that raises, so a failed
    run is started over by the next reader.  Readers share the result and
    must not modify it.
    """
    return run_monte_carlo(dataclasses.replace(spec, workers=SAMPLE_WORKERS))


def _sample_name(spec):
    return f"{spec.embedding.value} n={spec.n} reps={spec.reps} seed={spec.seed}"


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


#: cid -> criterion, in report order
CRITERIA = {}


def _criterion(cid, informative=False, samples=(), detail=""):
    """Register a judge as the criterion `cid`.

    The judge returns (passed, measured, target, tolerance); the registered
    function times it and returns the CriterionResult.  `samples` are the
    specs the judge reads through `_sample`.  The result's detail names
    them and `detail`, a template of the draws the judge makes itself,
    filled from the call's arguments, so a failure can be re-run alone.
    """

    def register(judge):
        signature = inspect.signature(judge)

        @functools.wraps(judge)
        def criterion(*args, **kwargs):
            t0 = time.perf_counter()
            passed, measured, target, tolerance = judge(*args, **kwargs)
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            draws = [_sample_name(s) for s in samples] + [detail.format(**call.arguments)]
            return CriterionResult(
                cid=cid,
                passed=bool(passed),
                informative=informative,
                measured=str(measured),
                target=str(target),
                tolerance=str(tolerance),
                detail="; ".join(d for d in draws if d),
                seconds=round(time.perf_counter() - t0, 3),
            )

        criterion.samples = samples
        CRITERIA[cid] = criterion
        return criterion

    return register


# ---------------------------------------------------------------------------
# deterministic criteria
# ---------------------------------------------------------------------------


@_criterion("oracle-equivalence")
def criterion_oracle_equivalence():
    """Three-way equality of full event-sequence laws at n <= 6."""
    worst = Fraction(0)
    for n in range(2, 7):
        park = enumerate_parking(n).project(("s", "S", "L"))
        tree = enumerate_spanning_trees(n)
        chain = dp_sequence_distribution(n)
        worst = max(
            worst,
            park.tv_distance(tree),
            park.tv_distance(chain),
            tree.tv_distance(chain),
        )
    return (float(worst) < 1e-12, f"max TV {float(worst):.3e}",
            "TV = 0 across parking/tree/chain, n=2..6", "1e-12")


@_criterion("pmk-exact")
def criterion_pmk_exact():
    """p_mk equals the enumerated final-merge law (m <= 8); rows sum to 1."""
    mismatch = []
    for m in range(2, 9):
        marginal = parking_final_merge_marginal(m)
        for k in range(1, m):
            if marginal.get(k, Fraction(0)) != p_mk(m, k):
                mismatch.append((m, k))
    bad_rows = [m for m in range(2, 31) if sum(p_mk_row(m)) != 1]
    ok = not mismatch and not bad_rows
    return (ok, "exact equality" if ok else f"mismatches {mismatch[:3]} rows {bad_rows[:3]}",
            "rational equality, m<=8; unit row sums, m<=30", "exact")


@_criterion("borel-limit")
def criterion_borel_limit():
    worst = max(abs(p_mk(10_000, 10_000 - k) - borel_pmf(k)) for k in range(1, 11))
    return (worst < 1e-3, f"max |p_mk(1e4, 1e4-k) - borel(k)| = {worst:.3e}",
            "Borel(1) limit of the final prey size, k=1..10", "1e-3")


@_criterion("conditional-r")
def criterion_conditional_r():
    """E[R_k | L_k = l] = (n - l)/(n - k), exact for n <= 8."""
    bad = []
    for n in range(2, 9):
        dp = partition_dp(n)
        for k in range(1, n):
            for l, val in dp.conditional_r_given_l(k).items():
                if val != Fraction(n - l, n - k):
                    bad.append((n, k, l))
    return (not bad, "exact equality" if not bad else f"violations {bad[:3]}",
            "E[R|L=l] = (n-l)/(n-k), all reachable (k,l), n<=8", "exact")


@_criterion("smoluchowski-identities")
def criterion_smoluchowski_identities():
    moment_dev = max(
        abs(moment(t, p, "sum") - moment(t, p, "closed"))
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
    return (ok, f"moments {moment_dev:.2e}; ODE {ode_dev:.2e}; prey quad {prey_dev:.2e}",
            "moment sums, coagulation ODE, prey curve = log(1/(1-a))", "1e-8 / 1e-6 / 1e-6")


# ---------------------------------------------------------------------------
# Monte Carlo criteria
# ---------------------------------------------------------------------------


@_criterion("partial-cost-curves", samples=(CURVES_SPEC,))
def criterion_partial_cost_curves():
    """Normalized partial costs track the limit curves on alpha <= 0.9."""
    grid = CURVES_SPEC.alpha_grid
    res = _sample(CURVES_SPEC)
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
    return (worst < 1.0, f"worst |mean-phi|/(0.02(1+phi)) = {worst:.3f} ({worst_at})",
            "sup deviation within 2% of (1+phi), all five cost curves", "0.02*(1+phi)")


@_criterion("qf-total-excursion", samples=(QF_TOTAL_SPEC, DISPLACEMENT_TOTAL_SPEC))
def criterion_qf_total_excursion():
    """Total QF cost: mean near sqrt(pi/8) n^1.5; same law as total parking
    displacement (both converge to the excursion area)."""
    qf = _sample(QF_TOTAL_SPEC).normalized_totals(Functional.QF)
    disp = _sample(DISPLACEMENT_TOTAL_SPEC).normalized_totals(Functional.DISPLACEMENT)
    mean = float(np.mean(qf[:TOTAL_REPS_MEAN]))
    rel = abs(mean - EXCURSION_AREA_MEAN) / EXCURSION_AREA_MEAN
    ks = ks_two_sample(qf, disp, level=0.001)
    return (rel < 0.05 and not ks.reject,
            f"mean {mean:.5f} (rel dev {rel:.3%}); KS D={ks.statistic:.4f} p={ks.pvalue:.4f}",
            f"mean -> {EXCURSION_AREA_MEAN:.5f}; KS vs n^-1.5 D_n not rejected",
            "5% rel; level 0.001")


def _fit_log_correction(ns, values):
    """Least squares a + b / log n; returns a."""
    u = np.array([1.0 / math.log(n) for n in ns])
    design = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    return float(coef[0])


def _nlogn_means(functional):
    return [
        float(np.mean(_sample(spec).totals[functional] / (spec.n * math.log(spec.n))))
        for spec in SCALING_SPECS
    ]


@_criterion("qfb-constant", samples=SCALING_SPECS)
def criterion_qfb_constant():
    """C^QFB / (n log n) -> 1/2, tested on the 1/log n extrapolation."""
    means = _nlogn_means(Functional.QFB)
    a = _fit_log_correction(SCALING_NS, means)
    return (abs(a - 0.5) < 0.05,
            f"extrapolated a = {a:.4f} (raw means {[round(v, 4) for v in means]})",
            "0.5", "10%")


@_criterion("qfw-conjecture", informative=True, samples=SCALING_SPECS)
def criterion_qfw_conjecture():
    """Conjectured C^QFW / (n log n) -> 1/pi; informative only."""
    means = _nlogn_means(Functional.QFW)
    a = _fit_log_correction(SCALING_NS, means)
    target = 1.0 / math.pi
    return (abs(a - target) < 0.15 * target,
            f"extrapolated a = {a:.4f} (raw means {[round(v, 4) for v in means]})",
            f"{target:.5f}", "15% (informative; conjecture)")


@_criterion("phase-transition", samples=SCALING_SPECS)
def criterion_phase_transition():
    """n^-1.5 C^QF at step floor(n - n^0.75) vanishes with n."""
    means = [float(_sample(spec).beta_values[Functional.QF][:, 0].mean())
             for spec in SCALING_SPECS]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    return (decreasing and means[-1] < 0.05, f"means {[round(v, 4) for v in means]}",
            "strictly decreasing, < 0.05 at n=1e5", "0.05 gate")


@_criterion("regime-sweep", detail=f"parking n={','.join(map(str, SCALING_NS))} "
                                   f"reps={REGIME_REPS} seed={SEED_REGIME}")
def criterion_regime_sweep():
    """Largest cluster: B/n -> 0 in the sparse window, -> 1 near-full."""
    rows = regime_sweep(SCALING_NS, REGIME_EPS, reps=REGIME_REPS, seed=SEED_REGIME,
                        embedding=Embedding.PARKING)
    sparse = [r.sparse.mean for r in rows]
    full = [r.full.mean for r in rows]
    ok = (
        all(a > b for a, b in zip(sparse, sparse[1:]))
        and all(a < b for a, b in zip(full, full[1:]))
        and full[-1] - sparse[-1] > 0.5
    )
    return (ok, f"sparse {[round(v, 3) for v in sparse]}; full {[round(v, 3) for v in full]}",
            "sparse decreasing, full increasing, gap > 0.5 at n=1e5", "gap 0.5")


def _named_workers(stderr):
    """The workers named by the one JSON record a successful command writes
    on stderr; None if stderr holds anything else."""
    try:
        [line] = stderr.splitlines()
        return json.loads(line).get("workers")
    except (ValueError, AttributeError):
        return None


@_criterion("determinism", detail=f"direct n=2000 reps=24 seed={SEED_DETERMINISM}")
def criterion_determinism():
    """cmd_simulate output bytes identical across runs and worker counts.

    Each run's stderr is captured: it must be the one side record, naming
    the workers the run used.  A run that fails passes its error report on.
    The 24 replications are three blocks, so 8 workers open a pool of three.
    """
    from . import cli

    workers = (1, 1, 8)
    codes, named = [], []
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"run{i}.csv") for i in range(len(workers))]
        base = [
            "simulate", "--n", "2000", "--reps", "24",
            "--seed", str(SEED_DETERMINISM), "--embedding", "direct",
            "--format", "csv",
        ]
        for w, path in zip(workers, paths):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                codes.append(cli.main(base + ["--workers", str(w), "--out", path]))
            if codes[-1] != 0:
                sys.stderr.write(err.getvalue())
            named.append(_named_workers(err.getvalue()))
        same = codes == [0, 0, 0]  # a failed run may have written nothing to compare
        if same:
            blobs = [Path(p).read_bytes() for p in paths]
            same = blobs[0] == blobs[1] == blobs[2] and len(blobs[0]) > 0
    if not same:
        measured = "outputs differ"
    elif named != list(workers):
        measured = f"stderr names workers {named}, not {list(workers)}"
    else:
        measured = "byte-identical"
    return (measured == "byte-identical", measured,
            "identical bytes across reruns and 1 vs 8 workers", "exact")


def _perturbed(probs):
    """A wrong null for the mutation mode: cells alternately +8 % and -8 %."""
    probs = probs * (1.0 + 0.08 * np.where(np.arange(len(probs)) % 2 == 0, 1.0, -1.0))
    return probs / probs.sum()


@_criterion("pmk-chi-square",
            detail=f"direct n=50 reps={{runs}} seed={SEED_ORACLE_CHI}, one substream per run")
def criterion_pmk_chi_square(mutate: bool = False, runs: int = 100_000):
    """Final-merge predator size at m=50 vs the exact formula (level 0.01).

    Run r draws its predator elements and prey picks from substream r, a
    block's runs in one raw call on each of their PCG64 bit generators
    (`seeding.substream_bits`, `process_core.direct_rows`), and the
    runs replay in lockstep blocks (u and u' come later in a run's draws,
    so they are not drawn).  With mutate=True the null is perturbed; the
    test must then reject, demonstrating the harness has power (mutation
    test mode).  The sample is drawn at every call.
    """
    m = 50
    counts = np.zeros(m - 1, dtype=np.int64)
    for start, stop in row_blocks(m, runs):
        elem, prey_u = direct_rows(m, substream_bits(SEED_ORACLE_CHI, range(start, stop)), 1)
        L, _ = direct_chain_rows(m, elem, prey_u)
        counts += np.bincount(L[:, -1] - 1, minlength=m - 1)
    probs = np.array(p_mk_row(m), dtype=np.float64)
    if mutate:
        probs = _perturbed(probs)
    test = chi_square_gof(counts, probs, level=0.01)
    label = "perturbed p_mk (expected to reject)" if mutate else "p_mk null not rejected"
    return (not test.reject, f"chi2 {test.statistic:.1f} df {test.dof} p {test.pvalue:.4f}",
            label, "level 0.01")


@_criterion("chain-vs-oracle-chi-square",
            detail=f"direct n=5 reps={{reps}} seed={SEED_CHAIN_CHI}, one shared stream")
def criterion_chain_chi_square(mutate: bool = False, reps: int = 1_000_000):
    """Simulated full event-sequence frequencies at n = 5 vs the exact law.

    All replications draw from one shared stream in two calls, the
    predator elements as one (reps, n-1) array and then the prey uniforms,
    and replay in lockstep blocks.  Their `sequence_codes` are tallied and
    decoded by `decode_counts`; a sequence outside the law's support raises
    RuntimeError, and the frequencies are tested against the partition-chain
    enumeration at level 0.01.  With mutate=True the null
    is perturbed and the test must reject.  The sample is drawn at every
    call.
    """
    n = 5
    law = dp_sequence_distribution(n)
    keys = sorted(law.probs)
    elem, prey_u = direct_picks(n, make_rng(SEED_CHAIN_CHI), (reps,))
    codes = [sequence_codes(n, *direct_chain_rows(n, elem[start:stop], prey_u[start:stop]))
             for start, stop in row_blocks(n, reps)]
    values, tally = np.unique(np.concatenate(codes), return_counts=True)
    decoded = decode_counts(n, dict(zip(values.tolist(), tally.tolist())), 2)
    outside = sum(c for seq, c in decoded.items() if seq not in law.probs)
    if outside:
        raise RuntimeError(f"{outside} simulated n={n} sequences lie outside the exact "
                           "law's support")
    counts = np.array([decoded.get(k, 0) for k in keys])
    probs = np.array([float(law.probs[k]) for k in keys])
    if mutate:
        probs = _perturbed(probs)
    test = chi_square_gof(counts, probs, level=0.01)
    label = ("perturbed sequence law (expected to reject)" if mutate
             else "exact n=5 sequence law not rejected")
    return (not test.reject,
            f"chi2 {test.statistic:.1f} df {test.dof} p {test.pvalue:.4f} ({reps} reps)",
            label, "level 0.01")


#: perturbed nulls that `run_criteria(mutate=...)` knows, and the criterion each perturbs
MUTATIONS = {"pmk": "pmk-chi-square", "chain": "chain-vs-oracle-chi-square"}


def check_selection(only, mutate):
    """Raise ValueError on an unknown criterion or mutation, or on a mutation
    whose criterion a non-empty `only` leaves out (it would test nothing)."""
    unknown = [c for c in only or () if c not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}; known: {list(CRITERIA)}")
    unknown = [m for m in mutate if m not in MUTATIONS]
    if unknown:
        raise ValueError(f"unknown mutations: {unknown}; known: {list(MUTATIONS)}")
    unselected = {m: MUTATIONS[m] for m in mutate if only and MUTATIONS[m] not in only}
    if unselected:
        raise ValueError(f"the selection must include the criterion each mutation "
                         f"perturbs: {unselected}")


def run_criteria(only=None, mutate=()):
    """Run all (or selected) criteria in CRITERIA order.

    Each declared sample is drawn through `_sample` before its first
    reader and timed on its own, so no criterion's seconds include it.
    Returns (results, samples): the CriterionResult list, and one
    {"sample", "workers", "seconds", "criteria"} record per sample with
    the selected criteria that read it.
    """
    check_selection(only, mutate)
    names = [c for c in CRITERIA if not only or c in only]
    mutated = {MUTATIONS[m] for m in mutate}
    results, samples = [], {}
    for name in names:
        criterion = CRITERIA[name]
        for spec in criterion.samples:
            if spec not in samples:
                t0 = time.perf_counter()
                _sample(spec)
                samples[spec] = {
                    "sample": _sample_name(spec),
                    "workers": SAMPLE_WORKERS,
                    "seconds": round(time.perf_counter() - t0, 3),
                    "criteria": [c for c in names if spec in CRITERIA[c].samples],
                }
        results.append(criterion(mutate=True) if name in mutated else criterion())
    return results, list(samples.values())


def suite_passed(results) -> bool:
    return all(r.passed or r.informative for r in results)
