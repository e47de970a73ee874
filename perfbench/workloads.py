"""The four benchmark workloads: what each pass runs and how its outputs are checked.

Every workload is a fixed list of operations built from the workload seed.
A pass runs the operations one after another (closed loop, one client,
workers=1) and the benchmark repeats passes on the same inputs.  Program
functions are always looked up through their module at call time, so the
traced run sees the wrappers it installs.

Each roadmap mechanism does most of its work in one workload and little in
another:
  mc-curves       long chains: replay kernels take nearly all the time
                  (criteria 6, 12; `simulate --n 100000`; lockstep, one kernel)
  totals-sweep    totals and largest-cluster snapshots only (criteria 7, 10,
                  11; where a replay-free parking scan would act)
  mc-small        tiny chains, many replications: seeding, draws, fold and
                  aggregation dominate (supplementary chi-squares; lockstep)
  oracles-limits  no RNG: exact oracles and Smoluchowski quadrature
                  (criteria 1-5; where merging the oracle replay copies into
                  the kernels would show)
"""

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from addcoal import acceptance, exact_oracles, experiment, smoluchowski
from addcoal.cost_engine import DEFAULT_BETA_GRID, Functional
from addcoal.process_core import Embedding


@dataclass(frozen=True)
class Op:
    """One operation of a pass: `run()` returns the output the checks read."""

    name: str
    run: Callable
    merges: int  # merge events replayed by the operation
    embedding: str = ""  # set when the operation replays one embedding only


class Checks:
    """Counts output checks attempted and failed, keeping failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)


def digest(arrays):
    """sha256 over the raw bytes of float64 arrays (bit-identical streams)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _mc_arrays(res):
    out = []
    for f in res.spec.functionals:
        out += [res.alpha_values[f], res.beta_values[f], res.totals[f]]
    return out


def check_mc_result(res, checks, label):
    """Exact per-replication invariants of a run_monte_carlo result."""
    spec = res.spec
    n = spec.n
    vals = {f: (res.alpha_values[f], res.beta_values[f], res.totals[f]) for f in spec.functionals}
    beta_sorted = list(spec.beta_grid) == sorted(spec.beta_grid)
    for f, (a, b, t) in vals.items():
        checks.expect(a.shape == (spec.reps, len(spec.alpha_grid)) and t.shape == (spec.reps,),
                      f"{label} {f.value}: result shapes")
        checks.expect(bool(np.all(np.diff(a, axis=1) >= 0)),
                      f"{label} {f.value}: alpha checkpoints nondecreasing")
        if beta_sorted:
            # larger beta is an earlier step, so the checkpoint cannot grow
            checks.expect(bool(np.all(np.diff(b, axis=1) <= 0)),
                          f"{label} {f.value}: beta checkpoints nonincreasing in beta")
        if 0.0 in spec.beta_grid:
            j = spec.beta_grid.index(0.0)
            checks.expect(bool(np.array_equal(b[:, j], t / n ** 1.5)),
                          f"{label} {f.value}: beta=0 checkpoint is the total")
        floor = 0 if f is Functional.DISPLACEMENT else n - 1
        checks.expect(bool(np.all(t >= floor)), f"{label} {f.value}: total >= {floor}")
    if Functional.PREY in vals and Functional.QFB in vals:
        checks.expect(all(np.array_equal(x, y) for x, y in
                          zip(vals[Functional.PREY], vals[Functional.QFB])),
                      f"{label}: prey equals qfb")
    if Functional.QF in vals and Functional.QFW in vals:
        checks.expect(all(bool(np.all(x >= y)) for x, y in
                          zip(vals[Functional.QF], vals[Functional.QFW])),
                      f"{label}: qf >= qfw")
    if Functional.DISPLACEMENT in vals and Functional.PREDATOR in vals:
        checks.expect(bool(np.all(vals[Functional.DISPLACEMENT][2]
                                  <= vals[Functional.PREDATOR][2] - (n - 1))),
                      f"{label}: displacement <= predator - (n-1)")


def check_digest(checks, label, got, seed, digests):
    """Compare with the digest recorded at this seed, when one was recorded."""
    want = digests.get(str(seed))
    if want is not None:
        checks.expect(got == want, f"{label}: digest {got} != recorded {want} at seed {seed}")


class Workload:
    """Base: subclasses build `ops` from the seed and check a pass's outputs."""

    name = ""
    ops: list

    def digest(self, outputs):
        return ""

    def check(self, outputs, checks, digests):
        raise NotImplementedError


class McCurves(Workload):
    name = "mc-curves"
    N = 100_000
    REPS = 2

    def __init__(self, seed):
        self.ops = []
        for emb in (Embedding.DIRECT, Embedding.PARKING, Embedding.TREE):
            spec = experiment.ExperimentSpec(n=self.N, embedding=emb, reps=self.REPS, seed=seed)
            self.ops.append(Op(f"run_monte_carlo[{emb.value}]",
                               lambda spec=spec: experiment.run_monte_carlo(spec),
                               spec.reps * (spec.n - 1), emb.value))
        self.seed = seed

    def digest(self, outputs):
        return digest([a for res in outputs for a in _mc_arrays(res)])

    def check(self, outputs, checks, digests):
        for op, res in zip(self.ops, outputs):
            check_mc_result(res, checks, op.name)
        check_digest(checks, self.name, self.digest(outputs), self.seed, digests)


def _regime_k(n, eps):
    k_sparse = min(n - 1, max(0, int(math.floor(n - n ** (0.5 + eps)))))
    k_full = min(n - 1, max(0, int(math.floor(n - n ** (0.5 - eps)))))
    return k_sparse, k_full


class TotalsSweep(Workload):
    name = "totals-sweep"
    N = 100_000
    REPS = 3
    SWEEP_NS = (1_000, 10_000, 100_000)
    SWEEP_EPS = 0.15
    SWEEP_REPS = 2

    def __init__(self, seed):
        qf = experiment.ExperimentSpec(n=self.N, embedding=Embedding.DIRECT,
                                       functionals=(Functional.QF,), reps=self.REPS,
                                       seed=seed, alpha_grid=(), beta_grid=())
        disp = experiment.ExperimentSpec(n=self.N, embedding=Embedding.PARKING,
                                         functionals=(Functional.DISPLACEMENT,), reps=self.REPS,
                                         seed=seed + 1, alpha_grid=(), beta_grid=())
        self.seed = seed
        self._totals = {}
        self.ops = [
            Op("qf-totals[direct]", lambda: self._keep("qf", experiment.run_monte_carlo(qf)),
               qf.reps * (qf.n - 1), "direct"),
            Op("displacement-totals[parking]",
               lambda: self._keep("disp", experiment.run_monte_carlo(disp)),
               disp.reps * (disp.n - 1), "parking"),
            Op("ks_two_sample", self._ks, 0),
            Op("regime_sweep[parking]",
               lambda: experiment.regime_sweep(self.SWEEP_NS, self.SWEEP_EPS,
                                               reps=self.SWEEP_REPS, seed=seed,
                                               embedding=Embedding.PARKING),
               self.SWEEP_REPS * sum(n - 1 for n in self.SWEEP_NS), "parking"),
        ]

    def _keep(self, key, res):
        self._totals[key] = res
        return res

    def _ks(self):
        return experiment.ks_two_sample(
            self._totals["qf"].normalized_totals(Functional.QF),
            self._totals["disp"].normalized_totals(Functional.DISPLACEMENT),
            level=0.001,
        )

    def digest(self, outputs):
        qf, disp, ks, rows = outputs
        parts = _mc_arrays(qf) + _mc_arrays(disp) + [[ks.statistic, ks.pvalue]]
        for r in rows:
            parts.append([r.n, r.k_sparse, r.k_full]
                         + [getattr(st, k) for st in (r.sparse, r.full)
                            for k in ("count", "mean", "m2", "min", "max")])
        return digest(parts)

    def check(self, outputs, checks, digests):
        qf, disp, ks, rows = outputs
        check_mc_result(qf, checks, "qf-totals")
        check_mc_result(disp, checks, "displacement-totals")
        a = qf.normalized_totals(Functional.QF)
        b = disp.normalized_totals(Functional.DISPLACEMENT)
        # sup |F_a - F_b| over the pooled sample, by direct counting
        x = np.concatenate([a, b])[:, None]
        ref = float(np.max(np.abs((a <= x).mean(axis=1) - (b <= x).mean(axis=1))))
        checks.expect(abs(ks.statistic - ref) < 1e-12, f"KS statistic {ks.statistic} != {ref}")
        checks.expect(0.0 <= ks.pvalue <= 1.0, f"KS p-value {ks.pvalue} outside [0, 1]")
        checks.expect([r.n for r in rows] == list(self.SWEEP_NS), "regime rows cover the n list")
        for r in rows:
            n = r.n
            ks_, kf = _regime_k(n, self.SWEEP_EPS)
            checks.expect((r.k_sparse, r.k_full) == (ks_, kf), f"regime n={n}: checkpoint steps")
            checks.expect(r.sparse.count == r.full.count == self.SWEEP_REPS,
                          f"regime n={n}: replication count")
            # after k merges: n-k clusters, so largest >= n/(n-k); and largest <= k+1
            for k, st in ((r.k_sparse, r.sparse), (r.k_full, r.full)):
                lo = math.ceil(n / (n - k)) / n
                checks.expect(lo <= st.min <= st.max <= (k + 1) / n,
                              f"regime n={n} k={k}: largest cluster bounds")
            # the largest cluster never shrinks, replication by replication
            checks.expect(r.full.min >= r.sparse.min and r.full.max >= r.sparse.max
                          and r.full.mean >= r.sparse.mean - 1e-12,
                          f"regime n={n}: full >= sparse")
        check_digest(checks, self.name, self.digest(outputs), self.seed, digests)


class McSmall(Workload):
    name = "mc-small"
    CHAIN_REPS = 20_000  # n = 5, one shared stream
    PMK_RUNS = 3_000  # m = 50, one substream per replication
    N = 50
    REPS = 3_000

    def __init__(self, seed):
        spec = experiment.ExperimentSpec(
            n=self.N, embedding=Embedding.DIRECT,
            functionals=(Functional.PREDATOR, Functional.QF), reps=self.REPS, seed=seed,
            beta_grid=tuple(b for b in DEFAULT_BETA_GRID if b <= math.sqrt(self.N)),
        )
        self.seed = seed
        self.ops = [
            Op("criterion_chain_chi_square",
               lambda: acceptance.criterion_chain_chi_square(reps=self.CHAIN_REPS),
               self.CHAIN_REPS * 4, "direct"),
            Op("criterion_pmk_chi_square",
               lambda: acceptance.criterion_pmk_chi_square(runs=self.PMK_RUNS),
               self.PMK_RUNS * 49, "direct"),
            Op("run_monte_carlo[n=50]", lambda: experiment.run_monte_carlo(spec),
               spec.reps * (spec.n - 1), "direct"),
        ]

    def digest(self, outputs):
        return digest(_mc_arrays(outputs[2]))

    def check(self, outputs, checks, digests):
        chain, pmk_chi, res = outputs
        checks.expect(chain.passed, f"chain chi-square failed: {chain.measured}")
        checks.expect(pmk_chi.passed, f"pmk chi-square failed: {pmk_chi.measured}")
        check_mc_result(res, checks, "run_monte_carlo[n=50]")
        check_digest(checks, self.name, self.digest(outputs), self.seed, digests)


class OraclesLimits(Workload):
    name = "oracles-limits"
    FINAL_M = 7
    ENUM_N = 6
    DP_N = 20
    QFW_GRID = tuple(round(0.05 * i, 2) for i in range(1, 19))  # 0.05 .. 0.90
    PREY_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))  # 0.05 .. 0.95

    def __init__(self, seed):
        # no randomness: the seed does not change the inputs
        self.pmk = exact_oracles.p_mk  # reference law of the final merge
        m, n = self.FINAL_M, self.ENUM_N
        self.ops = [
            Op("parking_final_merge_marginal",
               lambda: exact_oracles.parking_final_merge_marginal(m),
               m ** (m - 1) * (m - 1), "parking"),
            Op("enumerate_parking", lambda: exact_oracles.enumerate_parking(n),
               n ** (n - 1) * (n - 1), "parking"),
            Op("enumerate_spanning_trees", lambda: exact_oracles.enumerate_spanning_trees(n),
               n ** (n - 2) * math.factorial(n - 1) * (n - 1), "tree"),
            Op("dp_sequence_distribution", lambda: exact_oracles.dp_sequence_distribution(n), 0),
            Op("partition_dp", lambda: exact_oracles.partition_dp(self.DP_N), 0),
            Op("phi_curve_quadrature[qfw]",
               lambda: smoluchowski.phi_curve_quadrature(Functional.QFW, self.QFW_GRID, tol=1e-8),
               0),
            Op("phi_curve_quadrature[prey]",
               lambda: smoluchowski.phi_curve_quadrature(Functional.PREY, self.PREY_GRID, tol=1e-8),
               0),
        ]

    def check(self, outputs, checks, digests):
        marginal, park, tree, chain, dp, qfw, prey = outputs
        m = self.FINAL_M
        for k in range(1, m):
            checks.expect(marginal.get(k, Fraction(0)) == self.pmk(m, k),
                          f"final-merge law at m={m}, k={k} differs from p_mk")
        park = park.project(("s", "S", "L"))
        for a, b, what in ((park, tree, "parking/tree"), (park, chain, "parking/chain"),
                           (tree, chain, "tree/chain")):
            checks.expect(a.tv_distance(b) == 0, f"TV {what} != 0 at n={self.ENUM_N}")
        n = dp.n
        for k in range(1, n):
            checks.expect(sum(dp.l_marginal(k).values()) == 1, f"partition DP k={k}: L law mass")
            checks.expect(all(v == Fraction(n - l, n - k)
                              for l, v in dp.conditional_r_given_l(k).items()),
                          f"partition DP k={k}: E[R | L] identity")
        for a, r in zip(self.PREY_GRID, prey):
            checks.expect(abs(r.value + math.log1p(-a)) < 1e-6, f"prey curve at alpha={a}")
        # min(x, y) lies between half the harmonic-mean kernel and the kernel itself
        qfw_vals = [r.value for r in qfw]
        checks.expect(all(x < y for x, y in zip(qfw_vals, qfw_vals[1:])), "qfw curve increasing")
        for a, q, p in zip(self.QFW_GRID, qfw_vals, prey):
            checks.expect(p.value / 2 - 1e-8 <= q <= p.value + 1e-8, f"qfw curve bounds at alpha={a}")


WORKLOADS = {w.name: w for w in (McCurves, TotalsSweep, McSmall, OraclesLimits)}
