"""Monte Carlo orchestration, summary statistics, and statistical tests.

Replications are deterministic functions of (master seed, replication
index): each owns a substream generator, so results are byte-identical
for a fixed spec regardless of worker count or scheduling.  Aggregation
is an ordered fold over replication indices.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cost_engine import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    Functional,
    alpha_step,
    beta_step,
    event_costs,
)
from . import _replay
from .process_core import Embedding, parking_tries, simulate, simulate_direct_rows
from .seeding import substream_rng

_Z95 = 1.959963984540054


@dataclass
class SummaryStats:
    """Running (count, mean, M2, min, max) accumulator (Welford's update)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def push(self, x: float) -> None:
        x = float(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)

    @classmethod
    def from_values(cls, values) -> "SummaryStats":
        stats = cls()
        for v in values:
            stats.push(v)
        return stats

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(max(0.0, self.variance))

    @property
    def stderr(self) -> float:
        return self.std / math.sqrt(self.count) if self.count else math.nan

    @property
    def ci95(self) -> float:
        return _Z95 * self.stderr


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo experiment: chain size, embedding, costs, grids."""

    n: int
    embedding: Embedding = Embedding.DIRECT
    functionals: tuple = tuple(Functional)
    reps: int = 1
    seed: int = 0
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    beta_grid: tuple = DEFAULT_BETA_GRID
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "embedding", Embedding(self.embedding))
        object.__setattr__(
            self, "functionals", tuple(Functional(f) for f in self.functionals)
        )
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        object.__setattr__(self, "beta_grid", tuple(float(b) for b in self.beta_grid))
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if any(not 0.0 <= a < 1.0 for a in self.alpha_grid):
            raise ValueError("alpha grid must lie in [0, 1)")
        if any(not 0.0 <= b <= math.sqrt(self.n) for b in self.beta_grid):
            raise ValueError("beta grid must lie in [0, sqrt(n)]")


def _blocks(n, embedding, reps):
    """(start, stop) replication ranges, one per `_one_rep` call.

    Direct blocks of `_replay.block_rows(n)` rows where those reach n rows
    and so replay in lockstep; otherwise one replication per block, so that
    workers still share out the replications one at a time.
    """
    rows = _replay.block_rows(n)
    if embedding is not Embedding.DIRECT or rows < n:
        rows = 1
    return [(start, min(start + rows, reps)) for start in range(0, reps, rows)]


def _one_rep(args):
    """One block of replications -> (alpha, beta, totals), a row per replication.

    alpha has shape (functionals, rows, alpha steps) and holds C/n, beta the
    same with n^{-3/2} C, totals (functionals, rows) the raw totals.  Each
    replication draws from its own substream, so a block gives the rows
    that one replication at a time would.  A direct block of at least n rows
    replays in lockstep; other blocks replay one replication at a time.
    """
    n, embedding, functionals, seed, start, stop, alpha_steps, beta_steps = args
    rngs = (substream_rng(seed, rep) for rep in range(start, stop))
    rows = stop - start
    if (embedding is Embedding.PARKING and set(functionals) == {Functional.DISPLACEMENT}
            and set(alpha_steps + beta_steps) <= {0, n - 1}):
        # only the total displacement is read, and it is order-free: a
        # constant view stands in for the cumulative cost at step n - 1
        carry, _ = _replay.parking_scan(
            np.stack([np.bincount(parking_tries(n, rng), minlength=n) for rng in rngs]))
        csums = [np.broadcast_to(carry.sum(axis=1)[:, None], (rows, n - 1))] * len(functionals)
    elif embedding is Embedding.DIRECT and rows >= n:
        batch = simulate_direct_rows(n, rngs)
        csums = (np.cumsum(event_costs(functional, batch), axis=1) for functional in functionals)
    else:
        batches = [simulate(n, rng, embedding) for rng in rngs]
        csums = (np.cumsum([event_costs(functional, batch) for batch in batches], axis=1)
                 for functional in functionals)
    nf = len(functionals)
    alpha_vals = np.empty((nf, rows, len(alpha_steps)))
    beta_vals = np.empty((nf, rows, len(beta_steps)))
    totals = np.empty((nf, rows))
    scale_b = n ** 1.5
    for i, csum in enumerate(csums):
        for vals, steps, scale in ((alpha_vals, alpha_steps, n), (beta_vals, beta_steps, scale_b)):
            for j, m in enumerate(steps):
                vals[i, :, j] = csum[:, m - 1] / scale if m else 0.0
        totals[i] = csum[:, -1]
    return alpha_vals, beta_vals, totals


@dataclass
class MonteCarloResult:
    """Raw per-replication checkpoint values plus summary accessors."""

    spec: ExperimentSpec
    alpha_values: dict  # functional -> (reps, n_alpha) array of C/n
    beta_values: dict  # functional -> (reps, n_beta) array of n^-1.5 C
    totals: dict  # functional -> (reps,) array of raw totals

    def summary(self, functional, kind: str, index: int) -> SummaryStats:
        functional = Functional(functional)
        if kind == "alpha":
            return SummaryStats.from_values(self.alpha_values[functional][:, index])
        if kind == "beta":
            return SummaryStats.from_values(self.beta_values[functional][:, index])
        if kind == "total":
            return SummaryStats.from_values(self.totals[functional])
        raise ValueError("kind must be alpha, beta or total")

    def normalized_totals(self, functional, exponent: float = 1.5) -> np.ndarray:
        return self.totals[Functional(functional)] / self.spec.n ** exponent

    def rows(self):
        """Flat (functional, kind, grid point, SummaryStats) records."""
        out = []
        for f in self.spec.functionals:
            for j, a in enumerate(self.spec.alpha_grid):
                out.append((f, "alpha", a, self.summary(f, "alpha", j)))
            for j, b in enumerate(self.spec.beta_grid):
                out.append((f, "beta", b, self.summary(f, "beta", j)))
            out.append((f, "total", math.nan, self.summary(f, "total", 0)))
        return out


def run_monte_carlo(spec: ExperimentSpec) -> MonteCarloResult:
    """Execute spec.reps independent replications (optionally in parallel)."""
    alpha_steps = tuple(alpha_step(spec.n, a) for a in spec.alpha_grid)
    beta_steps = tuple(beta_step(spec.n, b) for b in spec.beta_grid)
    blocks = _blocks(spec.n, spec.embedding, spec.reps)
    args = [(spec.n, spec.embedding, spec.functionals, spec.seed, start, stop, alpha_steps,
             beta_steps) for start, stop in blocks]
    alpha_values, beta_values, totals = parts = [
        {f: np.empty((spec.reps,) + shape) for f in spec.functionals}
        for shape in ((len(alpha_steps),), (len(beta_steps),), ())]

    def collect(results):
        # blocks arrive in order; each is written into place as it arrives
        for (start, stop), block in zip(blocks, results):
            for part, values in zip(parts, block):
                for f, v in zip(spec.functionals, values):
                    part[f][start:stop] = v

    if spec.workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            collect(pool.map(_one_rep, args, chunksize=max(1, len(args) // (4 * spec.workers))))
    else:
        collect(map(_one_rep, args))
    return MonteCarloResult(spec, alpha_values, beta_values, totals)


# ---------------------------------------------------------------------------
# statistical tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KsResult:
    statistic: float
    pvalue: float
    level: float

    @property
    def reject(self) -> bool:
        return self.pvalue < self.level


def _kolmogorov_sf(y: float) -> float:
    """Survival function of the Kolmogorov distribution (alternating series)."""
    if y < 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = math.exp(-2.0 * (j * y) ** 2)
        total += sign * term
        if term < 1e-16 * max(total, 1e-300):
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(sample_a, sample_b, level: float = 0.05) -> KsResult:
    """Two-sample Kolmogorov-Smirnov with the asymptotic p-value."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    pvalue = _kolmogorov_sf((en + 0.12 + 0.11 / en) * d)
    return KsResult(d, pvalue, level)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    pvalue: float
    level: float
    bins: int

    @property
    def reject(self) -> bool:
        return self.pvalue < self.level


def chi_square_gof(observed, expected_probs, level: float = 0.05,
                   min_expected: float = 5.0) -> ChiSquareResult:
    """Pearson goodness of fit against given cell probabilities.

    Adjacent cells are pooled left to right until each pooled cell's
    expected count reaches min_expected (a trailing underfull pool is
    merged into the last cell); fewer than two cells after pooling is an
    error.
    """
    from scipy.special import gammaincc

    obs = np.asarray(observed, dtype=np.float64)
    probs = np.asarray(expected_probs, dtype=np.float64)
    if obs.shape != probs.shape:
        raise ValueError("observed and expected lengths differ")
    if np.any(probs < 0):
        raise ValueError("expected probabilities must be nonnegative")
    total = obs.sum()
    expected = probs / probs.sum() * total
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if pooled_obs:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
    if len(pooled_obs) < 2:
        raise ValueError("degenerate pooling: fewer than two cells with enough mass")
    po = np.array(pooled_obs)
    pe = np.array(pooled_exp)
    stat = float(np.sum((po - pe) ** 2 / pe))
    dof = len(po) - 1
    pvalue = float(gammaincc(dof / 2.0, stat / 2.0))
    return ChiSquareResult(stat, dof, pvalue, level, len(po))


# ---------------------------------------------------------------------------
# regime sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeRow:
    n: int
    k_sparse: int  # floor(n - n^(1/2 + eps)), deep in the sparse regime
    k_full: int  # floor(n - n^(1/2 - eps)), deep in the almost-full regime
    sparse: SummaryStats  # B/n at k_sparse
    full: SummaryStats  # B/n at k_full


def regime_sweep(n_list, eps: float, reps: int = 100, seed: int = 0,
                 embedding: Embedding = Embedding.DIRECT) -> list:
    """Mean largest-cluster fraction at the two regime checkpoints per n."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must be in (0, 1/2)")
    embedding = Embedding(embedding)
    rows = []
    for i, n in enumerate(n_list):
        k_sparse = min(n - 1, max(0, int(math.floor(n - n ** (0.5 + eps)))))
        k_full = min(n - 1, max(0, int(math.floor(n - n ** (0.5 - eps)))))
        st_sparse = SummaryStats()
        st_full = SummaryStats()
        for rep in range(reps):
            rng = substream_rng(seed, i * reps + rep)
            if embedding is Embedding.PARKING:
                # the blocks after k cars depend only on the first k tries' histogram
                tries = parking_tries(n, rng)
                h = np.stack([np.bincount(tries[:k], minlength=n) for k in (k_sparse, k_full)])
                sparse, full = _replay.parking_largest_block(h)
            else:
                batch = simulate(n, rng, embedding)
                sparse, full = batch.largest_cluster_at(k_sparse), batch.largest_cluster_at(k_full)
            st_sparse.push(sparse / n)
            st_full.push(full / n)
        rows.append(RegimeRow(n, k_sparse, k_full, st_sparse, st_full))
    return rows
