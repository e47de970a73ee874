"""Monte Carlo orchestration, summary statistics, and statistical tests.

Replications are deterministic functions of (master seed, replication
index): each owns a substream (a PCG64 bit generator from
`seeding.substream_bits`), so results are byte-identical
for a fixed spec regardless of worker count or scheduling.  Aggregation
is an ordered fold over replication indices.
"""

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cost_engine import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    Functional,
    alpha_in_range,
    alpha_step,
    beta_step,
    event_costs,
)
from . import _replay
from .process_core import Embedding, _check_n, direct_rows, simulate_rows
from .process_core import simulate  # noqa: F401  (perfbench/spans.py traces it)
from .seeding import substream_bits
from .seeding import substream_rng  # noqa: F401  (perfbench/spans.py traces it)

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


def beta_in_range(n: int, beta: float) -> bool:
    """Whether a beta checkpoint lies in [0, sqrt(n)], past which its step would be 0."""
    return 0.0 <= beta <= math.sqrt(n)


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
        _check_n(self.n)
        if self.beta_grid == DEFAULT_BETA_GRID:
            # the default grid drops its points past sqrt(n), so small n still runs
            object.__setattr__(self, "beta_grid",
                               tuple(b for b in self.beta_grid if beta_in_range(self.n, b)))
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not all(alpha_in_range(a) for a in self.alpha_grid):
            raise ValueError("alpha grid must lie in [0, 1)")
        outside = [b for b in self.beta_grid if not beta_in_range(self.n, b)]
        if outside:
            raise ValueError(f"beta-grid points must lie in [0, sqrt(n)] for n = {self.n}, "
                             f"got {outside}")


def _checkpoints(spec):
    """(kind, point, step, scale) per checkpoint, in the order of every result and row:
    each alpha point reads C/n at step ceil(alpha n), then each beta point
    n^{-3/2} C at step floor(n - beta sqrt(n))."""
    n = spec.n
    return ([("alpha", a, alpha_step(n, a), n) for a in spec.alpha_grid]
            + [("beta", b, beta_step(n, b), n ** 1.5) for b in spec.beta_grid])


def _one_rep(spec, start, stop):
    """Replications start..stop-1 of spec -> (values, totals), a row per replication.

    values has shape (functionals, rows, checkpoints) and holds each
    `_checkpoints` value, totals (functionals, rows) the raw totals.  Each
    replication draws from its own substream, so a block gives the rows
    that one replication at a time would.  A parking run that reads only
    the displacement total takes the scan, which draws only the first
    tries (`direct_rows(n, bits, 0)`: raw words from n rows on, a
    Generator per row below); every other block is one `simulate_rows`
    call, which draws and replays it in lockstep or walks each row.
    """
    n, embedding, functionals = spec.n, spec.embedding, spec.functionals
    checkpoints = _checkpoints(spec)
    steps = np.array([step for _, _, step, _ in checkpoints], np.int64)
    scales = np.array([scale for _, _, _, scale in checkpoints], np.float64)
    bits = substream_bits(spec.seed, range(start, stop))
    rows = stop - start
    if (embedding is Embedding.PARKING and set(functionals) == {Functional.DISPLACEMENT}
            and set(steps.tolist()) <= {0, n - 1}):
        # only the total displacement is read, and it is order-free: a
        # constant view stands in for the cumulative cost at step n - 1
        tries, = direct_rows(n, bits, 0)
        h = np.stack([np.bincount(t, minlength=n) for t in tries])
        del tries  # freed first: the scan's arrays reuse its pages (held, +45 % at n = 1e5)
        carry, _ = _replay.parking_scan(h)
        total = carry.sum(axis=1, dtype=np.int64)  # int32 carries; the total grows like n**1.5
        csums = [np.broadcast_to(total[:, None], (rows, n - 1))] * len(functionals)
    else:
        batch = simulate_rows(n, bits, embedding)
        csums = (np.cumsum(event_costs(functional, batch), axis=1) for functional in functionals)
    values = np.empty((len(functionals), rows, len(steps)))
    totals = np.empty((len(functionals), rows))
    for i, csum in enumerate(csums):
        # step 0 reads no merge: its cumulated cost is 0
        values[i] = np.where(steps > 0, csum[:, steps - 1], 0) / scales
        totals[i] = csum[:, -1]
    return values, totals


@dataclass
class MonteCarloResult:
    """Raw per-replication checkpoint values plus summary accessors."""

    spec: ExperimentSpec
    alpha_values: dict  # functional -> (reps, n_alpha) array of C/n
    beta_values: dict  # functional -> (reps, n_beta) array of n^-1.5 C
    totals: dict  # functional -> (reps,) array of raw totals

    def normalized_totals(self, functional) -> np.ndarray:
        return self.totals[Functional(functional)] / self.spec.n ** 1.5

    def columns(self, functional):
        """(kind, point, per-replication values) for each checkpoint, then the total."""
        f = Functional(functional)
        values = np.hstack([self.alpha_values[f], self.beta_values[f]])
        return ([(kind, point, values[:, j])
                 for j, (kind, point, _, _) in enumerate(_checkpoints(self.spec))]
                + [("total", math.nan, self.totals[f])])

    def rows(self):
        """Flat (functional, kind, grid point, SummaryStats) records."""
        return [(f, kind, point, SummaryStats.from_values(values))
                for f in self.spec.functionals for kind, point, values in self.columns(f)]


def _map_blocks(spec, blocks):
    """`_one_rep` over the blocks, in order; in a process pool when spec.workers > 1."""
    args = (itertools.repeat(spec), *zip(*blocks))
    workers = min(spec.workers, len(blocks))  # the pool forks all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_one_rep, *args,
                                chunksize=max(1, len(blocks) // (4 * workers)))
    else:
        yield from map(_one_rep, *args)


def run_monte_carlo(spec: ExperimentSpec) -> MonteCarloResult:
    """spec.reps independent replications, one `_one_rep` call per `_replay.row_blocks` block."""
    blocks = _replay.row_blocks(spec.n, spec.reps)
    na = len(spec.alpha_grid)
    values = np.empty((len(spec.functionals), spec.reps, na + len(spec.beta_grid)))
    totals = np.empty((len(spec.functionals), spec.reps))
    # blocks arrive in order; each is written into place as it arrives
    for (v, t), (start, stop) in zip(_map_blocks(spec, blocks), blocks):
        values[:, start:stop] = v
        totals[:, start:stop] = t
    fs = spec.functionals
    return MonteCarloResult(spec, {f: values[i, :, :na] for i, f in enumerate(fs)},
                            {f: values[i, :, na:] for i, f in enumerate(fs)},
                            {f: totals[i] for i, f in enumerate(fs)})


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
    """Survival function of the Kolmogorov distribution (alternating series).

    Below y = 0.17 the true value rounds to 1.0 (1 - K(0.17) < 4e-18), where
    the series, cut at 100 terms, would fall short of it (0.867 at y = 0.01).
    """
    if y < 0.17:
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


def chi_square_gof(observed, expected_probs, level: float = 0.05) -> ChiSquareResult:
    """Pearson goodness of fit against given cell probabilities.

    Adjacent cells are pooled left to right until each pooled cell's
    expected count reaches 5 (a trailing underfull pool is
    merged into the last cell); fewer than two cells after pooling is an
    error, and so is an observation in a cell of probability zero.
    """
    from scipy.special import gammaincc

    obs = np.asarray(observed, dtype=np.float64)
    probs = np.asarray(expected_probs, dtype=np.float64)
    if obs.shape != probs.shape:
        raise ValueError("observed and expected lengths differ")
    if np.any(probs < 0):
        raise ValueError("expected probabilities must be nonnegative")
    impossible = np.flatnonzero((probs == 0) & (obs != 0))
    if impossible.size:
        raise ValueError(f"observations in cells of probability zero: {impossible.tolist()}")
    total = obs.sum()
    expected = probs / probs.sum() * total
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
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


def check_sweep(n_list, eps: float, reps: int) -> None:
    """Raise ValueError unless 0 < eps < 1/2, reps >= 1 and every n is a chain
    size (`_check_n`): the arguments of `regime_sweep`, which checks them
    before its first draw."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must be in (0, 1/2)")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    for n in n_list:
        _check_n(n)


def regime_sweep(n_list, eps: float, reps: int = 100, seed: int = 0,
                 embedding: Embedding = Embedding.DIRECT) -> list:
    """Mean largest-cluster fraction at the two regime checkpoints per n.

    Replication rep of the i-th n draws from substream i * reps + rep; each
    n's replications replay in the blocks of `_replay.row_blocks`."""
    check_sweep(n_list, eps, reps)
    embedding = Embedding(embedding)
    rows = []
    for i, n in enumerate(n_list):
        k_sparse = min(n - 1, max(0, int(math.floor(n - n ** (0.5 + eps)))))
        k_full = min(n - 1, max(0, int(math.floor(n - n ** (0.5 - eps)))))
        sizes = []  # (2, rows) per block: the largest cluster at k_sparse and at k_full
        for start, stop in _replay.row_blocks(n, reps):
            bits = substream_bits(seed, range(i * reps + start, i * reps + stop))
            if embedding is Embedding.PARKING:
                # the blocks after k cars depend only on the first k tries' histogram
                tries, = direct_rows(n, bits, 0)
                h = np.stack([np.bincount(t[:k], minlength=n) for k in (k_sparse, k_full)
                              for t in tries])
                sizes.append(_replay.parking_largest_block(h).reshape(2, -1))
            else:
                batch = simulate_rows(n, bits, embedding)
                sizes.append([batch.largest_cluster_at(k) for k in (k_sparse, k_full)])
        sparse, full = map(SummaryStats.from_values, np.hstack(sizes) / n)
        rows.append(RegimeRow(n, k_sparse, k_full, sparse, full))
    return rows
