import math

import numpy as np
import pytest

from addcoal.cost_engine import Functional
from addcoal.experiment import (
    ExperimentSpec,
    SummaryStats,
    chi_square_gof,
    ks_two_sample,
    regime_sweep,
    run_monte_carlo,
)
from addcoal import _replay, experiment
from addcoal.exact_oracles import _sum_by, parking_final_merge_marginal, partition_dp
from addcoal.process_core import Embedding, simulate
from addcoal.seeding import make_rng, substream_rng


def test_summary_stats_against_numpy():
    rng = make_rng(1)
    xs = rng.normal(3.0, 2.0, size=500)
    st = SummaryStats.from_values(xs)
    assert st.count == 500
    assert abs(st.mean - xs.mean()) < 1e-12
    assert abs(st.variance - xs.var(ddof=1)) < 1e-10
    assert st.min == xs.min() and st.max == xs.max()
    assert abs(st.stderr - xs.std(ddof=1) / math.sqrt(500)) < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(n=1)
    with pytest.raises(ValueError):
        ExperimentSpec(n=100, reps=0)
    with pytest.raises(ValueError):
        ExperimentSpec(n=100, alpha_grid=(1.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(n=100, beta_grid=(11.0,))
    with pytest.raises(ValueError):
        ExperimentSpec(n=100, workers=0)


def test_run_monte_carlo_n2_trivial():
    spec = ExperimentSpec(n=2, reps=3, seed=9, alpha_grid=(0.5,), beta_grid=(0.0,))
    res = run_monte_carlo(spec)
    for f in Functional:
        expected = 0.0 if f is Functional.DISPLACEMENT else 1.0
        assert np.all(res.totals[f] == expected)
        # the single merge is the step-1 checkpoint of both grids
        assert np.all(res.alpha_values[f][:, 0] == expected / 2)
        assert np.all(res.beta_values[f][:, 0] == expected / 2**1.5)


def test_run_monte_carlo_deterministic_and_worker_invariant():
    # three blocks of 32, 32 and 6 rows, so three workers share them
    base = dict(n=500, reps=70, seed=41, alpha_grid=(0.25, 0.75), beta_grid=(0.0, 2.0))
    r1 = run_monte_carlo(ExperimentSpec(**base, workers=1))
    r2 = run_monte_carlo(ExperimentSpec(**base, workers=1))
    r3 = run_monte_carlo(ExperimentSpec(**base, workers=3))
    for f in Functional:
        assert np.array_equal(r1.totals[f], r2.totals[f])
        assert np.array_equal(r1.totals[f], r3.totals[f])
        assert np.array_equal(r1.alpha_values[f], r3.alpha_values[f])
        assert np.array_equal(r1.beta_values[f], r3.beta_values[f])
    r4 = run_monte_carlo(ExperimentSpec(**{**base, "seed": 42}))
    assert not np.array_equal(r1.totals[Functional.QF], r4.totals[Functional.QF])


def test_pool_opens_no_more_workers_than_blocks(pool_sizes):
    # the pool forks all its workers at the first submit, so it is sized to the blocks
    base = dict(n=500, reps=70, seed=41, alpha_grid=(0.25, 0.75), beta_grid=(0.0, 2.0))
    wide = run_monte_carlo(ExperimentSpec(**base, workers=64))
    assert pool_sizes == [3]  # three blocks of 32, 32 and 6 rows
    one = run_monte_carlo(ExperimentSpec(**base, workers=1))
    assert pool_sizes == [3]
    assert all(np.array_equal(a, b) for a, b in zip(_mc_arrays(wide), _mc_arrays(one)))


def test_run_monte_carlo_embeddings_share_law():
    # same mean within noise across embeddings (not identical draws)
    specs = [
        ExperimentSpec(n=400, reps=40, seed=5, embedding=e, alpha_grid=(), beta_grid=())
        for e in Embedding
    ]
    means = [run_monte_carlo(s).totals[Functional.QFW].mean() for s in specs]
    assert max(means) / min(means) < 1.15


def test_ks_identical_and_shuffled():
    rng = make_rng(4)
    xs = rng.random(200)
    assert ks_two_sample(xs, xs).statistic == 0.0
    shuffled = xs.copy()
    rng.shuffle(shuffled)
    res = ks_two_sample(xs, shuffled)
    assert res.statistic == 0.0
    assert res.pvalue == 1.0


def test_ks_detects_shift():
    rng = make_rng(5)
    a = rng.normal(0.0, 1.0, 400)
    b = rng.normal(1.0, 1.0, 400)
    res = ks_two_sample(a, b, level=0.001)
    assert res.reject
    same = ks_two_sample(a, rng.normal(0.0, 1.0, 400), level=0.001)
    assert not same.reject


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_kolmogorov_sf_matches_scipy_down_to_tiny_y():
    from scipy.special import kolmogorov

    for y in np.geomspace(1e-6, 3.0, 2001).tolist():
        # scipy's kolmogorov is itself up to 4e-15 off the series (at 40 digits) near y = 0.82
        tol = 5e-15 if 0.7 <= y <= 1.0 else 1e-15
        assert abs(experiment._kolmogorov_sf(y) - kolmogorov(y)) <= tol, y
    assert experiment._kolmogorov_sf(0.01) == experiment._kolmogorov_sf(1e-6) == 1.0


def test_ks_does_not_reject_samples_that_differ_in_one_value():
    a = np.arange(200_000, dtype=np.float64)
    b = a.copy()
    b[7] = -1.0
    res = ks_two_sample(a, b)
    assert res.statistic == pytest.approx(5e-6)
    assert res.pvalue == 1.0 and not res.reject


def test_chi_square_exact_proportional():
    probs = [0.2, 0.3, 0.5]
    observed = [20, 30, 50]
    res = chi_square_gof(observed, probs)
    assert res.statistic == 0.0
    assert res.pvalue == 1.0
    assert res.dof == 2


def test_chi_square_pools_small_cells():
    probs = [0.5, 0.3, 0.1, 0.05, 0.03, 0.02]
    observed = [50, 30, 10, 5, 3, 2]
    res = chi_square_gof(observed, probs)
    assert res.bins < len(probs)
    assert res.statistic < 1e-12  # proportional data stays a perfect fit


def test_chi_square_degenerate_pooling():
    with pytest.raises(ValueError):
        chi_square_gof([1, 1], [0.5, 0.5])


def test_chi_square_rejects_observations_in_impossible_cells():
    with pytest.raises(ValueError, match=r"probability zero: \[2, 3\]"):
        chi_square_gof([5, 5, 3, 1], [0.5, 0.5, 0.0, 0.0])
    # an empty cell of probability zero is no evidence either way
    assert chi_square_gof([10, 10, 0], [0.5, 0.5, 0.0]).pvalue == 1.0


def test_chi_square_detects_wrong_null():
    rng = make_rng(6)
    draws = rng.integers(0, 4, size=2000)
    observed = np.bincount(draws, minlength=4)
    uniform = [0.25] * 4
    wrong = [0.4, 0.3, 0.2, 0.1]
    assert not chi_square_gof(observed, uniform, level=0.01).reject
    assert chi_square_gof(observed, wrong, level=0.01).reject


def test_monte_carlo_matches_exact_dp_frequencies():
    # empirical sanity chain: simulated (min, max) of (L, R) at step 2 of n = 4 vs DP law
    n, reps = 4, 20_000
    dp = partition_dp(n)
    law = _sum_by(dp.steps[1], lambda lr: (min(lr), max(lr)))  # (s, S) at step 2
    pairs = sorted(law)
    counts = {pair: 0 for pair in pairs}
    for rep in range(reps):
        batch = simulate(n, substream_rng(77, rep), Embedding.DIRECT)
        l, r = int(batch.L[1]), int(batch.R[1])
        counts[(min(l, r), max(l, r))] += 1
    res = chi_square_gof(
        [counts[p] for p in pairs], [float(law[p]) for p in pairs], level=0.001
    )
    assert not res.reject


def test_cluster_spectrum_tracks_mean_field():
    # fraction of size-k clusters at step ceil(n/2) vs q(k, log 2),
    # within 3.5 standard errors of the replication mean
    from addcoal.cost_engine import alpha_step
    from addcoal.smoluchowski import q

    n, reps = 100_000, 30
    step = alpha_step(n, 0.5)
    t = math.log(2.0)
    fractions = {1: [], 2: [], 3: []}
    for rep in range(reps):
        batch = simulate(n, substream_rng(91, rep), Embedding.DIRECT)
        spectrum = batch.spectrum_at(step)
        for k in fractions:
            fractions[k].append(spectrum.get(k, 0) / n)
    for k, vals in fractions.items():
        st = SummaryStats.from_values(vals)
        assert abs(st.mean - q(k, t)) <= 3.5 * st.stderr, (k, st.mean, q(k, t))


def test_regime_sweep_degenerate_n2():
    rows = regime_sweep([2], 0.15, reps=4, seed=1)
    row = rows[0]
    assert row.k_sparse in (0, 1) and row.k_full in (0, 1)
    assert row.sparse.mean in (0.5, 1.0)
    assert row.full.mean in (0.5, 1.0)


def test_regime_sweep_validation(monkeypatch):
    def draw(*args):
        raise AssertionError("substream drawn")

    monkeypatch.setattr(experiment, "substream_bits", draw)
    with pytest.raises(ValueError):
        regime_sweep([100], 0.6)
    with pytest.raises(ValueError, match="reps must be >= 1"):
        regime_sweep([100], 0.15, reps=0)
    # every n is checked before the first draw
    for n_list in ([0], [100, 1]):
        with pytest.raises(ValueError, match="2 <= n < 2\\*\\*31"):
            regime_sweep(n_list, 0.15)


def test_regime_sweep_direction():
    rows = regime_sweep([200, 2000], 0.15, reps=25, seed=8)
    assert rows[0].sparse.mean > rows[1].sparse.mean
    assert rows[0].full.mean < rows[1].full.mean


def _totals_only(seed, functionals):
    return run_monte_carlo(ExperimentSpec(
        n=3000, embedding=Embedding.PARKING, functionals=functionals, reps=4, seed=seed,
        alpha_grid=(0.0, 0.9999), beta_grid=(0.0, math.sqrt(3000))))


def test_parking_totals_scan_matches_replay():
    # a second functional sends the same replications through the replay
    disp = Functional.DISPLACEMENT
    for seed in (0, 1, 2):
        scan = _totals_only(seed, (disp,))
        replay = _totals_only(seed, (disp, Functional.PREDATOR))
        for field in ("alpha_values", "beta_values", "totals"):
            assert np.array_equal(getattr(scan, field)[disp], getattr(replay, field)[disp])


@pytest.mark.parametrize("embedding", list(Embedding))
def test_regime_sweep_matches_replay(embedding):
    # n = 2 and 10 replay their 12 replications in lockstep, and n = 3000 in
    # walked blocks of 5, 5 and 2 rows; the reference replays one run at a time
    n_list, eps, reps, seed = (2, 10, 3000), 0.15, 12, 4
    rows = regime_sweep(n_list, eps, reps=reps, seed=seed, embedding=embedding)
    for i, (n, row) in enumerate(zip(n_list, rows)):
        sparse, full = SummaryStats(), SummaryStats()
        for rep in range(reps):
            batch = simulate(n, substream_rng(seed, i * reps + rep), embedding)
            sparse.push(batch.largest_cluster_at(row.k_sparse) / n)
            full.push(batch.largest_cluster_at(row.k_full) / n)
        assert (row.sparse, row.full) == (sparse, full)


def test_tree_regime_sweep_replays_a_block_in_one_call(monkeypatch):
    calls = []
    tree_replay = _replay.tree_replay

    def counted(n, bottom, top):
        calls.append(np.shape(top))
        return tree_replay(n, bottom, top)

    monkeypatch.setattr(_replay, "tree_replay", counted)
    regime_sweep([300], 0.15, reps=25, seed=1, embedding=Embedding.TREE)
    assert calls == [(25, 299)]


def test_order_free_parking_statistics_skip_the_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("parking walk called")

    monkeypatch.setattr(_replay, "_parking_walk", walk)
    _totals_only(0, (Functional.DISPLACEMENT,))
    regime_sweep([100, 1000], 0.15, reps=2, embedding=Embedding.PARKING)
    parking_final_merge_marginal(7)
    with pytest.raises(AssertionError, match="parking walk called"):
        run_monte_carlo(ExperimentSpec(n=100, embedding=Embedding.PARKING,
                                       functionals=(Functional.DISPLACEMENT,),
                                       alpha_grid=(0.5,), beta_grid=()))


def _mc_arrays(res):
    return [a for f in res.spec.functionals
            for a in (res.alpha_values[f], res.beta_values[f], res.totals[f])]


@pytest.mark.parametrize("workers", [1, 2])
def test_lockstep_blocks_match_one_replication_at_a_time(monkeypatch, workers):
    # qf reads u and displacement reads u', so every draw of a replication counts
    n, reps = 20, 75
    spec = ExperimentSpec(n=n, reps=reps, seed=13, workers=workers,
                          functionals=(Functional.QF, Functional.PREDATOR, Functional.DISPLACEMENT),
                          alpha_grid=(0.0, 0.3, 0.9), beta_grid=(0.0, 1.5, math.sqrt(n)))
    results = []
    # room for n - 1 rows: blocks of 19, 19, 19 and 18 rows, each walked;
    # 30 rows: blocks of 30, 30 and 15 rows, the last one below n rows;
    # the default budget: one lockstep block of 75 rows
    for cells in (n * (n - 1), 30 * n, _replay.BLOCK_CELLS):
        monkeypatch.setattr(_replay, "BLOCK_CELLS", cells)
        results.append(_mc_arrays(run_monte_carlo(spec)))
    for got in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(results[0], got))
    assert results[0][2].shape == (reps,)


def test_direct_blocks_of_n_rows_skip_the_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("direct walk called")

    monkeypatch.setattr(_replay, "_direct_walk", walk)
    run_monte_carlo(ExperimentSpec(n=20, reps=20, seed=3))
    with pytest.raises(AssertionError, match="direct walk called"):
        run_monte_carlo(ExperimentSpec(n=20, reps=19, seed=3))


def _blocks_of_n_rows_skip_the_walk_and_match_it(monkeypatch, embedding, walk_name):
    spec = ExperimentSpec(n=20, embedding=embedding, reps=20, seed=3)
    monkeypatch.setattr(_replay, "BLOCK_CELLS", 20 * 19)  # blocks of fewer than n rows
    walked = _mc_arrays(run_monte_carlo(spec))
    monkeypatch.undo()

    def walk(*args):
        raise AssertionError(f"{walk_name} called")

    monkeypatch.setattr(_replay, walk_name, walk)
    lockstep = _mc_arrays(run_monte_carlo(spec))
    assert all(np.array_equal(a, b) for a, b in zip(walked, lockstep))
    with pytest.raises(AssertionError, match=f"{walk_name} called"):
        run_monte_carlo(ExperimentSpec(n=20, embedding=embedding, reps=19, seed=3))


def test_tree_blocks_of_n_rows_skip_the_walk_and_match_it(monkeypatch):
    # every tree block replays in one `tree_replay` call; the walk left is
    # the Prufer decode, which blocks of n rows do in lockstep
    _blocks_of_n_rows_skip_the_walk_and_match_it(monkeypatch, Embedding.TREE,
                                                  "tree_parents_from_prufer")


def test_parking_blocks_of_n_rows_skip_the_walk_and_match_it(monkeypatch):
    _blocks_of_n_rows_skip_the_walk_and_match_it(monkeypatch, Embedding.PARKING, "_parking_walk")


@pytest.mark.parametrize("workers", [1, 2])
def test_empty_grids_give_totals_only(workers):
    # two blocks, in a pool at two workers: a lockstep one and one of 3 walked
    # rows; parking reads its totals from the scan
    reps = _replay.block_rows(20) + 3
    for embedding, functionals in ((Embedding.DIRECT, tuple(Functional)),
                                   (Embedding.PARKING, (Functional.DISPLACEMENT,)),
                                   (Embedding.TREE, (Functional.QF, Functional.PREDATOR))):
        base = dict(n=20, embedding=embedding, functionals=functionals, reps=reps, seed=5)
        empty = run_monte_carlo(ExperimentSpec(**base, alpha_grid=(), beta_grid=(),
                                               workers=workers))
        gridded = run_monte_carlo(ExperimentSpec(**base, alpha_grid=(0.5,), beta_grid=(1.0,)))
        for f in functionals:
            assert empty.alpha_values[f].shape == empty.beta_values[f].shape == (reps, 0)
            assert np.array_equal(empty.totals[f], gridded.totals[f])
        assert [kind for _, kind, _, _ in empty.rows()] == ["total"] * len(functionals)


def test_every_embedding_replays_the_row_blocks(monkeypatch):
    # one rule for every embedding and n: blocks of block_rows(n) rows, which
    # simulate_rows replays in lockstep from n rows on and walks below
    assert _replay.row_blocks(500, 70) == [(0, 32), (32, 64), (64, 70)]
    assert _replay.row_blocks(100_000, 3) == [(0, 1), (1, 2), (2, 3)]
    blocks = []
    one_rep = experiment._one_rep

    def recorded(spec, start, stop):
        blocks.append((start, stop))
        return one_rep(spec, start, stop)

    monkeypatch.setattr(experiment, "_one_rep", recorded)
    rows = _replay.block_rows(50)
    for embedding in Embedding:
        for n, reps in ((500, 40), (50, 3), (50, rows + 5)):
            blocks.clear()
            run_monte_carlo(ExperimentSpec(n=n, embedding=embedding, reps=reps, seed=2))
            assert blocks == _replay.row_blocks(n, reps), (embedding, n, reps)
        assert blocks == [(0, rows), (rows, rows + 5)]
