from fractions import Fraction

import numpy as np
import pytest

from addcoal import experiment
from addcoal.cost_engine import (
    ALL_FUNCTIONALS,
    Functional,
    alpha_step,
    beta_step,
    event_costs,
    split_mean,
)
from addcoal.exact_oracles import _conditional_means, _sum_by, enumerate_parking, partition_dp
from addcoal.experiment import ExperimentSpec, run_monte_carlo
from addcoal.process_core import Embedding, EventBatch, simulate
from addcoal.seeding import make_rng


def batch_of(*events):
    """EventBatch of hand-written (L, R, u, D) rows, one per step."""
    L, R, u, D = (np.array(col) for col in zip(*events))
    return EventBatch(len(events) + 1, L, R, u, D)


def ev(L=1, R=1, u=0.3, D=0):
    return (L, R, u, D)


def fold(monkeypatch, batch, functionals, alpha_grid=(), beta_grid=()):
    """experiment._one_rep's (alpha, beta, totals) over a given batch: the
    one row of a block holding replication 0 alone."""
    row = EventBatch(batch.n, *(col[None] for col in (batch.L, batch.R, batch.u, batch.D)))
    monkeypatch.setattr(experiment, "simulate_rows", lambda n, bits, embedding: row)
    spec = ExperimentSpec(n=batch.n, functionals=tuple(functionals), alpha_grid=alpha_grid,
                          beta_grid=beta_grid)
    values, totals = experiment._one_rep(spec, 0, 1)
    return values[:, 0, :len(alpha_grid)], values[:, 0, len(alpha_grid):], totals[:, 0]


def test_instantaneous_examples():
    def cost(functional, event):
        return int(event_costs(functional, batch_of(event))[0])

    e = ev(L=5, R=2, u=0.2, D=3)
    assert cost(Functional.QFW, e) == 2
    assert cost(Functional.QF, e) == 2  # u < 1/2 -> smaller side
    assert cost(Functional.QF, ev(L=2, R=5, u=0.9)) == 5
    assert cost(Functional.PREDATOR, ev(L=3, R=4)) == 3
    assert cost(Functional.PREY, e) == 2
    assert cost(Functional.QFB, e) == 2
    assert cost(Functional.DISPLACEMENT, e) == 3


def test_per_event_relations():
    batch = simulate(300, make_rng(2), Embedding.DIRECT)
    qf = event_costs(Functional.QF, batch)
    qfw = event_costs(Functional.QFW, batch)
    prey = event_costs(Functional.PREY, batch)
    qfb = event_costs(Functional.QFB, batch)
    pred = event_costs(Functional.PREDATOR, batch)
    assert np.array_equal(prey, qfb)  # the complement-side costs coincide
    assert np.array_equal(prey + pred, batch.L + batch.R)
    assert np.all(qfw <= qf) and np.all(qf <= batch.L + batch.R - qfw)


def _unordered_mean(functional, x, y):
    """The mean given merged sizes {x, y}: x is L with probability x / (x + y)."""
    return (x * split_mean(functional, x, y) + y * split_mean(functional, y, x)) / (x + y)


def test_conditional_means():
    assert split_mean(Functional.QF, 2, 5) == Fraction(7, 2)
    assert split_mean(Functional.QFW, 5, 2) == 2
    assert split_mean(Functional.PREY, 1, 2) == split_mean(Functional.QFB, 1, 2) == 2
    assert split_mean(Functional.PREDATOR, 1, 2) == 1
    assert split_mean(Functional.DISPLACEMENT, 4, 1) == Fraction(3, 2)
    assert all(type(split_mean(f, 3, 4)) is Fraction for f in ALL_FUNCTIONALS)
    # averaged over which side is L, they give the means of the unordered sizes
    assert _unordered_mean(Functional.QF, 2, 5) == Fraction(7, 2)
    assert _unordered_mean(Functional.QFW, 2, 5) == 2
    assert _unordered_mean(Functional.PREY, 1, 2) == Fraction(4, 3)
    assert _unordered_mean(Functional.PREDATOR, 1, 2) == Fraction(5, 3)
    assert _unordered_mean(Functional.DISPLACEMENT, 1, 2) == Fraction(1, 3)


def test_split_means_average_the_realized_costs():
    # independent of SPLIT_MEANS: average event_costs over the fair coin u and
    # D uniform on {0, ..., l-1}, with the split (L, R) = (l, r) held fixed
    events = [ev(L=l, R=r, u=u, D=d) for l in range(1, 13) for r in range(1, 13)
              for u in (0.25, 0.75) for d in range(l)]
    batch = batch_of(*events)
    for functional in ALL_FUNCTIONALS:
        sums, counts = {}, {}
        for (l, r, _, _), cost in zip(events, event_costs(functional, batch).tolist()):
            sums[l, r] = sums.get((l, r), 0) + cost
            counts[l, r] = counts.get((l, r), 0) + 1
        for (l, r), total in sums.items():
            assert Fraction(total, counts[l, r]) == split_mean(functional, l, r), (functional, l, r)


def test_accumulate_prey_n3_example(monkeypatch):
    # run 1: L2 = 2 (prey cost R2 = 1); run 2: L2 = 1 (prey cost 2)
    batch = batch_of(ev(), ev(L=2, R=1))
    _, _, totals = fold(monkeypatch, batch, (Functional.PREY, Functional.PREDATOR))
    assert list(totals) == [2, 3]


def test_expected_totals_match_partition_dp():
    # DP expectations: predator 8/3 (sum of size-biased picks),
    # prey = qfb 7/3, qf 5/2, qfw 2, displacement 1/3
    dp = partition_dp(3)

    def total(functional):
        return dp.expected_step_cost(functional, 1) + dp.expected_step_cost(functional, 2)

    assert total(Functional.PREDATOR) == Fraction(8, 3)
    assert total(Functional.PREY) == Fraction(7, 3)
    assert total(Functional.QFB) == Fraction(7, 3)
    assert total(Functional.QF) == Fraction(5, 2)
    assert total(Functional.QFW) == 2
    assert total(Functional.DISPLACEMENT) == Fraction(1, 3)


def test_qf_enumeration_mean_equals_half_sum():
    # enumeration average of the realized QF cost per step equals the
    # enumeration average of (s+S)/2
    for n in (3, 4, 5, 6):
        dp = partition_dp(n)
        for k in range(1, n):
            joint = _sum_by(dp.steps[k - 1], lambda lr: (min(lr), max(lr)))  # (s, S)
            half_sum = sum(p * Fraction(x + y, 2) for (x, y), p in joint.items())
            assert dp.expected_step_cost(Functional.QF, k) == half_sum


def test_displacement_identity_by_enumeration():
    # E[D_k | L_k = l] = (l - 1)/2 under the parking law, n <= 6
    for n in (3, 4, 5, 6):
        dist = enumerate_parking(n)
        for k in range(1, n):
            joint = _sum_by(dist.project(("L", "D")).probs, lambda seq: seq[k - 1])
            for l, e_d in _conditional_means(joint).items():
                assert e_d == Fraction(l - 1, 2)


def test_totals_n2_all_functionals(monkeypatch):
    batch = simulate(2, make_rng(0), Embedding.DIRECT)
    _, _, totals = fold(monkeypatch, batch, ALL_FUNCTIONALS)
    for f, total in zip(ALL_FUNCTIONALS, totals):
        expected = 0 if f is Functional.DISPLACEMENT else 1
        assert total == expected


def test_one_rep_matches_incremental_fold(monkeypatch):
    # the cumsum-and-gather equals a running total taken event by event
    n = 200
    batch = simulate(n, make_rng(31), Embedding.DIRECT)
    alpha_grid = (0.0, 0.25, 0.5, 0.75)
    beta_grid = (0.0, 1.0, 3.0, n ** 0.5)
    alpha_steps = [alpha_step(n, a) for a in alpha_grid]
    beta_steps = [beta_step(n, b) for b in beta_grid]
    assert {0, n - 1} <= set(alpha_steps + beta_steps)
    alpha_vals, beta_vals, totals = fold(monkeypatch, batch, ALL_FUNCTIONALS, alpha_grid,
                                         beta_grid)
    for i, f in enumerate(ALL_FUNCTIONALS):
        running = [0]
        for cost in event_costs(f, batch):
            running.append(running[-1] + int(cost))
        assert totals[i] == running[-1]
        assert list(alpha_vals[i]) == [running[m] / n for m in alpha_steps]
        assert list(beta_vals[i]) == [running[m] / n**1.5 for m in beta_steps]


def test_curves_contracts():
    n = 400
    result = run_monte_carlo(ExperimentSpec(
        n=n, functionals=(Functional.QF,), seed=7, alpha_grid=(0.0, 0.5, 0.9),
        beta_grid=(0.0, 1.0, 2.0, 20.0),
    ))
    curve = result.alpha_values[Functional.QF][0]
    assert curve[0] == 0.0
    assert curve[-1] > 0
    wc = result.beta_values[Functional.QF][0]
    assert wc[0] == result.totals[Functional.QF][0] / n**1.5  # beta = 0 is the full sum
    assert wc[-1] == 0.0  # beta sqrt(n) = n -> step 0
    assert all(a >= b for a, b in zip(wc, wc[1:]))  # nonincreasing in beta


def test_checkpoint_step_mapping():
    assert alpha_step(100_000, 0.05) == 5_000  # exact despite 0.05 being inexact
    assert alpha_step(10, 0.55) == 6
    assert alpha_step(2, 0.95) == 1  # clamped to n - 1
    assert beta_step(100, 0.0) == 99  # clamped to the last merge
    assert beta_step(100, 2.0) == 80
    assert beta_step(100, 50.0) == 0
    with pytest.raises(ValueError):
        beta_step(100, -1.0)
    with pytest.raises(ValueError):
        alpha_step(100, 1.5)


def test_cumulative_nondecreasing():
    batch = simulate(500, make_rng(12), Embedding.DIRECT)
    for f in ALL_FUNCTIONALS:
        csum = np.cumsum(event_costs(f, batch))
        assert np.all(np.diff(csum) >= 0)
