from fractions import Fraction

import numpy as np
import pytest

from addcoal import experiment
from addcoal.cost_engine import (
    ALL_FUNCTIONALS,
    Functional,
    alpha_step,
    beta_step,
    conditional_mean,
    event_costs,
)
from addcoal.exact_oracles import enumerate_parking, partition_dp
from addcoal.experiment import ExperimentSpec, run_monte_carlo
from addcoal.process_core import Embedding, EventBatch, simulate_direct
from addcoal.seeding import make_rng


def batch_of(*events):
    """EventBatch of hand-written (s, S, L, R, u, D) rows, one per step."""
    s, S, L, R, u, D = (np.array(col) for col in zip(*events))
    return EventBatch(len(events) + 1, s, S, L, R, u, D)


def ev(s=1, S=1, L=1, R=1, u=0.3, D=0):
    return (s, S, L, R, u, D)


def fold(monkeypatch, batch, functionals, alpha_steps=(), beta_steps=()):
    """experiment._one_rep's (alpha, beta, totals) over a given batch."""
    monkeypatch.setattr(experiment, "simulate", lambda n, rng, embedding: batch)
    return experiment._one_rep(
        (batch.n, Embedding.DIRECT, tuple(functionals), 0, 0, tuple(alpha_steps),
         tuple(beta_steps))
    )


def test_instantaneous_examples():
    def cost(functional, event):
        return int(event_costs(functional, batch_of(event))[0])

    e = ev(s=2, S=5, L=5, R=2, u=0.2, D=3)
    assert cost(Functional.QFW, e) == 2
    assert cost(Functional.QF, e) == 2  # u < 1/2 -> smaller side
    assert cost(Functional.QF, ev(s=2, S=5, u=0.9)) == 5
    assert cost(Functional.PREDATOR, ev(L=3, R=4, s=3, S=4)) == 3
    assert cost(Functional.PREY, e) == 2
    assert cost(Functional.QFB, e) == 2
    assert cost(Functional.DISPLACEMENT, e) == 3


def test_per_event_relations():
    batch = simulate_direct(300, make_rng(2))
    qf = event_costs(Functional.QF, batch)
    qfw = event_costs(Functional.QFW, batch)
    prey = event_costs(Functional.PREY, batch)
    qfb = event_costs(Functional.QFB, batch)
    pred = event_costs(Functional.PREDATOR, batch)
    assert np.array_equal(prey, qfb)  # the complement-side costs coincide
    assert np.array_equal(prey + pred, batch.s + batch.S)
    assert np.all(qfw <= qf) and np.all(qf <= batch.s + batch.S - qfw)


def test_conditional_means():
    assert conditional_mean(Functional.QF, 2, 5) == Fraction(7, 2)
    assert conditional_mean(Functional.QFW, 2, 5) == 2
    assert conditional_mean(Functional.PREY, 1, 2) == Fraction(4, 3)
    assert conditional_mean(Functional.PREDATOR, 1, 2) == Fraction(5, 3)
    assert conditional_mean(Functional.DISPLACEMENT, 1, 2) == Fraction(1, 3)


def test_accumulate_prey_n3_example(monkeypatch):
    # run 1: L2 = 2 (prey cost R2 = 1); run 2: L2 = 1 (prey cost 2)
    batch = batch_of(ev(), ev(s=1, S=2, L=2, R=1))
    _, _, totals = fold(monkeypatch, batch, (Functional.PREY, Functional.PREDATOR))
    assert list(totals) == [2, 3]


def test_expected_totals_match_partition_dp():
    # DP expectations: predator 8/3 (sum of size-biased picks),
    # prey = qfb 7/3, qf 5/2, qfw 2, displacement 1/3
    dp = partition_dp(3)
    assert dp.expected_cumulative_cost(Functional.PREDATOR) == Fraction(8, 3)
    assert dp.expected_cumulative_cost(Functional.PREY) == Fraction(7, 3)
    assert dp.expected_cumulative_cost(Functional.QFB) == Fraction(7, 3)
    assert dp.expected_cumulative_cost(Functional.QF) == Fraction(5, 2)
    assert dp.expected_cumulative_cost(Functional.QFW) == 2
    assert dp.expected_cumulative_cost(Functional.DISPLACEMENT) == Fraction(1, 3)


def test_qf_enumeration_mean_equals_half_sum():
    # enumeration average of the realized QF cost per step equals the
    # enumeration average of (s+S)/2
    for n in (3, 4, 5, 6):
        dp = partition_dp(n)
        for k in range(1, n):
            joint = dp.steps[k - 1].joint_sS
            half_sum = sum(p * Fraction(x + y, 2) for (x, y), p in joint.items())
            assert dp.expected_step_cost(Functional.QF, k) == half_sum


def test_displacement_identity_by_enumeration():
    # E[D_k | L_k = l] = (l - 1)/2 under the parking law, n <= 6
    for n in (3, 4, 5, 6):
        dist = enumerate_parking(n)
        for k in range(1, n):
            for l, e_d in dist.conditional_mean(k, "D", "L").items():
                assert e_d == Fraction(l - 1, 2)


def test_totals_n2_all_functionals(monkeypatch):
    batch = simulate_direct(2, make_rng(0))
    _, _, totals = fold(monkeypatch, batch, ALL_FUNCTIONALS)
    for f, total in zip(ALL_FUNCTIONALS, totals):
        expected = 0 if f is Functional.DISPLACEMENT else 1
        assert total == expected


def test_one_rep_matches_incremental_fold(monkeypatch):
    # the cumsum-and-gather equals a running total taken event by event
    n = 200
    batch = simulate_direct(n, make_rng(31))
    alpha_steps = [alpha_step(n, a) for a in (0.0, 0.25, 0.5, 0.75)]
    beta_steps = [beta_step(n, b) for b in (0.0, 1.0, 3.0, 20.0)]
    alpha_vals, beta_vals, totals = fold(monkeypatch, batch, ALL_FUNCTIONALS, alpha_steps,
                                         beta_steps)
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
    batch = simulate_direct(500, make_rng(12))
    for f in ALL_FUNCTIONALS:
        csum = np.cumsum(event_costs(f, batch))
        assert np.all(np.diff(csum) >= 0)
