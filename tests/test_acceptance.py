"""Acceptance gate: every criterion at its stated tolerance.

Monte Carlo criteria run at the recorded seeds in addcoal.acceptance, so
the whole suite is deterministic.  One status line is printed per
criterion (run pytest -s to watch them).  The QFW constant criterion is a
conjecture: its result is reported but never fails the suite.
"""

import dataclasses
import functools
import os
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from addcoal import acceptance


def _report(result):
    line = (
        f"[{result.status:9s}] {result.cid}: {result.measured} "
        f"(target: {result.target}; tolerance: {result.tolerance}; {result.seconds}s)"
    )
    print(line)
    return result


def test_criterion_01_oracle_equivalence():
    # full event-sequence laws of the three embeddings coincide, n = 2..6
    assert _report(acceptance.criterion_oracle_equivalence()).passed


def test_criterion_02_pmk_exact():
    # closed final-merge law: rational equality vs enumeration (m <= 8),
    # unit row sums (m <= 30)
    assert _report(acceptance.criterion_pmk_exact()).passed


def test_criterion_03_borel_limit():
    # p_{m, m-k} -> Borel(1) pmf, within 1e-3 at m = 1e4 for k = 1..10
    assert _report(acceptance.criterion_borel_limit()).passed


def test_criterion_04_conditional_r():
    # E[R_k | L_k = l] = (n - l)/(n - k) exactly, n <= 8
    assert _report(acceptance.criterion_conditional_r()).passed


def test_criterion_05_smoluchowski_identities():
    # moment sums, the coagulation ODE, and the prey quadrature cross-check
    assert _report(acceptance.criterion_smoluchowski_identities()).passed


def test_criterion_06_partial_cost_curves():
    # n = 1e5, 100 reps: normalized partial costs within 2% of (1 + phi)
    # for QF, QFW, Prey, Predator, Displacement on alpha <= 0.9
    assert _report(acceptance.criterion_partial_cost_curves()).passed


def test_criterion_07_qf_total_excursion():
    # mean n^-1.5 C^QF within 5% of sqrt(pi/8); KS vs total displacement
    # not rejected at level 0.001 (common excursion-area limit)
    assert _report(acceptance.criterion_qf_total_excursion()).passed


def test_criterion_08_qfb_constant():
    # (n log n)^-1 C^QFB extrapolated over n = 1e3..1e5 within 10% of 1/2
    assert _report(acceptance.criterion_qfb_constant()).passed


def test_criterion_09_qfw_conjecture():
    # conjectured 1/pi constant; informative, never fails the suite
    result = _report(acceptance.criterion_qfw_conjecture())
    assert result.informative


def test_criterion_10_phase_transition():
    # n^-1.5 C^QF at step floor(n - n^0.75): decreasing, < 0.05 at n = 1e5
    assert _report(acceptance.criterion_phase_transition()).passed


def test_criterion_11_regime_sweep():
    # largest-cluster fraction: -> 0 in the sparse window, -> 1 near-full,
    # gap > 0.5 at n = 1e5
    assert _report(acceptance.criterion_regime_sweep()).passed


def test_criterion_12_determinism():
    # cmd_simulate bytes identical across reruns and 1 vs 8 workers
    assert _report(acceptance.criterion_determinism()).passed


def test_determinism_runs_eight_workers_in_a_pool(pool_sizes):
    # 24 replications at n = 2000 are three blocks of 8 rows, so the 8-worker
    # run, and it alone, opens a pool, of three workers
    assert acceptance.criterion_determinism().passed
    assert pool_sizes == [3]


def test_supplementary_pmk_chi_square():
    # simulated final-merge predator size at m = 50 vs the exact law; the
    # strings pin every draw of the default sample and of a 3000-run one
    result = _report(acceptance.criterion_pmk_chi_square())
    assert result.passed
    assert result.measured == "chi2 59.3 df 48 p 0.1264"
    assert acceptance.criterion_pmk_chi_square(runs=3000).measured == "chi2 50.0 df 48 p 0.3937"


def test_supplementary_chain_chi_square():
    # 1e6 replications at n = 5 vs the exact sequence law, level 0.01
    assert _report(acceptance.criterion_chain_chi_square()).passed


def test_supplementary_mutation_mode_has_power():
    # a perturbed null must be rejected: the harness can fail
    result = acceptance.criterion_pmk_chi_square(mutate=True)
    print(f"[mutation ] pmk-chi-square under perturbed null -> {result.status} (expected FAIL)")
    assert not result.passed


def test_chain_counts_by_mixed_radix_match_tuple_keys():
    from addcoal._replay import direct_chain_rows
    from addcoal.exact_oracles import decode_counts, sequence_codes
    from addcoal.process_core import direct_picks
    from addcoal.seeding import make_rng

    n = 5
    elem, prey_u = direct_picks(n, make_rng(1), (3000,))
    L, R = direct_chain_rows(n, elem, prey_u)
    expected = Counter(tuple((min(l, r), max(l, r), l) for l, r in zip(l_row, r_row))
                       for l_row, r_row in zip(L.tolist(), R.tolist()))
    codes = Counter(sequence_codes(n, L, R).tolist())
    assert decode_counts(n, codes, 2) == expected


def test_chain_chi_square_rejects_sequences_outside_the_law(monkeypatch):
    # a kernel that swaps L and R replays sequences the law cannot produce:
    # an error, not a dropped row
    from addcoal import _replay

    def swapped(n, elem, prey_u):
        L, R = _replay.direct_chain_rows(n, elem, prey_u)
        return L[:, ::-1], R[:, ::-1]

    monkeypatch.setattr(acceptance, "direct_chain_rows", swapped)
    with pytest.raises(RuntimeError, match="outside the exact law's support"):
        acceptance.criterion_chain_chi_square(reps=3000)


def test_suite_passed_helper():
    ok = acceptance.CriterionResult("x", True, False, "", "", "", "", 0.0)
    info_fail = acceptance.CriterionResult("y", False, True, "", "", "", "", 0.0)
    hard_fail = acceptance.CriterionResult("z", False, False, "", "", "", "", 0.0)
    assert acceptance.suite_passed([ok, info_fail])
    assert not acceptance.suite_passed([ok, hard_fail])


def test_scaling_runs_recomputed_after_a_failed_run(monkeypatch):
    # a run that raises must leave no cache entry, so the next reader runs it again;
    # the runs before it stay cached
    calls = []

    def fail_on_second_call(spec):
        calls.append(spec.n)
        if len(calls) == 2:
            raise RuntimeError("second run fails")
        return spec.n

    monkeypatch.setattr(acceptance, "run_monte_carlo", fail_on_second_call)
    acceptance._sample.cache_clear()
    try:
        with pytest.raises(RuntimeError):
            [acceptance._sample(spec) for spec in acceptance.SCALING_SPECS]
        runs = [acceptance._sample(spec) for spec in acceptance.SCALING_SPECS]
    finally:
        acceptance._sample.cache_clear()  # no fake results for later tests
    first, second, third = acceptance.SCALING_NS
    assert calls == [first, second, second, third]
    assert runs == list(acceptance.SCALING_NS)


def test_criteria_keep_their_order():
    assert list(acceptance.CRITERIA) == [
        "oracle-equivalence", "pmk-exact", "borel-limit", "conditional-r",
        "smoluchowski-identities", "partial-cost-curves", "qf-total-excursion",
        "qfb-constant", "qfw-conjecture", "phase-transition", "regime-sweep",
        "determinism", "pmk-chi-square", "chain-vs-oracle-chi-square",
    ]


def test_run_criteria_rejects_a_bad_selection():
    with pytest.raises(ValueError, match="not-a-criterion"):
        acceptance.run_criteria(only=["not-a-criterion"])
    with pytest.raises(ValueError, match="pkm"):
        acceptance.run_criteria(mutate=["pkm"])
    # a mutation whose criterion the selection leaves out would test nothing
    with pytest.raises(ValueError, match="pmk-chi-square"):
        acceptance.run_criteria(only=["borel-limit"], mutate=["pmk"])


def test_run_criteria_charges_a_shared_sample_once(monkeypatch):
    # each scaling run is drawn once, timed on its own line, and not inside a criterion
    drawn = []

    @functools.cache
    def slow_sample(spec):
        drawn.append(spec)
        time.sleep(0.2)
        return SimpleNamespace(totals=defaultdict(lambda: np.ones(3)),
                               beta_values=defaultdict(lambda: np.ones((3, 1))))

    monkeypatch.setattr(acceptance, "_sample", slow_sample)
    results, samples = acceptance.run_criteria(only=["qfb-constant", "phase-transition"])
    assert drawn == list(acceptance.SCALING_SPECS)
    assert [r.cid for r in results] == ["qfb-constant", "phase-transition"]
    assert all(r.seconds < 0.2 for r in results)
    assert [s["sample"] for s in samples] == [
        "direct n=1000 reps=100 seed=108", "direct n=10000 reps=100 seed=109",
        "direct n=100000 reps=100 seed=110"]
    assert all(s["seconds"] >= 0.2 for s in samples)
    assert all(s["criteria"] == ["qfb-constant", "phase-transition"] for s in samples)
    assert all(s["workers"] == acceptance.SAMPLE_WORKERS for s in samples)
    # the detail names the draws, so a failure can be re-run alone
    assert results[0].detail == "; ".join(s["sample"] for s in samples)


def test_declared_samples_run_on_every_core(monkeypatch):
    ran = []
    monkeypatch.setattr(acceptance, "run_monte_carlo", ran.append)
    acceptance._sample.__wrapped__(acceptance.QF_TOTAL_SPEC)
    assert acceptance.SAMPLE_WORKERS == (os.cpu_count() or 1)
    assert ran == [dataclasses.replace(acceptance.QF_TOTAL_SPEC,
                                       workers=acceptance.SAMPLE_WORKERS)]
    assert acceptance.QF_TOTAL_SPEC.workers == 1  # the declared spec itself is unchanged


def test_monte_carlo_detail_names_the_call():
    result = acceptance.criterion_pmk_chi_square(runs=50)
    assert result.detail == "direct n=50 reps=50 seed=113, one substream per run"
    assert acceptance.criterion_borel_limit().detail == ""
