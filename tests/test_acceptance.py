"""Acceptance gate: every criterion at its stated tolerance.

Monte Carlo criteria run at the recorded seeds in addcoal.acceptance, so
the whole suite is deterministic.  One status line is printed per
criterion (run pytest -s to watch them).  The QFW constant criterion is a
conjecture: its result is reported but never fails the suite.
"""

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


def test_supplementary_pmk_chi_square():
    # simulated final-merge predator size at m = 50 vs the exact law
    assert _report(acceptance.criterion_pmk_chi_square()).passed


def test_supplementary_chain_chi_square():
    # 1e6 replications at n = 5 vs the exact sequence law, level 0.01
    assert _report(acceptance.criterion_chain_chi_square()).passed


def test_supplementary_mutation_mode_has_power():
    # a perturbed null must be rejected: the harness can fail
    result = acceptance.criterion_pmk_chi_square(mutate=True)
    print(f"[mutation ] pmk-chi-square under perturbed null -> {result.status} (expected FAIL)")
    assert not result.passed


def test_suite_passed_helper():
    ok = acceptance.CriterionResult("x", True, False, "", "", "", "", 0.0)
    info_fail = acceptance.CriterionResult("y", False, True, "", "", "", "", 0.0)
    hard_fail = acceptance.CriterionResult("z", False, False, "", "", "", "", 0.0)
    assert acceptance.suite_passed([ok, info_fail])
    assert not acceptance.suite_passed([ok, hard_fail])


def test_scaling_runs_recomputed_after_a_failed_run(monkeypatch):
    # a run that raises must not leave a partial cache for later criteria
    monkeypatch.setattr(acceptance, "_scaling_cache", {})
    calls = []

    def fail_on_second_call(spec):
        calls.append(spec.n)
        if len(calls) == 2:
            raise RuntimeError("second run fails")
        return spec.n

    monkeypatch.setattr(acceptance, "run_monte_carlo", fail_on_second_call)
    with pytest.raises(RuntimeError):
        acceptance._scaling_runs()
    assert acceptance._scaling_cache == {}
    runs = acceptance._scaling_runs()
    assert calls[2:] == list(acceptance.SCALING_NS)
    assert runs == {n: n for n in acceptance.SCALING_NS}
