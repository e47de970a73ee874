"""The benchmark's tracer patches program functions by name; keep those names."""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in spans.PATCHES if attr not in vars(owner)]
    assert not missing


def test_benchmark_only_imports_are_traced(monkeypatch):
    # an import kept only for the tracer is dead once no span patches it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    patched = {(owner.__name__, attr) for owner, attr, _, _ in spans.PATCHES}
    tag = "# noqa: F401  (perfbench/spans.py traces it)"
    kept = [(f"addcoal.{path.stem}", line.split("#")[0].split()[-1])
            for path in sorted((PERFBENCH.parent / "src" / "addcoal").glob("*.py"))
            for line in path.read_text().splitlines() if line.endswith(tag)]
    assert kept and [k for k in kept if k not in patched] == []


def test_traced_replays_take_n_first_and_return_n_minus_1_events(monkeypatch):
    # spans._n_minus_1 counts a traced replay's merges as its first argument
    # minus 1, which replay.*.ns_per_merge divides by
    import numpy as np

    from addcoal import _replay

    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    n = 7
    rng = np.random.default_rng(0)
    top = rng.permutation(n - 1) + 1
    par = _replay.tree_parents_from_prufer(n, rng.integers(0, n, n - 2))
    calls = {
        "direct_chain_replay": (n, rng.integers(0, n, n - 1), rng.random(n - 1)),
        "parking_replay": (n, rng.integers(0, n, n - 1)),
        "tree_replay": (n, par[top], top),
    }
    assert {attr for owner, attr, _, count in spans.PATCHES
            if owner is _replay and count is spans._n_minus_1} == set(calls)
    for name, args in calls.items():
        func = getattr(_replay, name)
        assert next(iter(inspect.signature(func).parameters)) == "n", name
        events = func(*args)
        assert len(events) >= 2 and all(len(col) == n - 1 for col in events), name


def test_traced_criteria_keep_their_keywords():
    # the benchmark's mc-small workload calls these with runs= and reps=
    from addcoal import acceptance

    inspect.signature(acceptance.criterion_pmk_chi_square).bind(runs=10, mutate=True)
    inspect.signature(acceptance.criterion_chain_chi_square).bind(reps=10, mutate=True)


def test_monte_carlo_result_keeps_what_the_benchmark_reads():
    # the benchmark hashes the three dicts and swaps one array to show that a digest can fail
    import dataclasses

    from addcoal.cost_engine import Functional
    from addcoal.experiment import ExperimentSpec, run_monte_carlo

    spec = ExperimentSpec(n=30, reps=4, seed=2, functionals=(Functional.QF, Functional.DISPLACEMENT),
                          alpha_grid=(0.1, 0.5, 0.9), beta_grid=(0.0, 2.0))
    res = run_monte_carlo(spec)
    assert dataclasses.is_dataclass(res)
    assert [f.name for f in dataclasses.fields(res)] == ["spec", "alpha_values", "beta_values",
                                                        "totals"]
    for name, shape in (("alpha_values", (4, 3)), ("beta_values", (4, 2)), ("totals", (4,))):
        values = getattr(res, name)
        assert list(values) == list(spec.functionals), name
        assert all(type(f) is Functional and v.shape == shape for f, v in values.items()), name
    qf = res.alpha_values[Functional.QF].copy()
    qf[0, 0] += 1.0
    bad = dataclasses.replace(res, alpha_values={**res.alpha_values, Functional.QF: qf})
    assert bad.alpha_values[Functional.QF] is qf and res.alpha_values[Functional.QF][0, 0] != qf[0, 0]
    assert bad.beta_values is res.beta_values and bad.totals is res.totals
    # the summaries and raw records read the replaced values
    assert bad.columns(Functional.QF)[0][2][0] == qf[0, 0]


def test_exact_layer_keeps_what_the_benchmark_reads():
    # the oracles-limits workload reads these and checks them against p_mk,
    # E[R_k | L_k = l] = (n - l)/(n - k) and TV = 0 between the three laws
    from fractions import Fraction

    from addcoal import exact_oracles

    dp = exact_oracles.partition_dp(6)
    assert dp.n == 6
    for k in range(1, dp.n):
        assert sum(dp.l_marginal(k).values()) == 1
        assert dp.conditional_r_given_l(k) == {l: Fraction(6 - l, 6 - k) for l in dp.l_marginal(k)}
    park = exact_oracles.enumerate_parking(4).project(("s", "S", "L"))
    assert park.tv_distance(exact_oracles.enumerate_spanning_trees(4)) == 0
    assert park.tv_distance(exact_oracles.dp_sequence_distribution(4)) == 0
    marginal = exact_oracles.parking_final_merge_marginal(5)
    assert all(marginal.get(k, Fraction(0)) == exact_oracles.p_mk(5, k) for k in range(1, 5))


def test_benchmark_keeps_the_result_fields_it_reads():
    # run.py records the backend; workloads.py digests and checks these fields
    import dataclasses

    from addcoal import _replay
    from addcoal.acceptance import CriterionResult
    from addcoal.experiment import KsResult, RegimeRow, SummaryStats
    from addcoal.smoluchowski import QuadratureResult

    assert _replay.HAVE_NUMBA is False
    read = {
        RegimeRow: {"n", "k_sparse", "k_full", "sparse", "full"},
        SummaryStats: {"count", "mean", "m2", "min", "max"},
        KsResult: {"statistic", "pvalue"},
        CriterionResult: {"passed", "measured"},
        QuadratureResult: {"value"},
    }
    for cls, names in read.items():
        assert names <= {f.name for f in dataclasses.fields(cls)}, cls.__name__
