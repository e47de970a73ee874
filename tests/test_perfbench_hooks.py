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


def test_traced_criteria_keep_their_keywords():
    # the benchmark's mc-small workload calls these with runs= and reps=
    from addcoal import acceptance

    inspect.signature(acceptance.criterion_pmk_chi_square).bind(runs=10, mutate=True)
    inspect.signature(acceptance.criterion_chain_chi_square).bind(reps=10, mutate=True)
