"""The benchmark's tracer patches program functions by name; keep those names."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in spans.PATCHES if attr not in vars(owner)]
    assert not missing
