"""Every function BENCHMARK.json's traced run spans still exists under its name.

The traced run (`bench/run.py --trace 1`) wraps each `<function>` named by a
`<function>.calls` per-layer metric; a rename in pathrel would break it.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def spanned_functions() -> list[str]:
    per_layer = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    return [m["name"][: -len(".calls")] for m in per_layer if m["name"].endswith(".calls")]


def test_benchmark_spans_some_functions():
    assert len(spanned_functions()) > 10


@pytest.mark.parametrize("name", spanned_functions())
def test_spanned_function_resolves(name):
    module_name, *attrs = name.split(".")
    owner = importlib.import_module(f"pathrel.{module_name}")
    assert len(attrs) in (1, 2), name
    if len(attrs) == 2:
        owner = getattr(owner, attrs[0])
        assert isinstance(owner, type), f"{name}: {attrs[0]} is not a class"
        assert attrs[1] in vars(owner), f"{name}: {attrs[0]} defines no {attrs[1]}"
    assert callable(getattr(owner, attrs[-1], None)), f"{name} is not a function"
