"""The benchmark times the program through the functions that `bench/child.py`
names: a function renamed in `newscoherence` would drop its span silently."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return sorted({(module, function)
                   for module, function, _ in child.SETUP_TARGETS + child.TRACE_TARGETS})


@pytest.mark.parametrize("module, function", _targets())
def test_bench_target_exists(module, function):
    assert callable(getattr(importlib.import_module(f"newscoherence.{module}"), function, None))
