import importlib.util
import sys
from pathlib import Path

from ttqaoa import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_exist_and_are_callable(monkeypatch):
    # The benchmark's tracer wraps program functions by attribute name; a refactor that drops or renames one
    # breaks traced runs only.  Load it without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []
    assert callable(cli._energy_objective)
