"""The benchmark's traced names exist in the package.

``perfbench/child.py --traced`` patches every ``(module, attribute)`` of its
``TRACE_TARGETS``; a name deleted from ``src`` would break ``--trace 1``.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    missing = [f"{module.__name__}.{name}" for module, name, _ in child.TRACE_TARGETS
               if not callable(getattr(module, name, None))]
    assert child.TRACE_TARGETS and missing == []
