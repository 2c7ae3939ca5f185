"""The benchmark's layer hooks must all resolve against the package.

benchmarks/tracing.py rebinds named functions in named modules and refuses to
run when one is missing; this checks the same pairs in seconds, so a refactor
that drops a hook target fails here before the benchmark's own smoke test.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_hook_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{namespace}.{func}"
        for _, func, namespaces in tracing.HOOKS
        for namespace in namespaces
        if not callable(getattr(importlib.import_module(namespace), func, None))
    ]
    assert missing == []
