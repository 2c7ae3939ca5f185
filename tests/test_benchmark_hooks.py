"""The benchmark's hooks and workload configs must fit the package.

benchmarks/tracing.py rebinds named functions in named modules and refuses to
run when one is missing, and every benchmark run loads its workload's config
through the package's config checks; this checks both in seconds, so a
refactor that drops a hook target or a range rule that rejects a workload
config fails here before the benchmark's own smoke test.
"""

import importlib
from pathlib import Path

import pytest

from morbench.eval import config_from_dict

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


@pytest.mark.parametrize("scale", ["full", "tiny"])
def test_every_workload_config_is_accepted(monkeypatch, scale):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads").build_workloads(scale)
    for wl in workloads.values():
        # the benchmark fills in the vector paths and, in one traced run, the overrides
        paths = {"embeddings.word2vec_path": "word2vec.txt", "embeddings.glove_path": "glove.txt"}
        for raw in (wl.config, {**wl.config, **paths, **wl.oversub}):
            config = config_from_dict(raw)
            assert config.representations == tuple(wl.config["eval.representations"])
