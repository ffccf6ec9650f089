"""The benchmark tracer's call sites still resolve and are still called.

``perfbench/tracer.py`` wraps each traced layer at a fixed (module,
attribute) site and silently skips a site that no longer exists, so a
function that moves or is renamed would read 0 calls per op without any
error.  These tests fail instead: every site must resolve, and the filter
must call each ``dpknockoff.pipeline`` site on the methods that reach it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dpknockoff import ModelOracle, PrivacyBudget, pipeline
from dpknockoff.design import Dataset

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Sites the filter no longer calls through; they read 0 calls on purpose
# until the benchmark's own upkeep removes them.
STALE_SITES = {
    ("dpknockoff.pipeline", "normalize_columns"),
    ("dpknockoff.pipeline", "build_knockoffs"),
    ("dpknockoff.knockoffs", "complement_basis"),
}


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


SITES = [
    (layer, module, attr)
    for layer, sites in _tracer_layers().items()
    for module, attr in sites
    if (module, attr) not in STALE_SITES
]


@pytest.mark.parametrize("layer, module, attr", SITES, ids=[f"{m}.{a}" for _, m, a in SITES])
def test_traced_site_resolves_to_a_callable(layer, module, attr):
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"layer {layer}: {module}.{attr} no longer exists"


PIPELINE_SITES = sorted(attr for _, module, attr in SITES if module == "dpknockoff.pipeline")

# The pipeline sites each method's run of the filter calls, once each.
CALLED_BY_METHOD = {
    "none": {"gram_spectrum", "estimate_coefficients", "compute_statistics", "knockoff_threshold"},
    "1": {
        "gram_spectrum", "compute_bounds", "build_sensitivity_context", "release_pair",
        "estimate_coefficients", "compute_statistics", "knockoff_threshold",
    },
    "2": {
        "gram_spectrum", "compute_bounds", "build_sensitivity_context", "release_estimate",
        "compute_statistics", "knockoff_threshold",
    },
}


@pytest.mark.parametrize("method", sorted(CALLED_BY_METHOD))
def test_filter_calls_each_pipeline_site(monkeypatch, method):
    # a call moved out of dpknockoff.pipeline would read 0 calls per op in the tracer
    assert set(PIPELINE_SITES) == set().union(*CALLED_BY_METHOD.values())
    calls = []
    for attr in PIPELINE_SITES:
        real = getattr(pipeline, attr)
        monkeypatch.setattr(
            pipeline, attr,
            lambda *a, _real=real, _attr=attr, **k: calls.append(_attr) or _real(*a, **k),
        )
    rng = np.random.default_rng(8)
    x = rng.standard_normal((400, 6))
    ds = Dataset.from_arrays(x, x[:, 0] + rng.standard_normal(400))
    budget = PrivacyBudget(eps=0.5, delta_1=0.05, delta_2=0.5, eps_1=0.3, eps_2=0.3, delta=0.05)
    oracle = ModelOracle(beta_norm_bound=1.0, sigma2_bound=1.0)
    budget = None if method == "none" else budget
    pipeline.run_knockoff_filter(ds, q=0.2, method=method, budget=budget, oracle=oracle, seed=1)
    assert sorted(calls) == sorted(CALLED_BY_METHOD[method])
