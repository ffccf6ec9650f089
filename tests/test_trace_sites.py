"""The benchmark tracer's call sites still resolve.

``perfbench/tracer.py`` wraps each traced layer at a fixed (module,
attribute) site and silently skips a site that no longer exists, so a
function that moves or is renamed would read 0 calls per op without any
error.  This test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
