"""Every name the benchmark's tracer wraps is still bound to a callable.

``perfbench/tracing.py`` wraps functions by (owner, attribute name) where
their callers look them up.  A refactor that unbinds one of those names
breaks the traced benchmark run; this check catches it in the unit suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_is_bound_and_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unbound = [
        name for owner, attr, name, _ in tracing.SITES
        if not callable(getattr(owner, attr, None))
    ]
    assert unbound == []
