"""The benchmark's tracer still binds to, and counts, what the package returns.

``perfbench/tracing.py`` wraps functions by (owner, attribute name) where
their callers look them up, and its counter hooks read the channel set
that ``build_mode_channels`` returns.  A refactor that unbinds one of
those names, or changes the channel set so that the hooks miscount,
breaks the traced benchmark run; these checks catch it in the unit suite.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from oem_mmwave import build_mode_channels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_site_is_bound_and_callable():
    tracing = load_tracing()
    unbound = [
        name for owner, attr, name, _ in tracing.SITES
        if not callable(getattr(owner, attr, None))
    ]
    assert unbound == []


def test_counter_hooks_read_the_channel_set(base_cfg):
    tracing = load_tracing()
    cfg = base_cfg.with_(n_tx=3, m_rx=5)
    channels = build_mode_channels(cfg, "convergent")
    counts = Counter()
    tracing._entry_counts(counts, (cfg, "convergent"), channels)
    tracing._svd_counts(counts, (None, channels), None)
    assert counts == {
        "channel.entries": cfg.m_rx * cfg.n_tx * cfg.u_elems,
        "transceiver.svds": cfg.u_elems,
    }
