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

from oem_mmwave import build_mode_channels, channel

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


def test_channel_build_reaches_the_layout_and_bessel_sites(base_cfg):
    # a site can stay bound yet never be called; the traced channel build
    # must still pass through the layout and every mode's Bessel factor
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root("bench.op", 1):
        channel.build_mode_channels(base_cfg, "convergent")
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["geometry.build_layout"] == 1
    assert spans["channel.bessel_j"] == base_cfg.u_elems
