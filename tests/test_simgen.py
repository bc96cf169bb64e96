"""Determinism of the scenario generator.

The benchmark caches generated logs keyed only by its generator version,
so a simgen change that alters a log must fail here first.  The digests
are of the seed-0 logs serialized as ``radgrip sim`` writes them, one
JSONL line per event; ``brake_turn`` is the preset with scaled tire grip.
"""

import hashlib

import pytest

from radgrip import simgen
from radgrip.core import default_config, serialize_event


@pytest.mark.parametrize("preset, sha256", [
    ("standstill",
     "839664aa5d119b0984145347ec3245ece669eecd59445025d86ed5bc3cebaa99"),
    ("brake_turn",
     "817f5cadb25528fff70c0f4f145466448f81acacc9f1ba2046093c9fdd35363c"),
], ids=["standstill", "brake_turn"])
def test_seed0_log_is_pinned(preset, sha256):
    cfg = default_config()
    spec = simgen.make_scenario(preset, cfg, seed=0)
    events, _ = simgen.run_scenario(spec.script, spec.p_truth, spec.noise,
                                    cfg)
    log = "".join(serialize_event(ev) + "\n" for ev in events)
    assert hashlib.sha256(log.encode()).hexdigest() == sha256
