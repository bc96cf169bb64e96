"""Determinism of the scenario generator.

The benchmark caches generated logs keyed only by its generator version,
so a simgen change that alters a log must fail here first.  Every preset
is pinned by the digest of its seed-0 log serialized as ``radgrip sim``
writes it, one JSONL line per event; ``brake_turn`` is the preset with
scaled tire grip.
"""

import hashlib

import pytest

from radgrip import simgen
from radgrip.core import default_config, serialize_event


SEED0_SHA256 = {
    "standstill":
        "839664aa5d119b0984145347ec3245ece669eecd59445025d86ed5bc3cebaa99",
    "dlc65":
        "156c23ad27ebbcb1193e5f385861000f41d5306f36b7ca4abbc948bf9217ac00",
    "dlc65_outliers":
        "0d6f1d54149353f51df090c39bc1f3b620c907ef6ff5c72116bfe199d0868808",
    "const_radius":
        "bd7049a0460f438b70fb46770e3da7cf3e6febc9745a14f74a341bb94cac4d9e",
    "slalom":
        "e03791e556237d435f607af46a51f68eaf155cfb0341f5230ea68530c613619e",
    "brake_turn":
        "817f5cadb25528fff70c0f4f145466448f81acacc9f1ba2046093c9fdd35363c",
    "fitlap":
        "4a1a3cf883c4f4c49813fe1eda71c8e05d04bc1425cb47dd15c1ffa1290a2503",
}


def test_every_preset_is_pinned():
    assert set(SEED0_SHA256) == set(simgen.PRESETS)


@pytest.mark.parametrize("preset", SEED0_SHA256)
def test_seed0_log_is_pinned(preset):
    cfg = default_config()
    spec = simgen.make_scenario(preset, cfg, seed=0)
    events, _ = simgen.run_scenario(spec.script, spec.p_truth, spec.noise,
                                    cfg)
    log = "".join(serialize_event(ev) + "\n" for ev in events)
    assert hashlib.sha256(log.encode()).hexdigest() == SEED0_SHA256[preset]
