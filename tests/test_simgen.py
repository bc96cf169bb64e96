"""Determinism of the scenario generator.

The benchmark caches generated logs keyed only by its generator version,
so a simgen change that alters a log must fail here first.  Every preset
is pinned by the digest of its seed-0 log serialized as ``radgrip sim``
writes it, one JSONL line per event, and by the digest of its truth CSV as
``cli.write_truth_csv`` writes it: the per-axle slip angles and forces that
``metrics`` scores appear in no log.  ``brake_turn`` is the preset with
scaled tire grip.  The benchmark workloads that are not presets, the
fitlap prefix and stopgo, are pinned by the digests of the files
``perfbench.workloads`` writes for them.  Each preset is simulated once,
for both of its pins.
"""

import functools
import hashlib
import os
import tempfile

import pytest

from perfbench import workloads
from radgrip import cli, simgen, tire
from radgrip.core import TruthDivergenceError, default_config, serialize_event


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

SEED0_TRUTH_SHA256 = {
    "standstill":
        "9f9494604e88897710aeb5cc27744878311d5b68f5b853d24110d0f5ae9acc8f",
    "dlc65":
        "0584dc53194aa27dc762a8cfa26955fbeff488bc8920c001c3768512a13c3385",
    "dlc65_outliers":
        "0584dc53194aa27dc762a8cfa26955fbeff488bc8920c001c3768512a13c3385",
    "const_radius":
        "19bd86f3662e8dac94ef7d820a74aba77d5f842a30b313a33b327efc222d398e",
    "slalom":
        "b7cb965d610df3b51837ae70e35514e0814116bf98a46b4dff5a8b8ce3c5a754",
    "brake_turn":
        "301fe9586093e6c08cfc4d8ec56da4abce929adfcf074bf0cad18ff4858ee647",
    "fitlap":
        "f7c8705a1d2049aea03eecc7e4f873366987a99b8be183023264016eacf1fcbc",
}


# workload -> SHA-256 of (log.jsonl, truth.csv) at sim seed 0;
# dlc65_outliers is its preset, pinned above
WORKLOAD_SEED0_SHA256 = {
    "fitlap": (
        "3abb49a6abb77b622c37dd45b3af50b9d17febc465f95295d720c03f615e2296",
        "419f2103d4749c80d93bb03939c156d2ce457afda14b6193730a7da0a43dc370"),
    "stopgo": (
        "fdf66a629b583a169f55fa0d40c812e3051cc0d067ea266b9be5caead7b0a325",
        "2a77c90004be48ddcf3df49270ab18b456ad3a25909e681c923f6bb2c7396983"),
}


def test_every_preset_is_pinned():
    assert set(SEED0_SHA256) == set(simgen.PRESETS)
    assert set(SEED0_TRUTH_SHA256) == set(simgen.PRESETS)


@functools.cache
def _seed0_digests(preset: str) -> tuple:
    """SHA-256 of (log, truth CSV) of ``preset`` at seed 0, from one
    simulation: the log pin and the truth pin share it."""
    cfg = default_config()
    spec = simgen.make_scenario(preset, cfg, seed=0)
    events, truth = simgen.run_scenario(spec.script, spec.p_truth,
                                        spec.noise, cfg)
    log = "".join(serialize_event(ev) + "\n" for ev in events)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "truth.csv")
        cli.write_truth_csv(path, truth, cfg.thresholds.dt)
        with open(path, "rb") as fh:
            csv = fh.read()
    return (hashlib.sha256(log.encode()).hexdigest(),
            hashlib.sha256(csv).hexdigest())


@pytest.mark.parametrize("preset", SEED0_SHA256)
def test_seed0_log_is_pinned(preset):
    assert _seed0_digests(preset)[0] == SEED0_SHA256[preset]


@pytest.mark.parametrize("preset", SEED0_TRUTH_SHA256)
def test_seed0_truth_is_pinned(preset):
    assert _seed0_digests(preset)[1] == SEED0_TRUTH_SHA256[preset]


@pytest.mark.parametrize("workload", WORKLOAD_SEED0_SHA256)
def test_seed0_workload_is_pinned(workload, tmp_path):
    workloads.write_workload(workload, 0, str(tmp_path))
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("log.jsonl", "truth.csv")) \
        == WORKLOAD_SEED0_SHA256[workload]


def test_truth_divergence_is_raised_naming_the_time():
    # with rear grip at 0.3 of the front's, a 0.05 rad steer at 40 m/s
    # spins the car: |vy| passes vx (40.02 > 40.00 m/s) at t = 2.857 s.
    # Scaling D by 0.3 on both axles instead keeps the balance: even a
    # 0.35 rad steer then stays at |vy| <= 3.4 m/s, so a grip-change
    # scenario that scales both axles does not trip this guard.
    cfg = default_config()
    p = simgen.P_TRUTH_DEFAULT.copy()
    tire.axles(p)[1, 2] *= 0.3
    script = simgen.ManeuverScript("spin", 0.0, [
        simgen.Segment(2.0, 40.0, 0.0), simgen.Segment(3.0, None, 0.05)])
    with pytest.raises(TruthDivergenceError, match=r"t=2\.857s"):
        simgen.simulate_truth(script, p, cfg)
