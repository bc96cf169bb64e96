"""Tests of the benchmark's own arithmetic: the virtual FIFO queue, the
max-rate bisection, span self times, the failed-row rule, workload
determinism and the agreement of BENCHMARK.json with the metrics the
benchmark prints."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import gate, spans, vqueue

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- virtual FIFO queue ------------------------------------------------------

def test_long_service_delays_events_behind_it():
    arrival = [0.0, 0.01, 0.02, 0.03]
    service = [0.005, 0.100, 0.002, 0.002]
    lat = vqueue.queued_latency(arrival, service, 1.0)
    # event 1 runs 0.01..0.11; events 2 and 3 queue behind it
    np.testing.assert_allclose(lat, [0.005, 0.100, 0.092, 0.084],
                               rtol=0, atol=1e-12)


def test_idle_server_latency_is_service_time():
    arrival = np.arange(5) * 0.1
    service = np.full(5, 0.01)
    np.testing.assert_allclose(vqueue.queued_latency(arrival, service, 1.0),
                               service, atol=1e-12)


def _stall_then_free_events(spacing=0.25, n=16, stall=2.0):
    arrival = np.arange(n) * spacing
    service = np.zeros(n)
    service[0] = stall
    return arrival, service


def test_halving_rate_halves_queueing_behind_stall():
    arrival, service = _stall_then_free_events()
    at_1 = vqueue.queued_latency(arrival, service, 1.0)
    at_half = vqueue.queued_latency(arrival, service, 0.5)
    # hand-computed: event k waits max(0, 2 - spacing_k / rate)
    np.testing.assert_allclose(
        at_1, np.maximum(0.0, 2.0 - 0.25 * np.arange(16)), atol=1e-12)
    np.testing.assert_allclose(
        at_half, np.maximum(0.0, 2.0 - 0.5 * np.arange(16)), atol=1e-12)
    # the stretch of log that queues behind the stall halves
    clear_1 = arrival[np.argmax((at_1 == 0) & (arrival > 0))]
    clear_half = arrival[np.argmax((at_half == 0) & (arrival > 0))]
    assert clear_1 == 2.0 and clear_half == 1.0
    # and with it the total queueing, in the limit of dense events
    arrival, service = _stall_then_free_events(spacing=2.0 ** -12,
                                               n=2 ** 14)
    q1 = vqueue.queued_latency(arrival, service, 1.0)[1:].sum()
    qh = vqueue.queued_latency(arrival, service, 0.5)[1:].sum()
    assert qh / q1 == pytest.approx(0.5, rel=1e-3)


def test_queued_latency_rejects_bad_input():
    with pytest.raises(ValueError):
        vqueue.queued_latency([0.0, 1.0], [0.1], 1.0)
    with pytest.raises(ValueError):
        vqueue.queued_latency([0.0], [0.1], 0.0)


def _passes():
    rng = np.random.default_rng(3)
    arrival = np.sort(rng.uniform(0.0, 10.0, 2000))
    service = rng.exponential(0.001, 2000)
    service[500] = 0.3
    solve = rng.uniform(size=2000) < 0.3
    return [(arrival, service, solve)]


def test_max_rate_is_monotone_in_limit():
    passes = _passes()
    limits = [0.004, 0.008, 0.016, 0.05, 0.2]
    rates = [vqueue.max_rate(passes, lim) for lim in limits]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    assert rates[0] > 0


def test_max_rate_brackets_the_limit():
    passes = _passes()
    r = vqueue.max_rate(passes, 0.008)
    assert vqueue.latency_percentile(passes, r, 99) <= 0.008
    assert vqueue.latency_percentile(passes, r * 1.01, 99) > 0.008


def test_max_rate_zero_when_service_alone_misses():
    arrival = np.arange(200) * 0.02
    service = np.full(200, 0.010)
    passes = [(arrival, service, np.ones(200, dtype=bool))]
    assert vqueue.max_rate(passes, 0.008) == 0.0
    assert vqueue.miss_fraction(passes, 1.0, 0.008) == 1.0


def test_passes_queue_independently_and_capacity():
    arrival = np.array([0.0, 1.0, 2.0])
    service = np.array([5.0, 0.0, 0.0])
    solve = np.array([True, True, True])
    lat = vqueue.pooled_latency([(arrival, service, solve)] * 2, 1.0)
    np.testing.assert_allclose(lat, [5, 4, 3, 5, 4, 3])
    # 4 s of log over 10 s of service
    assert vqueue.capacity_rate([(arrival, service, solve)] * 2) == 0.4


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_covered_child_interval():
    start = [0.0, 1.0, 2.0, 8.0, 2.5]
    end = [10.0, 3.0, 5.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 2]
    st = spans.self_times(start, end, parent)
    # children of 0 cover [1, 5] and [8, 10] (clipped): 6 of 10
    assert st[0] == pytest.approx(4.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(2.5)
    assert st[3] == pytest.approx(4.0)
    assert st[4] == pytest.approx(0.5)


def test_tracer_records_nesting_and_events():
    class Layer:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def parse(x):
            return x

        @staticmethod
        def root(xs):
            return [Layer.leaf(Layer.parse(x)) for x in xs]

    tr = spans.Tracer()
    targets = ((Layer, "root", "root"), (Layer, "parse", "parse", True),
               (Layer, "leaf", "leaf"))
    orig_leaf = Layer.__dict__["leaf"]
    with spans.patched(tr, targets):
        assert Layer.root([1, 2]) == [2, 3]
    assert Layer.__dict__["leaf"] is orig_leaf
    assert tr.name == ["root", "parse", "leaf", "parse", "leaf"]
    assert tr.parent == [-1, 0, 0, 0, 0]
    assert tr.event == [-1, 0, 0, 1, 1]
    st = tr.self_times()
    assert float(np.sum(st)) == pytest.approx(tr.end[0] - tr.start[0],
                                              rel=1e-9, abs=1e-12)


def test_patched_restores_after_exception():
    class Layer:
        @staticmethod
        def boom():
            raise RuntimeError("x")

    orig = Layer.__dict__["boom"]
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer(), ((Layer, "boom", "boom"),)):
            Layer.boom()
    assert Layer.__dict__["boom"] is orig


# -- failed-row rule ---------------------------------------------------------

def test_expected_times_cover_log_span():
    t = gate.expected_times(0.0, 1.0, 0.01)
    assert len(t) == 101 and t[-1] == pytest.approx(1.0)
    assert len(gate.expected_times(0.0, 0.0999, 0.01)) == 10


def _rows(n=10):
    t = list(0.01 * np.arange(n))
    return t, [True] * n


def test_check_rows_clean():
    exp = gate.expected_times(0.0, 0.09, 0.01)
    c = gate.check_rows(exp, *_rows())
    assert (c.attempted, c.failed) == (10, 0)


def test_check_rows_missing_nonfinite_and_abort():
    exp = gate.expected_times(0.0, 0.09, 0.01)
    t, ok = _rows()
    del t[4], ok[4]
    assert gate.check_rows(exp, t, ok).failed == 1
    t, ok = _rows()
    ok[2] = False
    c = gate.check_rows(exp, t, ok)
    assert (c.failed, c.nonfinite) == (1, 1)
    # a replay aborted after 6 rows fails the 4 rows it never emitted
    t, ok = _rows()
    c = gate.check_rows(exp, t[:6], ok[:6])
    assert (c.failed, c.missing) == (4, 4)


def test_check_rows_order_and_unexpected():
    exp = gate.expected_times(0.0, 0.09, 0.01)
    t, ok = _rows()
    t[3], t[4] = t[4], t[3]
    c = gate.check_rows(exp, t, ok)
    assert c.out_of_order == 1 and c.failed == 1
    t, ok = _rows()
    c = gate.check_rows(exp, t + [t[-1]], ok + [True])
    assert c.out_of_order == 1 and c.failed == 1
    c = gate.check_rows(exp, t + [0.105], ok + [True])
    assert (c.unexpected, c.failed, c.attempted) == (1, 1, 11)
    c = gate.check_rows(exp, t[:5] + [math.nan] + t[6:], ok)
    assert c.failed == 2 and c.missing == 1


def test_accuracy_ceilings():
    good = {k: v / 10 for k, v in gate.ACCURACY_CEILINGS.items()}
    assert gate.accuracy_failures(good) == []
    bad = dict(good, vx_rmse=1.0, fyr_rmse=math.nan)
    assert len(gate.accuracy_failures(bad)) == 2


# -- workloads and the benchmark contract ------------------------------------

def test_stopgo_log_is_deterministic_with_one_stop_per_cycle():
    from radgrip.core import serialize_event
    from perfbench import workloads
    ev_a, truth, cfg = workloads.generate("stopgo", 5)
    ev_b, _, _ = workloads.generate("stopgo", 5)
    assert [serialize_event(e) for e in ev_a[:3000:7]] == \
        [serialize_event(e) for e in ev_b[:3000:7]]
    stopped = truth.vx < 0.1
    starts = np.flatnonzero(stopped[1:] & ~stopped[:-1]) + 1
    # the initial stop plus one per cycle
    assert len(starts) + int(stopped[0]) == workloads.STOPGO_CYCLES + 1
    assert workloads.sim_seeds("stopgo", 3) == [6, 7]


def test_benchmark_json_matches_printed_metrics():
    from perfbench import measure
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == measure.E2E_UNITS
    assert layer == measure.PER_LAYER_UNITS


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fitlap",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
