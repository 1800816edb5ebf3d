"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import itertools
import sys
import types

import pytest

from run import tail
from spans import Patcher, Tracer
from workloads import HOT_OVERHEADS, request_stream


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("outer")           # t=0
    clock.now = 1.0
    tracer.enter("child")           # 1..3
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.enter("child")           # 4..4.5, with a grandchild 4.1..4.3
    clock.now = 4.1
    tracer.enter("grandchild")
    clock.now = 4.3
    tracer.exit()
    clock.now = 4.5
    tracer.exit()
    clock.now = 10.0
    tracer.exit()

    assert tracer.self_s["outer"] == pytest.approx(10.0 - 2.0 - 0.5)
    assert tracer.self_s["child"] == pytest.approx(2.0 + 0.5 - 0.2)
    assert tracer.self_s["grandchild"] == pytest.approx(0.2)
    assert tracer.calls == {"outer": 1, "child": 2, "grandchild": 1}
    # Self times partition the root span.
    assert sum(tracer.self_s.values()) == pytest.approx(10.0)
    assert tracer.covered_s(0.0, 20.0) == pytest.approx(10.0)


def test_wrap_records_span_and_runs_after_hook():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []

    def work(x):
        clock.now += 2.0
        return x * 2

    traced = tracer.wrap(
        work, lambda args, kwargs: f"work.{args[0]}",
        after=lambda t, result, args, kwargs, parent: seen.append((result, parent)),
    )
    assert traced(3) == 6
    assert tracer.self_s["work.3"] == pytest.approx(2.0)
    assert seen == [(6, None)]


def test_patcher_restores_functions_and_methods():
    tracer = Tracer()

    def helper():
        return "original"

    class Thing:
        def method(self):
            return "method"

    defining = types.ModuleType("fakepkg.defs")
    defining.helper = helper
    importing = types.ModuleType("fakepkg.user")
    importing.helper = helper          # ``from .defs import helper``
    outsider = types.ModuleType("otherpkg")
    outsider.helper = helper
    modules = {"fakepkg.defs": defining, "fakepkg.user": importing, "otherpkg": outsider}
    original_method = Thing.__dict__["method"]
    sys.modules.update(modules)
    try:
        with Patcher() as patcher:
            wrapped = tracer.wrap(helper, "helper")
            assert patcher.replace_function(helper, wrapped, "fakepkg") == 2
            patcher.set(Thing, "method", tracer.wrap(original_method, "method"))
            assert defining.helper is wrapped and importing.helper is wrapped
            assert outsider.helper is helper  # outside the prefix
            assert importing.helper() == "original" and Thing().method() == "method"
        assert defining.helper is helper and importing.helper is helper
        assert Thing.__dict__["method"] is original_method
        assert tracer.calls == {"helper": 1, "method": 1}

        with pytest.raises(RuntimeError):
            with Patcher() as patcher:
                patcher.replace_function(helper, tracer.wrap(helper, "helper"), "fakepkg")
                raise RuntimeError("run failed")
        assert defining.helper is helper and importing.helper is helper
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_request_stream_is_seeded():
    def first(seed, client, n=200):
        return list(itertools.islice(request_stream(seed, client), n))

    assert first(7, 0) == first(7, 0)
    assert first(7, 0) != first(8, 0)
    assert first(7, 0) != first(7, 1)  # clients send different streams
    requests = first(7, 0)
    assert all(1 <= len(r.overheads) <= 3 for r in requests)
    assert {r.strategy for r in requests} == {"default", "eri", "hw", "hybrid", "gradient"}
    # Every block of 15 holds the same cost mix: 18 of its 30 points hot.
    for start in range(0, 195, 15):
        points = [o for r in requests[start:start + 15] for o in r.overheads]
        assert len(points) == 30 and sum(o in HOT_OVERHEADS for o in points) == 18
    # Strategies take turns at the two wide one-point requests of a block.
    wide_singles = [
        r.strategy for r in requests[:75]
        if len(r.overheads) == 1 and r.overheads[0] not in HOT_OVERHEADS
    ]
    assert sorted(wide_singles) == sorted(2 * ["default", "eri", "hw", "hybrid", "gradient"])


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(i) for i in range(1, 101)]
    value, percentile, samples = tail(latencies)
    assert value == 90.0 and percentile == 90.0 and samples == 100
    assert sum(v > value for v in latencies) == 10
    # A failed request misses every latency.
    value, _p, _n = tail([None] * 11 + [1.0] * 9)
    assert value == float("inf")
