"""Traced-run hygiene for the layer-ledger benchmark.

Run from the repository root::

    python3 -m pytest ledger/test_ledger.py -q
"""

import asyncio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Target, Tracer, covered_ns, tail_percentile  # noqa: E402


def test_wrappers_are_removed_after_a_traced_unit():
    from devices import app_image, run_app
    from repro.apps.registry import APPS

    tracer = Tracer()
    targets = layers.targets(tracer)
    originals = [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]
    app = APPS["light_sensor"]
    program = app_image("light_sensor", "eilid")
    tracer.install(targets)
    try:
        assert any(t.owner.__dict__[t.attr] is not original
                   for t, (_, _, original) in zip(targets, originals))
        traced = run_app(program, app)
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner}.{attr}"
    # The same run untraced gives the same exact counts, and the
    # wrappers saw every step and cycle of it.
    untraced = run_app(program, app)
    for timing in ("seconds", "started"):
        untraced.pop(timing)
        traced.pop(timing)
    assert untraced == traced
    stats, counters = tracer.stats(), tracer.counters()
    assert counters["sim.cycles"] == untraced["cycles"]
    assert counters["sim.instructions"] == untraced["instructions"]
    assert stats["monitor.observe"]["count"] == untraced["steps"]
    assert counters["trace.edges"] == untraced["trace_edges"]


class FakeClock:
    """Every read costs 1 ns; ``work`` advances time by hand."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now

    def work(self, ns):
        self.now += ns


def test_self_time_of_synthetic_nested_spans():
    clock = FakeClock()

    class Layer:
        def outer(self):
            clock.work(100)
            self.inner()
            clock.work(50)
            self.inner()

        def inner(self):
            clock.work(30)

    tracer = Tracer(clock)
    tracer.install([Target(Layer, "outer", "outer", keep=True),
                    Target(Layer, "inner", "inner", keep=True)])
    try:
        Layer().outer()
    finally:
        tracer.uninstall()
    # A wrapped call reads the clock at entry, start, end and exit, so
    # inner spans 31 ns (start..end) and costs its caller 33 (entry..exit).
    # Outer spans 100 + 33 + 50 + 33 + 1 (its own end read) = 217 + 2
    # (each inner's first read lands on outer's time) = 219 ns; its self
    # time is everything but the two whole inner calls.
    stats = tracer.stats()
    assert stats["inner"] == {"count": 2, "ms": 62e-6, "self_ms": 62e-6}
    assert stats["outer"]["ms"] == 219e-6
    assert stats["outer"]["self_ms"] == (219 - 66) * 1e-6
    (outer,) = tracer.named("outer")
    inners = tracer.named("inner")
    assert outer[1] is None and [span[1] for span in inners] == [outer[0]] * 2
    assert all(outer[3] < span[3] < span[4] < outer[4] for span in inners)
    assert Layer.__dict__["outer"].__name__ == "outer"
    assert not hasattr(Layer.__dict__["outer"], "__wrapped__")


def test_covered_ns_unions_overlapping_spans():
    # Overlapping children from two pool threads count once.
    assert covered_ns([(0, 5), (3, 8), (10, 12)]) == 10
    assert covered_ns([(0, 5), (3, 8)], window=(4, 6)) == 2
    assert covered_ns([]) == 0


def test_async_and_static_targets_are_wrapped_and_restored():
    class Api:
        @staticmethod
        def make(x):
            return x + 1

        async def serve(self, x):
            await asyncio.sleep(0)
            return x * 2

    static, coroutine = Api.__dict__["make"], Api.__dict__["serve"]
    tracer = Tracer()
    tracer.install([Target(Api, "make", "make"),
                    Target(Api, "serve", "serve", keep=True)])
    try:
        assert Api.make(1) == 2
        assert asyncio.run(Api().serve(4)) == 8
    finally:
        tracer.uninstall()
    assert Api.__dict__["make"] is static
    assert Api.__dict__["serve"] is coroutine
    assert tracer.stats()["make"]["count"] == 1
    assert len(tracer.named("serve")) == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1, 1001))) == (99, 990)
    assert tail_percentile(list(range(1, 101))) == (90, 90)
    assert tail_percentile(list(range(1, 21))) == (50, 10)
    pct, value = tail_percentile(list(range(1, 16)))
    assert pct == 33 and 15 - value >= 10
    # Too few samples for any tail: the median stands in.
    assert tail_percentile([5, 1, 3]) == (50, 3)
    for n in (11, 37, 250, 999, 5000):
        pct, value = tail_percentile(list(range(n)))
        beyond = sum(1 for x in range(n) if x > value)
        assert beyond >= 10
        if pct < 99:
            # The next percentile up would leave fewer than ten.
            import math
            assert n - math.ceil((pct + 1) * n / 100) < 10


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == \
        [name for name, _, _ in layers.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(unit, better) for _, unit, better in layers.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
