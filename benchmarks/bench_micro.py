"""Sec. VI micro numbers plus interpreter hot-path throughput gates.

Four families of benchmarks:

* the paper's per-protected-call store/check cycle attribution
  (:mod:`repro.eval.microbench`);
* interpreter throughput gates on the step hot path: absolute
  instructions/sec floors with CI-noise margin, plus machine-independent
  ratios measured on the same machine and program -- the cached
  interpreter is >= 2x the uncached one, and a monitored ``eilid`` step
  costs at most a third more than an unmonitored one;
* the snapshot gates: ``snapshot()`` stays a rounding error next to a
  batch, and ``memory_delta`` on a fleet replica runs >= 5x the
  per-page memoryview loop it replaced (~12x on the container below,
  where ``snapshot()`` then takes ~38 us and ``state_digest()`` ~80 us);
* exact "no extra work" gates beside the wall-clock overhead gates:
  they count the bytecodes a path runs (``sys.settrace`` with
  ``f_trace_opcodes``), which host noise cannot move, so a disabled
  alert engine adds none to an emission and enabled metrics add none
  per step.  Work done inside C functions is not counted.

Reference numbers for ``_HOT_LOOP`` (2-vCPU container, CPython 3.11.7,
medians of five gate runs while the ledger's host probe read ~0.9-1.15x
its reference speed): with the step loop in ``Device._run_loop`` and
slotted step records, device ``none`` ~475k instr/s and ``eilid``
~453k, and the cached interpreter is ~5.3x the uncached one.  The
monitor-tax gate takes the median of seven paired best-of-3 runs
(``_paired_median_ratio``).  With each decode-cache entry carrying its
trace edge kind, ``eilid``/``none`` reads ~0.77 that way (14 readings,
0.72-0.80); with the edge kind worked out on every edge it read ~0.78
(0.69-0.83), and ~0.83 as a best-of-5 of each side (0.75-0.91).  A
cheaper shared step raises the monitor's share of it: the paired
median read 0.79-0.85 with slotted records, against 0.86-0.90 with the
per-call ``Device.step`` loop before them.  Earlier, with the
per-call loop at ~1.9x probe speed: ``none`` ~711k, ``eilid`` ~617k,
~0.87 and ~5.5x; with the generic executors ~389k, ~347k, ~0.90 and
~3.5x; before the one-pass monitor and due-driven peripherals
``eilid``/``none`` was ~0.57.  The host's speed drifts by up to 2x
within minutes, so absolute numbers move with it; the ratios move less.
"""

import gc
import statistics
import sys
import time

from repro.device import build_device
from repro.eval.microbench import measure_micro, render_micro
from repro.obs.metrics import METRICS
from repro.snapshot import PAGE_SIZE, memory_delta
from repro.toolchain import link, parse_source

# Absolute floors below the reference machine so CI noise cannot trip
# them (reference: ~660k unmonitored / ~580k casu at ~1.9x probe speed).
RAW_FLOOR_IPS = 120_000
MONITORED_FLOOR_IPS = 40_000
# Cached vs. uncached interpreter on the same machine.
CACHE_SPEEDUP_FLOOR = 2.0
# The per-step tax of the monitored step: eilid instr/s over none
# instr/s on the same machine (~0.77 on the reference container).
MONITOR_TAX_RATIO_FLOOR = 0.75
# The observability gate: metrics instrumentation sits at the
# run_steps *batch* boundary (one span + two counter bumps per call,
# never inside the step loop), so enabling it may cost at most 2%
# against the disabled path's single attribute check.
INSTRUMENTATION_OVERHEAD_CEILING = 1.02
# The snapshot gate: Device.snapshot() on an idle device is a pure
# state walk (registers, page-level memory delta, peripheral dicts) --
# it must stay a rounding error next to actually running a batch, or
# checkpoint-heavy fault sweeps would pay for it per fault.
SNAPSHOT_COST_CEILING = 0.05
# The page compare under every snapshot: memory_delta against the
# per-page memoryview loop it replaced, on a fleet replica after one
# rollout and one attest (three pages differ from the image).
MEMORY_DELTA_SPEEDUP_FLOOR = 5.0
# Once-per-request daemon accounting as a fraction of one real
# fleet-attest request through the control plane's dispatch seam.
SERVE_ACCOUNTING_COST_CEILING = 0.02

# A loop mixing register, absolute and immediate operands, conditional
# and unconditional jumps -- the step-loop shapes the Table IV apps hit.
_HOT_LOOP = """
    .text
__start:
    mov #0x0a00, r1
    mov #0, r10
loop:
    add #1, r10
    mov r10, &0x0200
    add &0x0200, r11
    bit #1, r11
    jnz odd
    xor #0x5a5a, r12
odd:
    cmp #0, r10
    jnz loop
    jmp loop
    .vector 15, __start
"""


def _hot_program():
    return link([parse_source(_HOT_LOOP, "hot.s")], name="hot")


def _device_ips(program, security, steps, decode_cache=None):
    device = build_device(program, security=security,
                          decode_cache=decode_cache)
    started = time.perf_counter()
    result = device.run_steps(steps, stop_on_done=False)
    elapsed = time.perf_counter() - started
    assert result.steps == steps
    return steps / elapsed


def _paired_median_ratio(numerator, denominator, pairs=7, block=3):
    """Median over adjacent pairs of ``best numerator() / best
    denominator()``.

    The host's speed drifts between two long best-of-N series, which
    can move an A/B ratio by several percent; within one adjacent pair
    it barely moves.  Each pair interleaves *block* runs of each side
    and keeps each side's best, which drops the runs a host stall hit;
    which side runs first alternates from pair to pair, so a steady
    drift cancels in the median instead of favouring one side.  The
    collector is off while measuring.
    """
    ratios = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for pair in range(pairs):
            best_numerator = best_denominator = 0.0
            for _ in range(block):
                if pair % 2:
                    best_denominator = max(best_denominator, denominator())
                    best_numerator = max(best_numerator, numerator())
                else:
                    best_numerator = max(best_numerator, numerator())
                    best_denominator = max(best_denominator, denominator())
            ratios.append(best_numerator / best_denominator)
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(ratios)


def _bytecodes(call) -> int:
    """The bytecodes *call* runs, over every Python frame it enters.

    Exact and repeatable where a timing is not: a path that does no
    extra work in Python runs exactly as many.  The collector is off
    while counting, so no finalizer's bytecodes land in the count.
    """
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        else:
            frame.f_trace_opcodes = True
        return tracer

    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(None)
        if gc_was_enabled:
            gc.enable()
    return count


def test_bench_micro_paths(benchmark, capsys):
    result = benchmark.pedantic(measure_micro, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + render_micro(result))
    benchmark.extra_info["store_cycles"] = result.store_cycles
    benchmark.extra_info["check_cycles"] = result.check_cycles
    # Paper shape: check > store, ratio ~1.14x, per-op cost fixed.
    assert result.check_cycles > result.store_cycles
    assert 1.0 < result.check_to_store_ratio < 1.5


def test_bench_interpreter_throughput(benchmark):
    """Instructions/sec floors on the unmonitored and monitored paths."""
    program = _hot_program()

    def measure():
        return (_device_ips(program, "none", 120_000),
                _device_ips(program, "casu", 80_000))

    raw_ips, monitored_ips = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["raw_instr_per_sec"] = round(raw_ips)
    benchmark.extra_info["monitored_instr_per_sec"] = round(monitored_ips)
    assert raw_ips >= RAW_FLOOR_IPS
    assert monitored_ips >= MONITORED_FLOOR_IPS


def test_bench_decode_cache_speedup(benchmark):
    """The decoded-instruction cache must keep a >=2x edge over the
    uncached interpreter on the same machine and program (the PR's
    acceptance gate, immune to CI hardware variance)."""
    program = _hot_program()
    steps = 80_000

    def measure():
        uncached = _device_ips(program, "none", steps, decode_cache=False)
        cached = _device_ips(program, "none", steps, decode_cache=True)
        return cached, uncached

    cached, uncached = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = cached / uncached
    benchmark.extra_info["cached_instr_per_sec"] = round(cached)
    benchmark.extra_info["uncached_instr_per_sec"] = round(uncached)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= CACHE_SPEEDUP_FLOOR


def test_bench_monitor_tax(benchmark):
    """The monitored step's per-step tax, machine-independently: as the
    median of paired best-of-3 runs of the hot loop, ``eilid`` keeps at
    least 0.75x the instructions/sec of ``none`` (the monitor, commit-
    on-success rollback and due-driven peripherals stay off the common
    path; ~0.57 before they were)."""
    program = _hot_program()
    steps = 60_000

    def measure():
        return _paired_median_ratio(
            lambda: _device_ips(program, "eilid", steps),
            lambda: _device_ips(program, "none", steps))

    ratio = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["eilid_over_none"] = round(ratio, 3)
    assert ratio >= MONITOR_TAX_RATIO_FLOOR, (
        f"eilid runs the hot loop at {ratio:.3f}x the unmonitored rate "
        f"(floor {MONITOR_TAX_RATIO_FLOOR})")


def test_bench_instrumentation_overhead(benchmark):
    """Metrics on vs. off around the batched step loop, as the median
    of paired best-of-15 runs: the per-batch span + counters must stay
    under the 2% ceiling, proving the instrumentation never entered the
    per-step hot path.  Host noise on a shared 2-vCPU host comes in
    bursts that a 0.1-s run is often hit by and a 20-ms one often is
    not, so, as in the alert-engine gate, each side keeps its best of
    15 short runs (10,000 steps, ~20 ms on the reference container)
    per pair, over 20 pairs, so each side runs first in half of them.
    Best-of-3 runs of 40,000 steps failed 1 of 10 standalone runs on
    unchanged code (1.030).  This design failed 3 of 60 alternating
    standalone runs of two commits on a busy host (1.021-1.032, all on
    one commit), with per-pair ratios spread 0.58-1.21."""
    program = _hot_program()
    steps = 10_000
    was_enabled = METRICS.enabled

    def ips_with_metrics(enabled):
        METRICS.enable(enabled)
        return _device_ips(program, "none", steps)

    def measure():
        try:
            return _paired_median_ratio(lambda: ips_with_metrics(False),
                                        lambda: ips_with_metrics(True),
                                        pairs=20, block=15)
        finally:
            METRICS.enable(was_enabled)

    overhead = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["overhead"] = round(overhead, 4)
    assert overhead <= INSTRUMENTATION_OVERHEAD_CEILING, (
        f"metrics-enabled batched stepping is {overhead:.4f}x slower "
        f"than disabled (ceiling {INSTRUMENTATION_OVERHEAD_CEILING})")


def test_bench_instrumentation_adds_no_bytecodes_per_step(benchmark):
    """The exact form of the overhead gate above: enabling METRICS adds
    the same number of bytecodes to ``run_steps`` at two step counts,
    so the batch-boundary span and counters add none per step.  The
    registry resets before each enabled run, so the span ring and
    histograms start from the same state every time."""
    program = _hot_program()
    was_enabled = METRICS.enabled
    # Fill the program's shared decode table before counting.
    build_device(program, security="none").run_steps(
        2_000, stop_on_done=False)

    def run_bytecodes(enabled, steps):
        device = build_device(program, security="none")
        METRICS.enable(enabled)
        METRICS.reset()
        return _bytecodes(
            lambda: device.run_steps(steps, stop_on_done=False))

    def measure():
        try:
            return {steps: (run_bytecodes(False, steps),
                            run_bytecodes(True, steps))
                    for steps in (500, 1_000)}
        finally:
            METRICS.enable(was_enabled)

    counts = benchmark.pedantic(measure, rounds=1, iterations=1)
    (short_off, short_on), (long_off, long_on) = counts[500], counts[1_000]
    benchmark.extra_info["bytecodes_per_step"] = (long_off - short_off) / 500
    benchmark.extra_info["metrics_bytecodes_per_batch"] = long_on - long_off
    assert long_off > short_off
    assert long_on - long_off == short_on - short_off, (
        f"METRICS adds {short_on - short_off} bytecodes to a 500-step "
        f"batch and {long_on - long_off} to a 1,000-step one: the "
        f"instrumentation runs inside the step loop")


def test_bench_snapshot_overhead(benchmark):
    """``Device.snapshot()`` on an idle (not currently stepping)
    device must cost <= 5% of a ``run_steps`` batch, interleaved
    min-of-7.  The device has real dirty state to walk -- the hot
    loop has been writing DMEM all along -- so the page-delta path is
    measured doing actual work, not short-circuiting on a pristine
    memory image."""
    program = _hot_program()
    steps = 60_000
    device = build_device(program, security="none")

    def measure():
        batch_best = snapshot_best = float("inf")
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(7):
                started = time.perf_counter()
                result = device.run_steps(steps, stop_on_done=False)
                batch_best = min(batch_best,
                                 time.perf_counter() - started)
                assert result.steps == steps
                started = time.perf_counter()
                snapshot = device.snapshot()
                snapshot_best = min(snapshot_best,
                                    time.perf_counter() - started)
                assert snapshot.to_dict()["memory"]  # dirty pages walked
        finally:
            if gc_was_enabled:
                gc.enable()
        return snapshot_best, batch_best

    snapshot_s, batch_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    cost = snapshot_s / batch_s
    benchmark.extra_info["snapshot_ms"] = round(snapshot_s * 1e3, 3)
    benchmark.extra_info["run_steps_batch_ms"] = round(batch_s * 1e3, 3)
    benchmark.extra_info["snapshot_cost_of_batch"] = round(cost, 4)
    assert cost <= SNAPSHOT_COST_CEILING, (
        f"snapshot() costs {cost:.4f} of a {steps}-step batch "
        f"(ceiling {SNAPSHOT_COST_CEILING})")


def _per_page_delta(mem, baseline):
    """The reference page compare: all 256 pages, one memoryview slice
    at a time."""
    if mem == baseline:
        return []
    delta = []
    view, base = memoryview(mem), memoryview(baseline)
    for start in range(0, len(mem), PAGE_SIZE):
        page = view[start:start + PAGE_SIZE]
        if page != base[start:start + PAGE_SIZE]:
            delta.append([start, bytes(page).hex()])
    return delta


def _calls_per_s(call, calls=100):
    started = time.perf_counter()
    for _ in range(calls):
        call()
    return calls / (time.perf_counter() - started)


def _median_us(call, calls=300):
    times = []
    for _ in range(calls):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e6


def test_bench_memory_delta(benchmark):
    """``memory_delta`` on a fleet replica after one rollout and one
    attest must run >= 5x the per-page memoryview reference, as the
    median of paired best-of-3 runs; ``snapshot()`` and
    ``state_digest()`` medians go in ``extra_info``."""
    from repro.fleet.simulation import FleetSimulation

    fleet = FleetSimulation(size=1, security="casu")
    fleet.rollout(1)
    fleet.attest_all()
    device = next(iter(fleet.devices.values()))
    device.unpark()  # the fleet parks its replicas; compare the live array
    mem, baseline = device.bus.mem, device._baseline
    delta = memory_delta(mem, baseline)
    assert delta == _per_page_delta(mem, baseline) and len(delta) == 3

    def measure():
        speedup = _paired_median_ratio(
            lambda: _calls_per_s(lambda: memory_delta(mem, baseline)),
            lambda: _calls_per_s(lambda: _per_page_delta(mem, baseline)))
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return (speedup, _median_us(device.snapshot),
                    _median_us(device.state_digest))
        finally:
            if gc_was_enabled:
                gc.enable()

    speedup, snapshot_us, digest_us = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    benchmark.extra_info["memory_delta_speedup"] = round(speedup, 2)
    benchmark.extra_info["snapshot_us"] = round(snapshot_us, 1)
    benchmark.extra_info["state_digest_us"] = round(digest_us, 1)
    assert speedup >= MEMORY_DELTA_SPEEDUP_FLOOR, (
        f"memory_delta runs {speedup:.2f}x the per-page reference "
        f"(floor {MEMORY_DELTA_SPEEDUP_FLOOR})")


def test_bench_alert_engine_disabled_path_overhead(benchmark):
    """Event emission with a *disabled* alert engine attached vs. no
    engine at all, as the median of paired best-of-3 runs.  A disabled
    engine never subscribes, so the only possible cost is the bus's
    empty-tuple check -- the ceiling pins alerting-off at <= 2% of the
    bare emission path (the fleet layers emit per offer/quarantine, so
    this sits on the campaign hot path).  While the engine stays
    unsubscribed both sides run the same code, so a ratio off 1.0 is
    host noise, and on a shared 2-vCPU host that noise comes in
    bursts: a 0.1-s run is often hit, a 20-ms one often is not.  So
    each side keeps its best of 15 short runs (10,000 emissions, ~20 ms
    on the reference container) per pair, over 20 pairs, so each side
    runs first in half of them."""
    from repro.obs import AlertEngine, MemoryEventLog

    emissions = 10_000

    def _emissions_per_sec(with_disabled_engine):
        log = MemoryEventLog()
        if with_disabled_engine:
            AlertEngine(enabled=False).attach(log)
        started = time.perf_counter()
        for n in range(emissions):
            log.emit("offer", device="d0", campaign="c1",
                     status="applied", version=1)
        elapsed = time.perf_counter() - started
        log.close()
        return emissions / elapsed

    def measure():
        return _paired_median_ratio(lambda: _emissions_per_sec(False),
                                    lambda: _emissions_per_sec(True),
                                    pairs=20, block=15)

    overhead = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["overhead"] = round(overhead, 4)
    assert overhead <= INSTRUMENTATION_OVERHEAD_CEILING, (
        f"emission with a disabled alert engine is {overhead:.4f}x slower "
        f"than bare emission (ceiling {INSTRUMENTATION_OVERHEAD_CEILING})")


def test_bench_alert_engine_disabled_path_bytecodes(benchmark):
    """The exact form of the gate above: with a disabled alert engine
    attached, an emission runs exactly as many bytecodes as a bare
    one, because the engine never subscribes."""
    from repro.obs import AlertEngine, MemoryEventLog

    emissions = 100

    def emit_bytecodes(with_disabled_engine):
        log = MemoryEventLog()
        if with_disabled_engine:
            AlertEngine(enabled=False).attach(log)

        def emit_all():
            for _ in range(emissions):
                log.emit("offer", device="d0", campaign="c1",
                         status="applied", version=1)

        emit_all()  # first emissions may take one-time paths
        count = _bytecodes(emit_all)
        log.close()
        return count

    def measure():
        return emit_bytecodes(False), emit_bytecodes(True)

    bare, disabled = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["bytecodes_per_emit"] = bare / emissions
    assert disabled == bare, (
        f"{emissions} emissions run {disabled} bytecodes with a disabled "
        f"alert engine attached and {bare} without")


def test_bench_serve_request_accounting_overhead(benchmark):
    """Daemon request accounting (the ``serve.request`` span plus
    per-endpoint counters and a latency histogram) is recorded once
    per *request*, never per device.  Gate that claim the way the
    snapshot gate does: time one request's worth of accounting in a
    tight loop (stable), time a real fleet-attest dispatch through the
    socket-free ``dispatch()`` seam (best-of-5), and pin the
    accounting at <= 2% of the request -- per-device accounting would
    blow through the ceiling by the fleet-size factor."""
    import asyncio

    from repro.fleet.simulation import FleetSimulation
    from repro.serve import VerifierDaemon

    fleet = FleetSimulation(size=120, seed=3)
    daemon = VerifierDaemon(fleet)
    reps = 20_000
    requests = 3

    def _accounting_cost_s():
        """One request's accounting, amortised over a tight loop."""
        started = time.perf_counter()
        for _ in range(reps):
            req_started = time.perf_counter()
            with METRICS.span("serve.request"):
                pass
            elapsed_ms = (time.perf_counter() - req_started) * 1000.0
            METRICS.inc("serve.requests")
            METRICS.inc("serve.requests.attest")
            METRICS.observe("serve.request.attest.ms", elapsed_ms)
        return (time.perf_counter() - started) / reps

    def _request_cost_s():
        async def _drive():
            started = time.perf_counter()
            for _ in range(requests):
                response = await daemon.dispatch("POST", "/attest", {}, {})
                assert response.status == 200 and response.doc["ok"]
            return (time.perf_counter() - started) / requests

        return asyncio.run(_drive())

    def measure():
        accounting_best = request_best = float("inf")
        was_enabled = METRICS.enabled
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            METRICS.enable(True)
            for _ in range(5):
                accounting_best = min(accounting_best, _accounting_cost_s())
                request_best = min(request_best, _request_cost_s())
        finally:
            METRICS.enable(was_enabled)
            if gc_was_enabled:
                gc.enable()
            daemon.pump.close()
        return accounting_best, request_best

    accounting_s, request_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    cost = accounting_s / request_s
    benchmark.extra_info["accounting_us"] = round(accounting_s * 1e6, 3)
    benchmark.extra_info["attest_request_ms"] = round(request_s * 1e3, 3)
    benchmark.extra_info["accounting_cost_of_request"] = round(cost, 6)
    assert cost <= SERVE_ACCOUNTING_COST_CEILING, (
        f"request accounting costs {cost:.4f} of a fleet-attest request "
        f"(ceiling {SERVE_ACCOUNTING_COST_CEILING})")
