"""CFG subsystem baselines: recovery and trace-replay throughput.

Two numbers future scaling PRs (policy caching, incremental recovery,
batched fleet replay) measure themselves against:

* **recovery**: instructions/sec through disassemble -> blocks ->
  call graph -> policy, on the richest Table IV binary (fire_sensor,
  EILID variant: interrupts + indirect calls + the full ROM);
* **replay**: edges/sec through the verifier-side shadow-stack walk
  over a real recorded trace.

Floors are deliberately conservative (CI noise margin); the reference
machine does an order of magnitude more.
"""

import time

from repro.api import FirmwareSpec, build_firmware
from repro.apps.registry import APPS
from repro.cfg import TraceReplayer, policy_for_program, recover_cfg
from repro.device import build_device

RECOVERY_FLOOR_INSNS_PER_SEC = 5_000
REPLAY_FLOOR_EDGES_PER_SEC = 50_000
FIRE_SENSOR = FirmwareSpec(kind="app", app="fire_sensor", variant="eilid")


def test_bench_cfg_recovery(benchmark):
    build = build_firmware(FIRE_SENSOR)

    def recover():
        cfg = recover_cfg(build.program)
        policy_for_program(build.program)
        return cfg

    rounds = 5
    started = time.perf_counter()
    cfg = benchmark.pedantic(recover, rounds=rounds, iterations=1)
    elapsed = time.perf_counter() - started
    insns_per_sec = rounds * len(cfg.insns) / elapsed
    benchmark.extra_info["instructions"] = len(cfg.insns)
    benchmark.extra_info["recovery_insns_per_sec"] = round(insns_per_sec)
    assert insns_per_sec >= RECOVERY_FLOOR_INSNS_PER_SEC


def test_bench_cfg_trace_replay(benchmark):
    app = APPS["fire_sensor"]
    device = build_device(build_firmware(FIRE_SENSOR).program,
                          security="eilid", peripherals=app.make_peripherals())
    assert device.run(max_cycles=app.max_cycles).done
    policy = policy_for_program(device.program)
    snapshot = device.trace_snapshot()
    replayer = TraceReplayer(policy)

    def replay():
        verdict = replayer.replay(snapshot)
        assert verdict.ok
        return verdict

    rounds = 5
    started = time.perf_counter()
    verdict = benchmark.pedantic(replay, rounds=rounds, iterations=1)
    elapsed = time.perf_counter() - started
    edges_per_sec = rounds * verdict.edges_checked / elapsed
    benchmark.extra_info["edges"] = verdict.edges_checked
    benchmark.extra_info["replay_edges_per_sec"] = round(edges_per_sec)
    assert edges_per_sec >= REPLAY_FLOOR_EDGES_PER_SEC
