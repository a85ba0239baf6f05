"""The layers the traced run wraps, and the per-layer metrics it reports.

Every traced run installs the whole target list, whatever the
workload: a layer the workload does not reach reports zero calls,
which is itself the "should do little here" prediction made visible.
"""

import threading
from typing import Dict, List, Sequence

from tracer import Target, Tracer, covered_ns, percentile, tail_percentile

# (name, unit, better) -- BENCHMARK.json's per_layer list mirrors this.
PER_LAYER = (
    # Device ladder: instructions per host second with one more layer
    # switched on per rung, and the marginal cost of each layer.
    ("ladder.cpu.ips", "1/s", "higher"),
    ("ladder.none.ips", "1/s", "higher"),
    ("ladder.trace.ips", "1/s", "higher"),
    ("ladder.casu.ips", "1/s", "higher"),
    ("ladder.eilid.ips", "1/s", "higher"),
    ("ladder.ordered", "bool", "higher"),
    ("peripherals.us_per_step", "us", "lower"),
    ("trace.us_per_step", "us", "lower"),
    ("casu.us_per_step", "us", "lower"),
    ("eilid.us_per_step", "us", "lower"),
    # Per-step device layers in the traced unit.
    ("cpu.step.count", "count", "lower"),
    ("cpu.step.self_ms", "ms", "lower"),
    ("sim.instructions", "count", "lower"),
    ("sim.cycles", "cycles", "lower"),
    ("monitor.observe.count", "count", "lower"),
    ("monitor.observe.ms", "ms", "lower"),
    ("monitor.observe.violations", "count", "lower"),
    ("device.step.self_ms", "ms", "lower"),
    ("peripherals.tick.count", "count", "lower"),
    ("peripherals.tick.ms", "ms", "lower"),
    ("trace.observe.ms", "ms", "lower"),
    ("trace.edges", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("eilid.extra_instr_frac", "ratio", "lower"),
    # Snapshots and fault grading.
    ("snapshot.restore.count", "count", "lower"),
    ("snapshot.restore.ms", "ms", "lower"),
    ("faults.run.ms.p50", "ms", "lower"),
    ("faults.run.ms.p99", "ms", "lower"),
    ("faults.sim_cycles", "cycles", "lower"),
    ("faults.arm_cycles", "cycles", "lower"),
    ("faults.arm_frac", "ratio", "lower"),
    ("faults.budget_hit", "count", "lower"),
    ("faults.none.per_s", "1/s", "higher"),
    ("faults.casu.per_s", "1/s", "higher"),
    ("faults.eilid.per_s", "1/s", "higher"),
    ("faults.golden.ms", "ms", "lower"),
    # Fleet protocol, crypto, persistence, campaign engine, HTTP.
    ("protocol.offer.count", "count", "lower"),
    ("protocol.offer.ms", "ms", "lower"),
    ("protocol.offer.failed", "count", "lower"),
    ("protocol.offer.retries", "count", "lower"),
    ("update.apply.ms", "ms", "lower"),
    ("update.copy_steps", "count", "lower"),
    ("protocol.attest.count", "count", "lower"),
    ("protocol.attest.ms", "ms", "lower"),
    ("protocol.attest.failed", "count", "lower"),
    ("replay.count", "count", "lower"),
    ("replay.ms", "ms", "lower"),
    ("crypto.mac.count", "count", "lower"),
    ("crypto.mac.ms", "ms", "lower"),
    ("store.save.count", "count", "lower"),
    ("store.save.ms", "ms", "lower"),
    ("store.flush.count", "count", "lower"),
    ("store.flush.ms", "ms", "lower"),
    ("events.emit.count", "count", "lower"),
    ("events.emit.ms", "ms", "lower"),
    ("events.flush.ms", "ms", "lower"),
    ("campaign.run.ms", "ms", "lower"),
    ("campaign.wave.ms", "ms", "lower"),
    ("campaign.overhead_ms", "ms", "lower"),
    ("serve.dispatch.count", "count", "lower"),
    ("serve.dispatch.ms", "ms", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("pump.wait_ms", "ms", "lower"),
    # The workload's own headline numbers, from the untraced unit that
    # precedes the traced one, and what tracing cost on top of it.
    ("unit.instr_per_s", "1/s", "higher"),
    ("unit.faults_per_s", "1/s", "higher"),
    ("unit.rollout_dev_per_s", "1/s", "higher"),
    ("unit.attest_dev_per_s", "1/s", "higher"),
    ("unit.attest_p50_ms", "ms", "lower"),
    ("unit.attest_p99_ms", "ms", "lower"),
    ("tracing.overhead_frac", "ratio", "lower"),
    # Host speed over the traced run relative to the reference host
    # (common.HostSpeed); per-layer times above are raw host time.
    ("host.speed", "ratio", "higher"),
)

def _add(counters: Dict[str, float], key: str, value=1) -> None:
    counters[key] = counters.get(key, 0) + value


def targets(tracer: Tracer) -> List[Target]:
    """Every attribute the traced run wraps: the public entry points of
    each layer, plus two internal seams with no public counterpart
    (``protocol._mac`` and ``RolloutCampaign._run_wave``)."""
    from repro.cpu.core import Cpu, StepKind
    from repro.casu.monitor import HardwareMonitor
    from repro.casu.update import UpdateEngine, UpdateKey, UpdatePackage
    from repro.cfg.replay import TraceReplayer
    from repro.cfg.trace import BranchTraceRecorder
    from repro.device import Device
    from repro.api.session import Session
    import repro.faults.campaign as fault_campaign
    import repro.fleet.protocol as protocol
    from repro.fleet.campaign import RolloutCampaign
    from repro.fleet.store import JsonlStore
    from repro.obs.events import EventLog, JsonlEventLog
    from repro.peripherals.timer import Timer
    from repro.peripherals.uart import Uart
    from repro.serve.daemon import VerifierDaemon

    instruction = StepKind.INSTRUCTION
    main = threading.main_thread()

    def cpu_after(record, args, kwargs, token, counters):
        counters["sim.cycles"] = counters.get("sim.cycles", 0) + record.cycles
        if record.kind is instruction:
            counters["sim.instructions"] = \
                counters.get("sim.instructions", 0) + 1

    def monitor_after(violation, args, kwargs, token, counters):
        if violation is not None:
            _add(counters, "monitor.observe.violations")

    def edge_before(args, kwargs):
        return args[0].dropped

    def edge_after(result, args, kwargs, dropped_before, counters):
        _add(counters, "trace.edges")
        _add(counters, "trace.dropped", args[0].dropped - dropped_before)

    def run_after(result, args, kwargs, token, counters):
        if kwargs.get("break_at") is not None:
            _add(counters, "faults.arm_cycles", result.cycles)
            return "arm"
        names = tracer.stack_names()
        if (threading.current_thread() is main and "faults.sweep" in names
                and "faults.run" not in names):
            return "golden"
        return None

    def fault_after(outcome, args, kwargs, token, counters):
        _add(counters, "faults.sim_cycles", outcome["cycles"])
        if outcome["cycles"] >= args[2]:
            _add(counters, "faults.budget_hit")
        return f"{args[0].security}:{outcome['outcome']}"

    def offer_after(result, args, kwargs, token, counters):
        if not result.applied:
            _add(counters, "protocol.offer.failed")
        _add(counters, "protocol.offer.retries", max(0, result.attempts - 1))

    def apply_before(args, kwargs):
        return args[0].cpu.instruction_count

    def apply_after(result, args, kwargs, before, counters):
        _add(counters, "update.copy_steps",
             args[0].cpu.instruction_count - before)

    def attest_after(result, args, kwargs, token, counters):
        if not result.ok:
            _add(counters, "protocol.attest.failed")

    def dispatch_after(result, args, kwargs, token, counters):
        return args[2]  # the request path

    return [
        # Per-step layers: aggregated only, no span per call.
        Target(Device, "step", "device.step"),
        Target(Cpu, "step", "cpu.step", after=cpu_after),
        Target(HardwareMonitor, "observe", "monitor.observe",
               after=monitor_after),
        Target(Timer, "tick", "peripherals.tick"),
        Target(Uart, "tick", "peripherals.tick"),
        Target(BranchTraceRecorder, "observe", "trace.observe"),
        # record_edge is the recorder's own append path (public method).
        Target(BranchTraceRecorder, "record_edge", "trace.record_edge",
               before=edge_before, after=edge_after),
        # Runs, snapshots, fault grading.
        Target(Device, "run", "device.run", keep=True, after=run_after),
        Target(Device, "restore", "snapshot.restore", keep=True),
        Target(Session, "fault_sweep", "faults.sweep", keep=True),
        Target(fault_campaign, "run_faulted", "faults.run", keep=True,
               after=fault_after),
        # Fleet protocol and the device-side update.
        Target(protocol.VerifierSession, "offer_update", "protocol.offer",
               keep=True, after=offer_after),
        Target(Device, "apply_update", "update.apply", keep=True,
               before=apply_before, after=apply_after),
        Target(protocol.VerifierSession, "attest", "protocol.attest",
               keep=True, after=attest_after),
        Target(TraceReplayer, "replay", "replay"),
        # Crypto: protocol message MACs, package MAC make/verify, keys.
        Target(protocol, "_mac", "crypto.mac"),
        Target(UpdatePackage, "make", "crypto.mac"),
        Target(UpdateEngine, "verify", "crypto.mac"),
        Target(UpdateKey, "derive", "crypto.mac"),
        # Persistence.
        Target(JsonlStore, "save_record", "store.save"),
        Target(JsonlStore, "flush", "store.flush", keep=True),
        Target(EventLog, "emit", "events.emit", keep=True),
        Target(JsonlEventLog, "flush", "events.flush", keep=True),
        # Campaign engine; _run_wave is the only per-wave seam.
        Target(RolloutCampaign, "run", "campaign.run", keep=True),
        Target(RolloutCampaign, "_run_wave", "campaign.wave", keep=True),
        # HTTP control plane.
        Target(VerifierDaemon, "dispatch", "serve.dispatch", keep=True,
               after=dispatch_after),
    ]


def _ms(spans) -> float:
    return sum(end - start for _, _, _, start, end, _, _ in spans) / 1e6


def layer_metrics(tracer: Tracer, requests: Sequence = ()) -> Dict[str, float]:
    """Per-layer values from one traced unit.

    *requests* are the client-side ``(start_ns, end_ns)`` of single-
    device ``POST /attest`` calls made while tracing (fleet-ops only).
    """
    stats = tracer.stats()
    counters = tracer.counters()

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {
        "cpu.step.count": stat("cpu.step", "count"),
        "cpu.step.self_ms": stat("cpu.step", "self_ms"),
        "sim.instructions": counters.get("sim.instructions", 0),
        "sim.cycles": counters.get("sim.cycles", 0),
        "monitor.observe.count": stat("monitor.observe", "count"),
        "monitor.observe.ms": stat("monitor.observe", "ms"),
        "monitor.observe.violations":
            counters.get("monitor.observe.violations", 0),
        "device.step.self_ms": stat("device.step", "self_ms"),
        "peripherals.tick.count": stat("peripherals.tick", "count"),
        "peripherals.tick.ms": stat("peripherals.tick", "ms"),
        "trace.observe.ms": stat("trace.observe", "ms"),
        "trace.edges": counters.get("trace.edges", 0),
        "trace.dropped": counters.get("trace.dropped", 0),
        "snapshot.restore.count": stat("snapshot.restore", "count"),
        "snapshot.restore.ms": stat("snapshot.restore", "ms"),
        "faults.sim_cycles": counters.get("faults.sim_cycles", 0),
        "faults.arm_cycles": counters.get("faults.arm_cycles", 0),
        "faults.budget_hit": counters.get("faults.budget_hit", 0),
        "protocol.offer.count": stat("protocol.offer", "count"),
        "protocol.offer.ms": stat("protocol.offer", "ms"),
        "protocol.offer.failed": counters.get("protocol.offer.failed", 0),
        "protocol.offer.retries": counters.get("protocol.offer.retries", 0),
        "update.apply.ms": stat("update.apply", "ms"),
        "update.copy_steps": counters.get("update.copy_steps", 0),
        "protocol.attest.count": stat("protocol.attest", "count"),
        "protocol.attest.ms": stat("protocol.attest", "ms"),
        "protocol.attest.failed": counters.get("protocol.attest.failed", 0),
        "replay.count": stat("replay", "count"),
        "replay.ms": stat("replay", "ms"),
        "crypto.mac.count": stat("crypto.mac", "count"),
        "crypto.mac.ms": stat("crypto.mac", "ms"),
        "store.save.count": stat("store.save", "count"),
        "store.save.ms": stat("store.save", "ms"),
        "store.flush.count": stat("store.flush", "count"),
        "store.flush.ms": stat("store.flush", "ms"),
        "events.emit.count": stat("events.emit", "count"),
        "events.emit.ms": stat("events.emit", "ms"),
        "events.flush.ms": stat("events.flush", "ms"),
        "campaign.run.ms": stat("campaign.run", "ms"),
        "campaign.wave.ms": stat("campaign.wave", "ms"),
        "serve.dispatch.count": stat("serve.dispatch", "count"),
        "serve.dispatch.ms": stat("serve.dispatch", "ms"),
    }
    sim_fault = out["faults.sim_cycles"]
    out["faults.arm_frac"] = (out["faults.arm_cycles"] / sim_fault
                              if sim_fault else 0.0)
    out.update(_fault_metrics(tracer))
    out["campaign.overhead_ms"] = _campaign_overhead_ms(tracer)
    out.update(_serve_metrics(tracer, requests))
    return out


def _fault_metrics(tracer: Tracer) -> Dict[str, float]:
    faults = tracer.named("faults.run")
    out = {"faults.run.ms.p50": 0.0, "faults.run.ms.p99": 0.0,
           "faults.golden.ms": _ms([span for span in tracer.named("device.run")
                                    if span[6] == "golden"])}
    for profile in ("none", "casu", "eilid"):
        mine = [(s[3], s[4]) for s in faults
                if str(s[6]).startswith(profile + ":")]
        busy = covered_ns(mine)
        out[f"faults.{profile}.per_s"] = len(mine) / (busy / 1e9) if busy else 0.0
    if faults:
        durations = [(end - start) / 1e6 for _, _, _, start, end, _, _ in faults]
        out["faults.run.ms.p50"] = percentile(durations, 50)
        out["faults.run.ms.p99"] = tail_percentile(durations)[1]
    return out


def _campaign_overhead_ms(tracer: Tracer) -> float:
    """Campaign time not spent in offers, flushes or event emission:
    pool hand-off and the engine's own bookkeeping."""
    parts = [(s[3], s[4]) for name in ("protocol.offer", "store.flush",
                                       "events.flush", "events.emit")
             for s in tracer.named(name)]
    total = 0
    for _, _, _, start, end, _, _ in tracer.named("campaign.run"):
        total += (end - start) - covered_ns(parts, (start, end))
    return total / 1e6


def _serve_metrics(tracer: Tracer, requests: Sequence) -> Dict[str, float]:
    """Median per single-device attest request: time on the wire
    (client latency minus dispatch) and time the dispatch waited on
    the pump (dispatch minus the attest exchange it ran)."""
    out = {"serve.wire_ms": 0.0, "pump.wait_ms": 0.0}
    dispatches = sorted((s for s in tracer.named("serve.dispatch")
                         if s[6] == "/attest"), key=lambda s: s[3])
    attests = [(s[3], s[4]) for s in tracer.named("protocol.attest")]
    wire, wait = [], []
    index = 0
    for start, end in requests:
        while index < len(dispatches) and dispatches[index][3] < start:
            index += 1
        if index == len(dispatches) or dispatches[index][4] > end:
            continue
        span = dispatches[index]
        dispatch_ns = span[4] - span[3]
        wire.append((end - start - dispatch_ns) / 1e6)
        wait.append((dispatch_ns - covered_ns(attests, (span[3], span[4])))
                    / 1e6)
    if wire:
        out["serve.wire_ms"] = percentile(wire, 50)
        out["pump.wait_ms"] = percentile(wait, 50)
    return out
