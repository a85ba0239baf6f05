"""Layer-ledger benchmark for the EILID reproduction.

Run from the repository root::

    python3 ledger/run.py --workload table4-eilid --seed 0 --seconds 25 --trace 0

Workloads (see ``devices.py`` and ``fleetops.py`` for what each runs
and why):

* ``table4-eilid`` -- the seven Table IV apps to DONE on their
  EILID images: the per-step device layers at full size;
* ``fault-sweep``  -- seeded fault sweeps on light_sensor across the
  none/casu/eilid profiles: snapshot restore, cold decode caches,
  re-executed prefixes;
* ``fleet-ops``    -- a 2000-device casu fleet behind the HTTP control
  plane: rollout, batched attest sweep, single-device attests.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics: ``sim_cycles`` (exact simulated cycles of the workload's
reference execution), ``sim_cycles_per_s`` (simulator speed),
``ops_per_s`` (app runs, graded faults, or device offers and attests
per second), ``setup_s`` and ``peak_rss_mb``.  The two rates and
``setup_s`` are host time scaled, sample by sample, to the reference
host speed that a fixed probe loop measures between units of work
(``common.HostSpeed``).  ``--trace 1`` runs one untraced unit of the
workload, the device ladder, then the same unit again with timing
wrappers on every layer (``layers.py``), and reports the per-layer
metrics (raw host time, with the host speed alongside).  Either way
the last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run checks its
outputs against ``goldens.json`` (regenerate with ``make_goldens.py``)
and, traced, that exact simulated counts match the untraced unit.

The benchmark is one process with at most ``nproc`` threads per pool;
it writes only under ``.ledger_work/`` in the checkout.
"""

import argparse
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table4-eilid", "fault-sweep", "fleet-ops")
END_TO_END = (("sim_cycles", "cycles"), ("sim_cycles_per_s", "1/s"),
              ("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def make_workload(name: str, seed: int, ledger, goldens):
    if name == "fleet-ops":
        from fleetops import FleetOps

        return FleetOps(seed, ledger, goldens)
    from devices import FaultSweep, Table4

    cls = Table4 if name == "table4-eilid" else FaultSweep
    return cls(seed, ledger, goldens)


def traced_metrics(workload, ledger, probe) -> dict:
    import layers
    from tracer import Tracer

    tracer = Tracer()
    targets = layers.targets(tracer)
    originals = [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]

    @contextlib.contextmanager
    def install():
        tracer.install(targets)
        try:
            yield
        finally:
            tracer.uninstall()

    values = workload.traced(tracer, install)
    for owner, attr, original in originals:
        if owner.__dict__[attr] is not original:
            ledger.problems.append(
                f"divergence: {getattr(owner, '__name__', owner)}.{attr} "
                f"still wrapped after the traced run")
    values.update(layers.layer_metrics(
        tracer, getattr(workload, "requests", ())))
    probe.sample()
    values["host.speed"] = probe.factor()
    if not values.get("ladder.ordered"):
        print("warning: device ladder out of order: " + ", ".join(
            f"{rung} {values[f'ladder.{rung}.ips']:.0f}"
            for rung in ("cpu", "none", "trace", "casu", "eilid")))
    from common import WORK

    tracer.write_spans(str(WORK / f"spans-{workload.name}.jsonl"))
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import (
        WORK,
        HostSpeed,
        Ledger,
        check_load_cap,
        emit_result,
        load_goldens,
        peak_rss_mb,
        run_record,
    )

    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    tempfile.tempdir = str(WORK)

    ledger = Ledger()
    workload = make_workload(args.workload, args.seed, ledger, load_goldens())
    workers = workload.workers()
    check_load_cap(workers)
    print(json.dumps({"run_record": run_record(
        args.workload, args.seed, args.seconds, bool(args.trace), workers)}))
    probe = HostSpeed()
    try:
        setup_s = workload.setup(probe)
        if args.trace:
            metrics = traced_metrics(workload, ledger, probe)
        else:
            measured = workload.measure(args.seconds, probe)
            print(f"host speed {probe.factor():.3f} x reference over the run "
                  f"({len(probe.samples)} probe samples); rates and setup_s "
                  f"are scaled to reference speed sample by sample")
            measured["setup_s"] = (setup_s, "s")
            measured["peak_rss_mb"] = (peak_rss_mb(), "MB")
            metrics = {name: measured[name] for name, _ in END_TO_END}
        check_load_cap(workers)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    emit_result(ledger, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
