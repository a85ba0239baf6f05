"""How many ``casu`` replicas one verifier process holds.

Enrolls ``--devices`` replicas into one in-memory fleet, attests every
one of them once, and prints one JSON line: the wall time of each phase
and the process's peak RSS.  Replicas are parked between exchanges, so
each holds only the RAM pages that differ from its firmware image.
Run from the repository root::

    PYTHONPATH=src python benchmarks/fleet_capacity.py --devices 100000

It is a measurement, not a gate: the figure in README comes from it.
Peak RSS grows with the fleet at roughly 15 KB per device; size the run
to the host's memory.
"""

import argparse
import json
import resource
import time

from repro.fleet import FleetSimulation


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=10_000)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    fleet = FleetSimulation(size=args.devices, security="casu")
    enrolled = time.perf_counter()
    results = fleet.attest_all()
    attested = time.perf_counter()
    print(json.dumps({
        "devices": args.devices,
        "attested_ok": sum(result.ok for result in results.values()),
        "parked": sum(device.parked for device in fleet.devices.values()),
        "enroll_s": round(enrolled - started, 1),
        "attest_s": round(attested - enrolled, 1),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    }))


if __name__ == "__main__":
    main()
