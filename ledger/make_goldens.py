"""Regenerate ``goldens.json``: the exact outputs every run is checked
against.

Run from the repository root after a change that legitimately alters
simulated behaviour (and say so in the change)::

    python3 ledger/make_goldens.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from common import GOLDENS, HostSpeed, Ledger  # noqa: E402
from devices import (  # noqa: E402
    DEFAULT_SEED,
    GOLDEN_SWEEPS,
    FaultSweep,
    table4_apps,
    app_image,
    run_app,
)
from fleetops import FLEET_SIZE  # noqa: E402

TABLE4_KEYS = ("done_value", "cycles", "instructions", "steps", "outputs",
               "trace_edges")


def table4() -> dict:
    out = {}
    for app in table4_apps():
        summary = run_app(app_image(app.name, "eilid"), app)
        assert summary["done"] and not summary["violations"], app.name
        out[app.name] = {key: summary[key] for key in TABLE4_KEYS}
    return out


def fault_sweep() -> dict:
    goldens = {"fault-sweep": {"golden_cycles": {},
                               "default_seed_sweeps": []}}
    sweeper = FaultSweep(DEFAULT_SEED, Ledger(), goldens)
    sweeper.setup(HostSpeed())
    sweeps = [sweeper.sweep() for _ in range(GOLDEN_SWEEPS)]
    return {"golden_cycles": sweeps[0]["golden_cycles"],
            "default_seed_sweeps": [{"outcomes": s["outcomes"],
                                     "tallies": s["tallies"]}
                                    for s in sweeps]}


def fleet_ops() -> dict:
    from repro.fleet.simulation import FleetSimulation

    fleet = FleetSimulation(size=FLEET_SIZE, security="casu",
                            verify_traces=True)
    before = sum(device.cycle for device in fleet.devices.values())
    report = fleet.rollout(1)
    assert report.applied == FLEET_SIZE, report.render()
    after = sum(device.cycle for device in fleet.devices.values())
    return {"rollout_cycles": after - before}


def main() -> int:
    doc = {"table4-eilid": table4(), "fault-sweep": fault_sweep(),
           "fleet-ops": fleet_ops()}
    with open(GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
