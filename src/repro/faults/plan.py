"""Deterministic seeded expansion of fault sites into a sweep plan.

The plan is expanded **once, in the parent**, before any work is
dispatched: every concrete fault (site + parameters) is fixed up
front, so the serial and process backends run the exact same sweep and
produce identical tallies for the same seed -- the property the
acceptance test pins.

Wire form: each fault is a flat JSON-safe dict (it travels to pool
workers inside the shard context), and the whole plan round-trips
through ``to_dict``/``from_dict`` with the shared codec version.
``from_dict`` checks every field a fault's kind reads, so a malformed
document raises :class:`~repro.snapshot.SnapshotError` at the boundary
rather than failing later inside a run.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.registers import NUM_REGISTERS
from repro.snapshot import (
    WIRE_VERSION,
    SnapshotError,
    check_wire_version,
    state_int,
    state_list,
    state_str,
    state_value,
)
from repro.faults.sites import CORRUPTIBLE_PERIPHERALS, FAULT_KINDS, FaultSite


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, fully parameterised fault sweep."""

    name: str  # program the sites came from
    seed: int
    faults: Tuple[Dict, ...]  # wire dicts, ids 0..n-1 in order

    def __len__(self):
        return len(self.faults)

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for fault in self.faults:
            counts[fault["kind"]] = counts.get(fault["kind"], 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {"codec": WIRE_VERSION, "name": self.name, "seed": self.seed,
                "faults": [dict(fault) for fault in self.faults]}

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        check_wire_version(doc, "fault plan")
        try:
            return cls(name=state_str(doc, "name"),
                       seed=state_int(doc, "seed"),
                       faults=tuple(_checked_fault(fault) for fault
                                    in state_list(doc, "faults", dict)))
        except (KeyError, ValueError) as error:
            raise SnapshotError(f"malformed fault plan: {error!r}") from None


def _checked_fault(fault: dict) -> dict:
    """A copy of one fault document, once every field its kind reads
    (see :mod:`repro.faults.inject`) is there with a usable value."""
    state_int(fault, "id")
    state_int(fault, "pc")
    kind = state_str(fault, "kind", FAULT_KINDS)
    if kind == "imem-flip":
        state_int(fault, "bit")
    elif kind == "insn-skip":
        state_int(fault, "next_pc")
    elif kind == "reg-corrupt":
        state_value(fault, "reg", range(NUM_REGISTERS))
        state_int(fault, "mask")
    else:
        state_str(fault, "periph", CORRUPTIBLE_PERIPHERALS)
        state_int(fault, "mask")
    return dict(fault)


def expand_plan(sites: Sequence[FaultSite], seed: int = 0,
                count: Optional[int] = None, name: str = "") -> FaultPlan:
    """Sample *count* sites (all of them if None) and fix parameters.

    One ``random.Random(seed)`` drives both the site sampling and the
    per-fault parameter draws, so the plan is a pure function of
    (sites, seed, count).  Counts above the site population sample with
    replacement -- a sweep may deliberately hammer a small CFG.
    """
    if not sites:
        raise ValueError("no fault sites to expand")
    rng = random.Random(seed)
    if count is None or count == len(sites):
        chosen = list(sites)
    elif count < len(sites):
        chosen = rng.sample(list(sites), count)
    else:
        chosen = rng.choices(list(sites), k=count)
    faults: List[Dict] = []
    for fault_id, site in enumerate(chosen):
        doc = {"id": fault_id, "kind": site.kind, "pc": site.pc,
               "function": site.function}
        if site.kind == "imem-flip":
            doc["bit"] = rng.randrange(8 * site.size)
        elif site.kind == "insn-skip":
            doc["next_pc"] = site.next_pc
        elif site.kind == "reg-corrupt":
            # R4-R15: the general-purpose file.  PC/SP/SR corruption is
            # what imem-flip and insn-skip already exercise indirectly.
            doc["reg"] = rng.randrange(4, 16)
            doc["mask"] = rng.randrange(1, 0x10000)
        elif site.kind == "periph-corrupt":
            doc["periph"] = rng.choice(CORRUPTIBLE_PERIPHERALS)
            doc["mask"] = rng.randrange(1, 0x10000)
        faults.append(doc)
    return FaultPlan(name=name, seed=seed, faults=tuple(faults))
