"""Deterministic seeded expansion of fault sites into a sweep plan.

The plan is expanded **once, in the parent**, before any work is
dispatched: every concrete fault (site + parameters) is fixed up
front, so the serial and process backends run the exact same sweep and
produce identical tallies for the same seed -- the property the
acceptance test pins.

Wire form: each fault is a flat JSON-safe dict (it travels to pool
workers inside the shard context), and the whole plan round-trips
through ``to_dict``/``from_dict`` with the shared codec version.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.snapshot import WIRE_VERSION, check_wire_version
from repro.faults.sites import CORRUPTIBLE_PERIPHERALS, FaultSite


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
        return cls(name=doc["name"], seed=doc["seed"],
                   faults=tuple(dict(fault) for fault in doc["faults"]))


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
