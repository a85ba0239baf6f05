"""CFG-driven fault-injection campaigns.

EILID's evaluation argues detection coverage from four hand-written
attacks; this package makes the claim systematic, LLFI-style: enumerate
fault sites from the statically recovered CFG (:mod:`repro.cfg.recover`),
expand a deterministic seeded sweep plan, then run every fault against
each defense profile (none/casu/eilid) and grade the outcome --
detected, escaped (masked), crash, or silent corruption.

The sweep rides the portable device-snapshot codec
(:mod:`repro.snapshot`): the honest device is snapshotted once per
profile, and each fault restores that snapshot into a fresh device --
in this process on the default ``serial`` backend, in a process-pool
worker when ``backend="process"`` -- mutates it, and runs it out.
Same seed => identical tallies on both backends.
"""

from repro.faults.campaign import (
    FAULT_PROFILES,
    FaultCampaign,
    FaultReport,
    ProfileTally,
)
from repro.faults.inject import OUTCOMES, run_faulted
from repro.faults.plan import FaultPlan, expand_plan
from repro.faults.sites import FAULT_KINDS, FaultSite, enumerate_sites

__all__ = [
    "FAULT_KINDS",
    "FAULT_PROFILES",
    "FaultCampaign",
    "FaultPlan",
    "FaultReport",
    "FaultSite",
    "OUTCOMES",
    "ProfileTally",
    "enumerate_sites",
    "expand_plan",
    "run_faulted",
]
