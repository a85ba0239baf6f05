"""Fault-sweep execution across defense profiles and pool backends.

Per profile (none/casu/eilid), a :class:`FaultCampaign`:

1. builds the honest device and snapshots it (optionally after a
   warm-up run, so faults land mid-workload);
2. replays the snapshot into a *fresh* device and runs it to DONE --
   the golden run, which both sizes the per-fault cycle budget and
   proves the restore path before any fault rides it;
3. shards the plan's faults across a thread or process pool; each
   worker restores the snapshot per fault, injects, runs, grades
   (:mod:`repro.faults.inject`);
4. tallies detection/escape/crash/silent-corruption into a
   :class:`FaultReport` whose :meth:`~FaultReport.render` is the
   paper-style per-profile table.

All profiles sweep the **same original-variant image**, so the eilid
monitor set being a strict superset of casu's makes the detection
ordering eilid >= casu >= none deterministic, per fault: execution is
bit-identical until the first violation, and any monitor rule casu
trips is also armed under eilid.

The shard context is pure JSON (firmware spec, snapshot wire dict,
golden outputs, budget) and stamps the shared codec version, so a
mismatched parent/worker build fails loudly -- same contract as the
fleet's record codec.
"""

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence

from repro.eval.report import render_table
from repro.faults.inject import run_faulted
from repro.faults.plan import FaultPlan
from repro.snapshot import WIRE_VERSION, check_wire_version

FAULT_PROFILES = ("none", "casu", "eilid")
FAULT_BACKENDS = ("thread", "process")


@dataclass
class ProfileTally:
    """Outcome counts for one defense profile."""

    profile: str
    total: int = 0
    detected: int = 0
    escape: int = 0
    crash: int = 0
    silent: int = 0
    golden_cycles: int = 0

    def count(self, outcome: str) -> None:
        self.total += 1
        if outcome == "detected":
            self.detected += 1
        elif outcome == "escape":
            self.escape += 1
        elif outcome == "crash":
            self.crash += 1
        elif outcome == "silent-corruption":
            self.silent += 1
        else:
            raise ValueError(f"unknown fault outcome {outcome!r}")

    @property
    def detection_rate(self) -> float:
        return self.detected / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {"profile": self.profile, "total": self.total,
                "detected": self.detected, "escape": self.escape,
                "crash": self.crash, "silent_corruption": self.silent,
                "detection_rate": round(self.detection_rate, 4),
                "golden_cycles": self.golden_cycles}


@dataclass
class FaultReport:
    """One sweep's results across every requested profile."""

    name: str
    seed: int
    backend: str
    faults: int
    tallies: List[ProfileTally] = field(default_factory=list)
    outcomes: Dict[str, List[dict]] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def tally(self, profile: str) -> ProfileTally:
        for tally in self.tallies:
            if tally.profile == profile:
                return tally
        raise KeyError(profile)

    @property
    def faults_per_sec(self) -> float:
        total = sum(tally.total for tally in self.tallies)
        return total / self.elapsed_s if self.elapsed_s else 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "seed": self.seed, "backend": self.backend,
                "faults": self.faults,
                "profiles": [tally.to_dict() for tally in self.tallies],
                "elapsed_s": round(self.elapsed_s, 6),
                "faults_per_sec": round(self.faults_per_sec, 1)}

    def render(self) -> str:
        """The paper-style table: one row per defense profile."""
        rows = []
        for tally in self.tallies:
            rows.append([
                tally.profile, str(tally.total), str(tally.detected),
                str(tally.escape), str(tally.crash), str(tally.silent),
                f"{100.0 * tally.detection_rate:.1f}%",
            ])
        return render_table(
            ["profile", "faults", "detected", "escape", "crash",
             "silent", "detection"],
            rows,
            title=f"Fault sweep: {self.name} "
                  f"(seed {self.seed}, {self.backend} backend)")


class FaultCampaign:
    """Run one expanded :class:`FaultPlan` across defense profiles."""

    def __init__(self, firmware, plan: FaultPlan,
                 profiles: Sequence[str] = FAULT_PROFILES,
                 backend: str = "thread", workers: Optional[int] = None,
                 max_cycles: int = 2_000_000, warmup_steps: int = 0,
                 events=None, policy=None):
        unknown = sorted(set(profiles) - set(FAULT_PROFILES))
        if unknown:
            raise ValueError(f"unknown profile(s) {', '.join(unknown)}; "
                             f"one of {', '.join(FAULT_PROFILES)}")
        if backend not in FAULT_BACKENDS:
            raise ValueError(f"backend must be one of {FAULT_BACKENDS}")
        self.firmware = firmware
        self.plan = plan
        self.profiles = tuple(profiles)
        self.backend = backend
        self.workers = workers or 4
        self.max_cycles = max_cycles
        self.warmup_steps = warmup_steps
        self.events = events
        # Optional CfiPolicy: escapes additionally replay their branch
        # trace against it (verifier-side grading; see run_faulted).
        self.policy = policy

    # ---- golden path -----------------------------------------------------

    def _golden(self, profile: str):
        """Snapshot the honest device and prove the restore path.

        Returns ``(snapshot_doc, golden_doc, budget)`` where the golden
        run executed on a *restored* device -- if restore were lossy,
        the sweep's reference would already be wrong, so this is the
        first line of defense, not just a convenience.
        """
        from repro.api.firmware import build_firmware
        from repro.device import build_device

        program = build_firmware(self.firmware).program
        honest = build_device(program, security=profile)
        if self.warmup_steps:
            honest.run_steps(self.warmup_steps, max_cycles=self.max_cycles)
        snapshot_doc = honest.snapshot().to_dict()

        golden = build_device(program, security=profile)
        golden.restore(snapshot_doc)
        result = golden.run(max_cycles=self.max_cycles)
        if result.violations or not golden.harness.done:
            raise RuntimeError(
                f"honest {profile} run did not complete cleanly "
                f"(done={golden.harness.done}, "
                f"violations={result.violations}); fault grades would "
                f"be meaningless")
        golden_doc = {
            "done_value": golden.harness.done_value,
            "outputs": [[port, value]
                        for port, value in golden.output_events()],
        }
        # Twice the honest runtime plus slack: enough for any detour
        # that still terminates, cheap enough to bound wild execution.
        budget = 2 * result.cycles + 20_000
        return snapshot_doc, golden_doc, budget

    # ---- execution -------------------------------------------------------

    def run(self) -> FaultReport:
        report = FaultReport(name=self.plan.name, seed=self.plan.seed,
                             backend=self.backend, faults=len(self.plan))
        campaign_id = None
        if self.events is not None:
            campaign_id = self.events.start_campaign(
                sweep=self.plan.name, faults=len(self.plan),
                profiles=list(self.profiles), backend=self.backend,
                seed=self.plan.seed)
        started = time.perf_counter()
        pool_cls = (ProcessPoolExecutor if self.backend == "process"
                    else ThreadPoolExecutor)
        with pool_cls(max_workers=self.workers) as pool:
            for profile in self.profiles:
                snapshot_doc, golden_doc, budget = self._golden(profile)
                context = {
                    "codec": WIRE_VERSION,
                    "firmware": self.firmware.to_dict(),
                    "security": profile,
                    "snapshot": snapshot_doc,
                    "golden": golden_doc,
                    "budget": budget,
                    "policy": (None if self.policy is None
                               else self.policy.to_dict()),
                }
                faults = [dict(fault) for fault in self.plan.faults]
                if self.events is not None:
                    for fault in faults:
                        self.events.emit(
                            "fault-inject", campaign=campaign_id,
                            profile=profile, fault=fault["id"],
                            fault_kind=fault["kind"], pc=fault["pc"])
                # ~2 batches per worker: balanced without paying
                # per-fault submission overhead.
                chunk = max(1, -(-len(faults) // (2 * self.workers)))
                batches = [faults[i:i + chunk]
                           for i in range(0, len(faults), chunk)]
                tally = ProfileTally(profile=profile,
                                     golden_cycles=(budget - 20_000) // 2)
                outcomes: List[dict] = []
                for shard in pool.map(_run_fault_shard, repeat(context),
                                      batches):
                    check_wire_version(shard, "fault shard result")
                    outcomes.extend(shard["outcomes"])
                outcomes.sort(key=lambda doc: doc["id"])
                for doc in outcomes:
                    tally.count(doc["outcome"])
                    if self.events is not None:
                        self.events.emit(
                            "fault-outcome", campaign=campaign_id,
                            profile=profile, fault=doc["id"],
                            fault_kind=doc["kind"], pc=doc["pc"],
                            outcome=doc["outcome"], reason=doc["reason"])
                report.tallies.append(tally)
                report.outcomes[profile] = outcomes
        report.elapsed_s = time.perf_counter() - started
        if self.events is not None:
            self.events.emit(
                "campaign-end", campaign=campaign_id,
                status="complete", faults=len(self.plan),
                profiles={tally.profile: tally.to_dict()
                          for tally in report.tallies},
                elapsed_s=round(report.elapsed_s, 6),
                faults_per_sec=round(report.faults_per_sec, 1))
            self.events.flush()
        return report


# ---- pool worker -----------------------------------------------------------


def _run_fault_shard(context: dict, fault_docs: List[dict]) -> dict:
    """Grade one batch of faults in a worker (process or thread).

    Pure function of its JSON arguments: builds the firmware once per
    process (``build_firmware`` is lru-cached), restores the shipped
    snapshot per fault, injects, runs, grades.  Order inside the batch
    is irrelevant -- the parent re-sorts outcomes by fault id -- which
    is what makes thread and process tallies identical by construction.
    """
    from repro.api.firmware import build_firmware
    from repro.api.spec import FirmwareSpec
    from repro.device import build_device

    check_wire_version(context, "fault shard context")
    spec = FirmwareSpec.from_dict(context["firmware"])
    program = build_firmware(spec).program
    security = context["security"]
    snapshot_doc = context["snapshot"]
    budget = context["budget"]
    golden_outputs = [tuple(event) for event in context["golden"]["outputs"]]
    golden_done_value = context["golden"]["done_value"]
    policy = None
    if context.get("policy") is not None:
        from repro.cfg.policy import CfiPolicy

        policy = CfiPolicy.from_dict(context["policy"])
    outcomes = []
    for fault in fault_docs:
        device = build_device(program, security=security)
        device.restore(snapshot_doc)
        outcomes.append(run_faulted(device, fault, budget,
                                    golden_outputs, golden_done_value,
                                    policy=policy))
    return {"codec": WIRE_VERSION, "outcomes": outcomes}
