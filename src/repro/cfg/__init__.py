"""Binary control-flow analysis and trace attestation.

This package gives the verifier an *independent* view of a firmware
image's control flow and the machinery to check live execution
evidence against it -- the layer OAT (control-flow trace replay) and
CFI CaRE (binary-derived branch policy) motivate on top of EILID's
device-side enforcement.  Three stages:

1. **Recovery** (:mod:`repro.cfg.recover`) -- disassemble the linked
   image through :mod:`repro.isa.decode`, split it into basic blocks,
   and rebuild per-function CFGs plus an interprocedural call graph.
   Indirect-call target sets are seeded from the EILID call-table
   registrations found in the binary itself; uninstrumented firmware
   falls back to discovered function entries.
2. **Policy compilation** (:mod:`repro.cfg.policy`) -- distil the CFG
   into a cacheable, JSON-serialisable :class:`CfiPolicy` (valid
   return sites, indirect-target sets, ISR entry/exit mapping,
   per-site static transfer targets) with a stable digest, and
   cross-check it against the instrumenter's listing-derived view
   (:func:`diff_against_listing`).
3. **Trace attestation** (:mod:`repro.cfg.trace` +
   :mod:`repro.cfg.replay`) -- a bounded device-side branch-trace
   recorder (ring buffer of taken edges with a chained rolling
   digest) and a verifier-side replayer that re-executes the trace
   over the recovered CFG with a shadow call/interrupt stack.  The
   fleet layer embeds the trace digest in the MAC'd attestation
   report and quarantines devices whose traces are forged or do not
   replay.

CLI: ``eilid cfg build|verify-trace|diff`` (see :mod:`repro.cli`).
"""

from repro.cfg.policy import (
    CfiPolicy,
    PolicyError,
    Transfer,
    compile_policy,
    diff_against_listing,
    listing_view,
    policy_for_program,
)
from repro.cfg.recover import (
    BasicBlock,
    CallSite,
    CfgError,
    DecodedInsn,
    FunctionCfg,
    RecoveredCfg,
    TransferKind,
    classify_insn,
    disassemble,
    recover_cfg,
)
from repro.cfg.replay import ReplayResult, TraceReplayer, replay_trace
from repro.cfg.trace import (
    BranchTraceRecorder,
    TraceSnapshot,
    capture_trace,
    classify_step,
    fold_edges,
)

__all__ = [
    "BasicBlock",
    "BranchTraceRecorder",
    "CallSite",
    "CfgError",
    "CfiPolicy",
    "DecodedInsn",
    "FunctionCfg",
    "PolicyError",
    "RecoveredCfg",
    "ReplayResult",
    "TraceReplayer",
    "TraceSnapshot",
    "Transfer",
    "TransferKind",
    "capture_trace",
    "classify_insn",
    "classify_step",
    "compile_policy",
    "diff_against_listing",
    "disassemble",
    "fold_edges",
    "listing_view",
    "policy_for_program",
    "recover_cfg",
    "replay_trace",
]
