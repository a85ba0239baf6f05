"""Verification layer: model checking and trace oracles.

CASU's monitor is formally verified in the original work; EILID
inherits those guarantees ("we avoid introducing any new hardware
overhead and preserve CASU's formally verified properties", Sec. IV).
This package reproduces that claim at the model level:

* :mod:`repro.verification.fsm` + :mod:`repro.verification.model_checker`
  -- guarded-transition FSMs over boolean signal abstractions, checked
  exhaustively (every reachable state x every input valuation) against
  safety invariants and transition properties, with counterexample
  extraction.
* :mod:`repro.verification.properties` -- the monitor's model,
  generated from its rule table (:data:`repro.casu.monitor.RULES`): a
  product FSM that carries the verdict priority and its properties,
  checked per rule and per policy, and the table's single-guard
  mutants, which show the checks are not vacuous.
* :mod:`repro.verification.oracles` -- runtime oracles that replay a
  device execution and independently judge P1/P2 (every return/reti
  lands where its call/interrupt said it would), used to cross-check
  both the simulator and the EILID runtime.
"""

from repro.verification.fsm import Fsm, Transition
from repro.verification.model_checker import (
    CheckResult,
    check_invariant,
    check_transition_properties,
    check_transition_property,
    reachable_states,
)
from repro.verification.properties import (
    check_all,
    check_product,
    check_rule,
    equivalent,
    mutants,
    product_fsm,
)
from repro.verification.oracles import ControlFlowOracle, OracleDeviation

__all__ = [
    "Fsm",
    "Transition",
    "CheckResult",
    "check_invariant",
    "check_transition_properties",
    "check_transition_property",
    "reachable_states",
    "check_all",
    "check_product",
    "check_rule",
    "equivalent",
    "mutants",
    "product_fsm",
    "ControlFlowOracle",
    "OracleDeviation",
]
