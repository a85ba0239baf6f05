"""Explicit-state model checker for monitor FSMs.

Two property classes cover what the CASU lineage proves about its
monitors:

* **state invariants** -- a predicate that must hold in every reachable
  state (``G inv`` over the state space);
* **transition properties** -- a predicate over
  ``(state, inputs, next_state)`` that must hold for every reachable
  transition (``G (antecedent -> X consequent)`` patterns, e.g. "an
  unauthorised PMEM write in a non-violation state moves the machine to
  the violation state").

The input alphabet is exhaustively enumerated (the composed monitor
reads 11 boolean signals, 2048 valuations) and counterexample paths are
reconstructed for failures.  Each reachable transition is stepped
once, however many properties are checked over it.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.verification.fsm import Fsm, Inputs


@dataclass
class CheckResult:
    holds: bool
    property_name: str
    counterexample: Optional[List[Tuple[str, Optional[Inputs]]]] = None
    states_explored: int = 0

    def __str__(self):
        if self.holds:
            return f"{self.property_name}: HOLDS ({self.states_explored} states)"
        trace = " -> ".join(
            state + ("" if inputs is None else f" {inputs}")
            for state, inputs in self.counterexample
        )
        return f"{self.property_name}: FAILS: {trace}"


def _explore(fsm: Fsm):
    """Reachable states with predecessor links for path reconstruction,
    and every reachable transition as ``(state, inputs, next_state)``."""
    valuations = list(fsm.input_space())
    parents: Dict[str, Optional[Tuple[str, Inputs]]] = {fsm.initial: None}
    edges = []
    queue = deque([fsm.initial])
    while queue:
        state = queue.popleft()
        for inputs in valuations:
            nxt = fsm.step(state, inputs)
            edges.append((state, inputs, nxt))
            if nxt not in parents:
                parents[nxt] = (state, inputs)
                queue.append(nxt)
    return parents, edges


def _path_to(parents, state) -> List[Tuple[str, Optional[Inputs]]]:
    path = []
    cursor: Optional[str] = state
    while cursor is not None:
        link = parents[cursor]
        if link is None:
            path.append((cursor, None))
            cursor = None
        else:
            parent, inputs = link
            path.append((cursor, inputs))
            cursor = parent
    path.reverse()
    return path


def reachable_states(fsm: Fsm):
    return set(_explore(fsm)[0])


def check_invariant(fsm: Fsm, predicate: Callable[[str], bool], name="invariant") -> CheckResult:
    parents = _explore(fsm)[0]
    for state in parents:
        if not predicate(state):
            return CheckResult(False, name, _path_to(parents, state), len(parents))
    return CheckResult(True, name, states_explored=len(parents))


def check_transition_properties(
    fsm: Fsm,
    properties: Dict[str, Callable[[str, Inputs, str], bool]],
) -> List[CheckResult]:
    """Check each named ``(state, inputs, next_state)`` predicate over
    every reachable transition; one result per property, in order."""
    parents, edges = _explore(fsm)
    results = []
    for name, predicate in properties.items():
        for state, inputs, nxt in edges:
            if not predicate(state, inputs, nxt):
                path = _path_to(parents, state)
                path.append((nxt, inputs))
                results.append(CheckResult(False, name, path, len(parents)))
                break
        else:
            results.append(CheckResult(True, name, states_explored=len(parents)))
    return results


def check_transition_property(
    fsm: Fsm,
    predicate: Callable[[str, Inputs, str], bool],
    name="transition-property",
) -> CheckResult:
    return check_transition_properties(fsm, {name: predicate})[0]
