"""The monitor's verified model, generated from its rule table.

:data:`repro.casu.monitor.RULES` declares each monitor rule once; this
module builds the CASU/VRASED-style model from it -- FSMs over boolean
bus signals.  :func:`product_fsm` composes the rows one
:class:`MonitorPolicy` arms: from OK, the first row whose guard holds
moves to that row's violation state, which is absorbing (the latched
reset line), so row order carries the verdict priority.
:func:`check_all` checks every rule alone (its one-row product) and the
whole table under all 64 policies; ``repro verify`` reports it.

The tests hold the executed :meth:`HardwareMonitor.observe` to the same
FSMs step by step (the refinement check in ``tests/conftest.py``), and
:func:`mutants` enumerates the table's single-guard mutants under
stable ids: one that no refinement corpus kills must be one
:func:`equivalent` proves equivalent with the model checker.
"""

from dataclasses import replace
from itertools import product
from typing import Dict, List

from repro.casu.monitor import ARMS, RULES, SIGNALS, MonitorPolicy
from repro.verification.fsm import Fsm, Transition
from repro.verification.model_checker import (
    CheckResult, check_transition_properties)

OK = "OK"
POLICIES = tuple(MonitorPolicy(*arming)
                 for arming in product((False, True), repeat=len(ARMS)))
_NAMES = tuple(signal.name for signal in SIGNALS)


def _always(_inputs):
    return True


def _inputs(*rules):
    """The signals any of *rules* reads, in ``SIGNALS`` order."""
    read = {name for rule in rules for name in rule.reads}
    return tuple(name for name in _NAMES if name in read)


def _armed(policy, rules):
    return [rule for rule in rules if getattr(policy, rule.arm)]


def violation_state(rule) -> str:
    return f"VIOL:{rule.name}"


def product_fsm(policy: MonitorPolicy, rules=RULES, inputs=None) -> Fsm:
    """The rows of *rules* that *policy* arms as one FSM: from OK, the
    first whose guard holds moves to its own, absorbing, violation
    state."""
    armed = _armed(policy, rules)
    states = tuple(map(violation_state, armed))
    arming = "+".join(name for name in ARMS if getattr(policy, name))
    return Fsm(f"monitor[{arming or 'none'}]", (OK,) + states,
               inputs or _inputs(*armed), OK,
               [Transition(OK, rule.holds, violation_state(rule),
                           rule.reason.value) for rule in armed]
               + [Transition(state, _always, state, "latched")
                  for state in states])


def product_properties(policy: MonitorPolicy, rules=RULES) -> Dict[str, object]:
    """What the composed monitor must do under *policy*, stated from
    the table, as predicates over ``(state, inputs, next_state)``."""
    armed = _armed(policy, rules)

    def first(inputs):
        return next((violation_state(rule) for rule in armed
                     if rule.holds(inputs)), OK)

    return {
        "armed-guard-trips": lambda s, i, n: s != OK or n != OK or first(i) == OK,
        "no-violation-without-armed-guard":
            lambda s, i, n: s != OK or n == OK or first(i) != OK,
        "verdict-is-first-armed-rule": lambda s, i, n: s != OK or n == first(i),
        "violation-latched": lambda s, i, n: s == OK or n == s,
    }


def _check(policy, rules, spec, prefix=None, only=None) -> List[CheckResult]:
    """The product FSM of *rules* against *spec*'s properties (those in
    *only*, if given), named *prefix* (default: the FSM's name)."""
    fsm = product_fsm(policy, rules, _inputs(*_armed(policy, rules),
                                              *_armed(policy, spec)))
    return check_transition_properties(fsm, {
        f"{prefix or fsm.name}/{name}": predicate
        for name, predicate in product_properties(policy, spec).items()
        if only is None or name in only})


def check_rule(rule, spec=None) -> List[CheckResult]:
    """One rule alone, armed, against *spec* (default: itself): its
    guard trips it, nothing else does, and the violation latches."""
    return _check(MonitorPolicy(*[True] * len(ARMS)), (rule,),
                  (spec or rule,), rule.name,
                  ("armed-guard-trips", "no-violation-without-armed-guard",
                   "violation-latched"))


def check_product(rules=RULES, only=None) -> List[CheckResult]:
    """The product FSM of *rules* against the table's properties (those
    in *only*, if given) under each of the 64 policies.  One result per
    property: the first failing policy's, or a pass whose state count
    sums the policies'."""
    results: Dict[str, CheckResult] = {}
    for policy in POLICIES:
        for result in _check(policy, rules, RULES, only=only):
            name = "monitor/" + result.property_name.split("/")[-1]
            seen = results.setdefault(name, CheckResult(True, name))
            if seen.holds and not result.holds:
                results[name] = result
            elif seen.holds:
                seen.states_explored += result.states_explored
    return list(results.values())


def check_all() -> List[CheckResult]:
    """Every generated property: three per rule, then the table's."""
    return [result for rule in RULES for result in check_rule(rule)] \
        + check_product()


def _with_guard(index, guard):
    return RULES[:index] + (replace(RULES[index], guard=guard),) \
        + RULES[index + 1:]


def mutants():
    """Every single-guard mutant of the table, as ``(id, rules)``.

    An id is ``(row reason, term, literal, operator)``: ``drop`` and
    ``negate`` name one literal of one term, ``drop-term`` one term
    (literal None), and ``swap`` exchanges the row with the next one
    (term and literal None).  Ids count terms and literals within their
    row, so they stay stable when other rows change.
    """
    for index, rule in enumerate(RULES):
        reason, guard = rule.reason.name, rule.guard
        for t, term in enumerate(guard):
            for k, (name, polarity) in enumerate(term):
                for operator, literal in (("drop", ()),
                                          ("negate", ((name, not polarity),))):
                    new = term[:k] + literal + term[k + 1:]
                    yield ((reason, t, k, operator), _with_guard(
                        index, guard[:t] + (new,) + guard[t + 1:]))
            yield ((reason, t, None, "drop-term"),
                   _with_guard(index, guard[:t] + guard[t + 1:]))
        if index + 1 < len(RULES):
            yield ((reason, None, None, "swap"), RULES[:index]
                   + (RULES[index + 1], rule) + RULES[index + 2:])


def equivalent(rules) -> bool:
    """Whether *rules* give the table's verdict on every signal
    valuation under every policy: the model checker holds *rules*'
    product FSM to the table's priority property."""
    return all(result.holds for result in check_product(
        rules, only=("verdict-is-first-armed-rule",)))
