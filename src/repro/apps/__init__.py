"""The seven evaluation applications of Table IV.

Each application mirrors one of the paper's publicly-available demos
(Seeed LaunchPad kit, OpenSyringePump, ticepd msp430-examples), ported
to the simulated peripherals: a sensing/actuation loop in mini-C with a
deterministic stimulus schedule and a DONE-port hand-off that ends the
measured run.

Helper granularity note: the paper's apps are built with msp430-gcc,
which inlines small static helpers; the mini-C sources here are written
with the post-inlining function structure (few functions, meaningful
call sites), which is what EILIDinst sees in both setups.
"""

from repro.apps.registry import APPS, AppSpec, get_app

__all__ = ["APPS", "AppSpec", "get_app"]
