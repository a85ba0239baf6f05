"""CASU substrate: the active Root-of-Trust EILID builds on.

CASU (Compromise Avoidance via Secure Update, ICCAD'22) is a hybrid
hardware/software RoT that makes deployed software immutable: program
memory writes are blocked outside an authenticated update, data memory
never executes (W xor X), and the trusted ROM is atomic (single entry,
single exit, no interrupts inside).  Any violation resets the MCU.

This package models the CASU hardware as per-cycle rules over the
CPU's bus signals (:mod:`repro.casu.monitor`), the
authenticated update protocol (:mod:`repro.casu.update`), and a
structural hardware cost model used for the Fig. 10 reproduction
(:mod:`repro.casu.hwmodel`).
"""

from repro.casu.monitor import (
    HardwareMonitor,
    MonitorPolicy,
    RomConfig,
    Violation,
    ViolationReason,
)
from repro.casu.update import UpdateEngine, UpdateKey, UpdatePackage, UpdateResult
from repro.casu.hwmodel import HardwareCostModel

__all__ = [
    "HardwareMonitor",
    "MonitorPolicy",
    "RomConfig",
    "Violation",
    "ViolationReason",
    "UpdateEngine",
    "UpdateKey",
    "UpdatePackage",
    "UpdateResult",
    "HardwareCostModel",
]
