"""Fleet: the verifier/operator side of EILID.

Everything below the wire in this repo -- CASU's active RoT, the EILID
shadow-stack bank, the authenticated update -- models ONE device.  This
package models the other end of the deployment story: a verifier that
provisions per-device keys, collects authenticated attestation reports
(firmware hash + CFI-violation log), pushes signed firmware in staged
waves, and reacts to rejections across a population of thousands of
simulated devices.

* :mod:`repro.fleet.registry`   -- device records and lifecycle states.
* :mod:`repro.fleet.store`      -- durable registry state (memory /
  JSON-lines / SQLite backends, one codec).
* :mod:`repro.fleet.transport`  -- simulated lossy/reordering links.
* :mod:`repro.fleet.protocol`   -- authenticated verifier<->device messages.
* :mod:`repro.fleet.campaign`   -- staged-rollout engine (waves, halt,
  resume), offering to each device in turn on the caller's thread.
* :mod:`repro.fleet.simulation` -- N devices + agents + links in one object;
  its ``status()`` folds the event log (:mod:`repro.obs.events`).
"""

from repro.fleet.campaign import (
    CampaignConfig,
    CampaignReport,
    CampaignStatus,
    RolloutCampaign,
    WaveResult,
)
from repro.fleet.protocol import DeviceAgent, MsgKind, OfferResult, VerifierSession
from repro.fleet.registry import DeviceRecord, FleetRegistry, Lifecycle
from repro.fleet.simulation import FleetSimulation
from repro.fleet.store import (
    JsonlStore,
    MemoryStore,
    RegistryStore,
    SqliteStore,
    open_store,
    record_from_dict,
    record_to_dict,
)
from repro.fleet.transport import Envelope, Link, SimChannel, Transport

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CampaignStatus",
    "DeviceAgent",
    "DeviceRecord",
    "Envelope",
    "FleetRegistry",
    "FleetSimulation",
    "JsonlStore",
    "Lifecycle",
    "Link",
    "MemoryStore",
    "MsgKind",
    "OfferResult",
    "RegistryStore",
    "RolloutCampaign",
    "SimChannel",
    "SqliteStore",
    "Transport",
    "VerifierSession",
    "WaveResult",
    "open_store",
    "record_from_dict",
    "record_to_dict",
]
