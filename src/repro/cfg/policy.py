"""CFI policy compilation: RecoveredCfg -> cacheable verifier artifact.

A :class:`CfiPolicy` is the distilled, serialisable form of a recovered
CFG -- exactly what a verifier needs to replay a branch trace:

* ``transfers``       -- every control-transfer instruction address,
  with its kind, static target (direct transfers) and return site
  (calls);
* ``return_sites``    -- the valid return addresses (P1 universe);
* ``indirect_targets``-- the legal indirect-call destinations (P3);
* ``isr_handlers``    -- vector -> handler entry (P2);
* ``code_ranges``     -- executable spans (W-xor-X universe);
* ``halt_address``    -- the ``__halt`` parking address; the device's
  ROM-invocation convention returns there without a matching call
  edge (see :meth:`Device.call_routine`), so the replayer accepts it.

Policies serialise to canonical JSON (``to_json``/``from_json``) and
carry a stable SHA-256 ``digest`` so fleets can cache one artifact per
firmware image.  :func:`diff_against_listing` cross-checks the
binary-derived policy against the instrumenter's listing-derived view
and returns human-readable divergences (empty == the two toolpaths
agree, the Fig. 2 contract holds end to end).
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cfg.recover import CfgError, RecoveredCfg, TransferKind, recover_cfg
from repro.memory.map import NUM_VECTORS
from repro.snapshot import (
    OPTIONAL_INT, state_dict, state_int, state_list, state_rows, state_str,
    state_value)
from repro.toolchain.listing import parse_listing

POLICY_FORMAT = "eilid-cfi-policy/1"

# Transfer kinds as stored in the artifact (enum values).
_KIND_VALUES = {kind.value: kind for kind in TransferKind}


class PolicyError(CfgError, ValueError):
    """A policy document that does not parse: bad JSON, the wrong
    format, or a malformed field.  Still a ``ValueError`` for callers
    that catch that."""


@dataclass(frozen=True)
class Transfer:
    kind: str  # TransferKind value
    target: Optional[int] = None  # static destination, direct transfers
    return_site: Optional[int] = None  # call instructions only


@dataclass(frozen=True)
class CfiPolicy:
    name: str
    entry: int
    transfers: Dict[int, Transfer]
    return_sites: frozenset
    indirect_targets: frozenset
    indirect_from_table: bool
    function_entries: Tuple[Tuple[int, str], ...]  # sorted (addr, name)
    isr_handlers: Dict[int, int]  # vector index -> handler address
    reti_sites: frozenset
    code_ranges: Tuple[Tuple[int, int], ...]
    halt_address: Optional[int]

    # ---- queries used by the replayer -------------------------------------

    def in_code(self, addr: int) -> bool:
        return any(start <= addr <= end for start, end in self.code_ranges)

    @property
    def handler_addresses(self) -> frozenset:
        return frozenset(self.isr_handlers.values())

    # ---- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": POLICY_FORMAT,
            "name": self.name,
            "entry": self.entry,
            "transfers": {
                f"0x{addr:04x}": [t.kind, t.target, t.return_site]
                for addr, t in sorted(self.transfers.items())
            },
            "return_sites": sorted(self.return_sites),
            "indirect_targets": sorted(self.indirect_targets),
            "indirect_from_table": self.indirect_from_table,
            "function_entries": [list(pair) for pair in self.function_entries],
            "isr_handlers": {str(v): h for v, h in sorted(self.isr_handlers.items())},
            "reti_sites": sorted(self.reti_sites),
            "code_ranges": [list(span) for span in self.code_ranges],
            "halt_address": self.halt_address,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @staticmethod
    def from_dict(data: dict) -> "CfiPolicy":
        if not isinstance(data, dict):
            raise PolicyError(f"a policy document must be a JSON object, "
                              f"got {type(data).__name__}")
        if data.get("format") != POLICY_FORMAT:
            raise PolicyError(f"unsupported policy format {data.get('format')!r}")
        try:
            # Transfers as [address, kind, target, return site] rows.
            transfers = [[key, *value] if type(value) is list else value
                         for key, value in state_dict(data, "transfers").items()]
            isr_handlers = state_dict(data, "isr_handlers")
            return CfiPolicy(
                name=state_str(data, "name"),
                entry=state_int(data, "entry"),
                transfers={
                    _index(key, 16, 0x10000, "transfer address"):
                        Transfer(kind, target, return_site)
                    for key, kind, target, return_site in state_rows(
                        {"transfers": transfers}, "transfers", str,
                        set(_KIND_VALUES), OPTIONAL_INT, OPTIONAL_INT)},
                return_sites=frozenset(state_list(data, "return_sites", int)),
                indirect_targets=frozenset(
                    state_list(data, "indirect_targets", int)),
                indirect_from_table=state_value(data, "indirect_from_table",
                                                bool),
                function_entries=tuple(
                    state_rows(data, "function_entries", int, str)),
                isr_handlers={
                    _index(vector, 10, NUM_VECTORS, "ISR vector"):
                        state_int(isr_handlers, vector)
                    for vector in isr_handlers},
                reti_sites=frozenset(state_list(data, "reti_sites", int)),
                code_ranges=tuple(state_rows(data, "code_ranges", int, int)),
                halt_address=state_int(data, "halt_address", optional=True),
            )
        except PolicyError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise PolicyError(f"malformed policy document: {error!r}") from None

    @staticmethod
    def from_json(text: str) -> "CfiPolicy":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise PolicyError(f"policy is not valid JSON: {error}") from None
        return CfiPolicy.from_dict(data)


def _index(key: str, base: int, limit: int, what: str) -> int:
    """A document key as an integer in [0, *limit*), so that it
    survives the policy's own round trip."""
    value = int(key, base)
    if not 0 <= value < limit:
        raise PolicyError(f"{what} {key!r} is outside [0, {limit:#x})")
    return value


def compile_policy(cfg: RecoveredCfg, symbols: Optional[dict] = None) -> CfiPolicy:
    """Serialise a recovered CFG into its verifier policy artifact."""
    transfers: Dict[int, Transfer] = {}
    for addr, decoded in cfg.insns.items():
        if decoded.kind is TransferKind.NONE:
            continue
        return_site = None
        if decoded.kind in (TransferKind.CALL, TransferKind.CALL_INDIRECT):
            return_site = decoded.next_addr
        transfers[addr] = Transfer(decoded.kind.value, decoded.target, return_site)

    halt = None
    if symbols and "__halt" in symbols:
        halt = symbols["__halt"]

    return CfiPolicy(
        name=cfg.name,
        entry=cfg.entry,
        transfers=transfers,
        return_sites=frozenset(cfg.return_sites),
        indirect_targets=frozenset(cfg.indirect_targets),
        indirect_from_table=cfg.indirect_targets_registered,
        function_entries=tuple(sorted(cfg.function_entries.items())),
        # Vector 15 is the reset vector, not an interrupt: a recorded
        # irq edge may never claim it as its handler.
        isr_handlers={v: h for v, h in cfg.vectors.items() if v != 15},
        reti_sites=frozenset(cfg.reti_sites),
        code_ranges=cfg.code_ranges,
        halt_address=halt,
    )


def policy_for_program(program, name: Optional[str] = None) -> CfiPolicy:
    """One-call convenience: recover the CFG and compile its policy."""
    return compile_policy(recover_cfg(program, name=name), symbols=program.symbols)


# ---------------------------------------------------------------------------
# Cross-check against the instrumenter's listing-derived view
# ---------------------------------------------------------------------------


def listing_view(listing_text: str, store_ind_symbol: str = "NS_EILID_store_ind"):
    """The (return_sites, indirect_targets) pair the *listing* implies.

    This is the instrumenter's world view: return addresses are "the
    address of the instruction after each call" (paper Sec. IV-A), and
    the indirect-target set is whatever the inserted registration pairs
    (``mov #f, r6`` / ``call #NS_EILID_store_ind``) load at ``main``.
    """
    listing = parse_listing(listing_text)
    return_sites = set()
    registrations: List[int] = []
    pending_mov_value = None
    pending_mov_addr = None
    for entry in listing.instructions():
        text = entry.text
        if text.startswith("call"):
            return_sites.add(listing.next_address(entry.addr))
            if (
                entry.note == store_ind_symbol
                and pending_mov_addr is not None
                and pending_mov_addr + _entry_size(listing, pending_mov_addr)
                == entry.addr
            ):
                registrations.append(pending_mov_value)
        if text.startswith("mov #") and text.endswith(", r6"):
            value = text[len("mov #"):-len(", r6")]
            try:
                pending_mov_value = int(value, 0) & 0xFFFF
                pending_mov_addr = entry.addr
            except ValueError:
                pending_mov_value = pending_mov_addr = None
        elif not text.startswith("call"):
            pending_mov_value = pending_mov_addr = None
    return return_sites, registrations


def _entry_size(listing, addr):
    return listing.by_addr[addr].size


def diff_against_listing(policy: CfiPolicy, listing_text: str) -> List[str]:
    """Divergences between the binary-derived policy and the listing.

    Empty list == the CFG recovery and the instrumenter/listing agree
    on every protected return site and every indirect-call target.
    """
    lst_returns, lst_registrations = listing_view(listing_text)
    divergences: List[str] = []

    missing = sorted(lst_returns - policy.return_sites)
    extra = sorted(policy.return_sites - lst_returns)
    for addr in missing:
        divergences.append(f"return site 0x{addr:04x} in listing but not in CFG")
    for addr in extra:
        divergences.append(f"return site 0x{addr:04x} in CFG but not in listing")

    if lst_registrations:
        lst_targets = set(lst_registrations)
        if not policy.indirect_from_table:
            divergences.append(
                "listing registers an indirect-call table but the CFG found none"
            )
        else:
            for addr in sorted(lst_targets - policy.indirect_targets):
                divergences.append(
                    f"indirect target 0x{addr:04x} registered in listing, "
                    "missing from CFG policy"
                )
            for addr in sorted(policy.indirect_targets - lst_targets):
                divergences.append(
                    f"indirect target 0x{addr:04x} in CFG policy, "
                    "never registered in listing"
                )
    elif policy.indirect_from_table:
        divergences.append(
            "CFG found indirect-call table registrations the listing lacks"
        )
    return divergences
