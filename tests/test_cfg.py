"""CFG recovery, CFI policy compilation, and trace attestation.

The acceptance spine:

* the binary-derived policy matches the instrumenter/listing-derived
  view (return sites + indirect targets) on every Table IV app;
* trace replay accepts every benign Table IV run (both variants) and
  rejects every attack scenario (rop, indirect, injection, isr);
* a trace-verifying fleet rollout quarantines a device with a forged
  trace while leaving the healthy fleet active.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import APPS, TABLE_IV_ORDER
from repro.cfg import (
    BranchTraceRecorder,
    CfiPolicy,
    PolicyError,
    TraceReplayer,
    TransferKind,
    diff_against_listing,
    fold_edges,
    policy_for_program,
    recover_cfg,
    replay_trace,
)
from repro.device import build_device
from repro.errors import ReproError
from repro.fleet import CampaignConfig, FleetSimulation, Lifecycle


@pytest.fixture(scope="module")
def app_cfgs(app_builds):
    """{name: (variant, build, RecoveredCfg, CfiPolicy)} for both variants."""
    out = {}
    for name, (original, eilid) in app_builds.items():
        entries = []
        for variant, build in (("original", original), ("eilid", eilid.final)):
            cfg = recover_cfg(build.program)
            policy = policy_for_program(build.program)
            entries.append((variant, build, cfg, policy))
        out[name] = entries
    return out


# ---- recovery ---------------------------------------------------------------


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
class TestRecovery:
    def test_sweep_is_clean(self, name, app_cfgs):
        for _variant, _build, cfg, _policy in app_cfgs[name]:
            assert cfg.undecodable == (), \
                f"non-instruction words in executable sections: {cfg.undecodable}"

    def test_entry_and_main_are_functions(self, name, app_cfgs):
        for _variant, build, cfg, _policy in app_cfgs[name]:
            assert cfg.entry == build.program.entry
            names = {f.name for f in cfg.functions.values()}
            assert "__start" in names and "main" in names

    def test_blocks_partition_instructions(self, name, app_cfgs):
        for _variant, _build, cfg, _policy in app_cfgs[name]:
            covered = set()
            for func in cfg.functions.values():
                for block in func.blocks.values():
                    for decoded in block.insns:
                        assert decoded.addr not in covered, \
                            f"instruction 0x{decoded.addr:04x} in two blocks"
                        covered.add(decoded.addr)
            assert covered == set(cfg.insns)

    def test_block_successors_are_block_starts(self, name, app_cfgs):
        for _variant, _build, cfg, _policy in app_cfgs[name]:
            starts = {b.start for f in cfg.functions.values()
                      for b in f.blocks.values()}
            for func in cfg.functions.values():
                for block in func.blocks.values():
                    for succ in block.successors:
                        assert succ in starts or succ in cfg.insns

    def test_call_graph_reaches_main(self, name, app_cfgs):
        for _variant, _build, cfg, _policy in app_cfgs[name]:
            assert "main" in cfg.call_graph["__start"]

    def test_eilid_calls_the_shims(self, name, app_cfgs):
        _variant, _build, cfg, _policy = app_cfgs[name][1]
        callees = set()
        for targets in cfg.call_graph.values():
            callees |= targets
        assert any(c.startswith("NS_EILID_") for c in callees)


# ---- policy compilation + cross-check (acceptance criterion) ---------------


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
class TestPolicyCrossCheck:
    def test_policy_matches_listing_view(self, name, app_cfgs):
        """Binary-derived == listing-derived, for BOTH build variants."""
        for variant, build, _cfg, policy in app_cfgs[name]:
            divergences = diff_against_listing(policy, build.listing)
            assert divergences == [], f"{name}/{variant}: {divergences}"

    def test_indirect_targets_match_instrumenter_report(self, name,
                                                        app_builds, app_cfgs):
        """The CFG's registration scan recovers exactly the table the
        instrumenter registered (paper P3)."""
        _original, eilid = app_builds[name]
        _variant, _build, cfg, policy = app_cfgs[name][1]
        report = eilid.report
        if not report.table_registrations:
            assert not cfg.indirect_targets_registered
            return
        registered = {addr for _fname, addr in report.functions}
        assert cfg.indirect_targets_registered
        assert set(policy.indirect_targets) == registered

    def test_return_sites_cover_instrumented_calls(self, name, app_cfgs):
        _variant, _build, cfg, policy = app_cfgs[name][1]
        assert len(policy.return_sites) == len(
            {s.return_addr for s in cfg.call_sites})
        assert policy.return_sites


class TestPolicyArtifact:
    def test_json_roundtrip_preserves_digest(self, app_cfgs):
        _variant, _build, _cfg, policy = app_cfgs["fire_sensor"][1]
        clone = CfiPolicy.from_json(policy.to_json())
        assert clone.digest == policy.digest
        assert clone.return_sites == policy.return_sites
        assert clone.indirect_targets == policy.indirect_targets
        assert clone.transfers == policy.transfers

    def test_digest_is_stable_and_content_bound(self, app_cfgs):
        _variant, _build, _cfg, p_fire = app_cfgs["fire_sensor"][1]
        _variant, _build, _cfg, p_light = app_cfgs["light_sensor"][1]
        assert p_fire.digest == p_fire.digest
        assert p_fire.digest != p_light.digest

    def test_format_guard(self):
        with pytest.raises(ValueError):
            CfiPolicy.from_dict({"format": "something-else"})

    @pytest.mark.parametrize("text", [
        "{",  # was JSONDecodeError
        "[]",  # was AttributeError
        "5",  # was AttributeError
        '{"x": 1}',  # was a bare ValueError
        '{"format": "eilid-cfi-policy/1"}',  # was KeyError
    ])
    def test_malformed_policy_json_raises_policy_error(self, text):
        with pytest.raises(PolicyError) as excinfo:
            CfiPolicy.from_json(text)
        assert isinstance(excinfo.value, ReproError)


# ---- policy documents with wrongly typed items ------------------------------

# One wrong value per JSON type, and out-of-range integers.
WRONG_VALUES = [None, "x", -1, [], {}, 1.5, True, 2 ** 40]
# Keys of the transfer and ISR tables: negative, past the address space
# or the vector table, and not a number.
WRONG_KEYS = ["-1", "-3", "0x10000", "16", "x", "", "1.5"]


@pytest.fixture(scope="module")
def light_policy(app_cfgs):
    """light_sensor's EILID policy as a document, and a trace of a run."""
    _variant, build, _cfg, policy = app_cfgs["light_sensor"][1]
    device = build_device(build.program, security="eilid",
                          peripherals=APPS["light_sensor"].make_peripherals())
    device.run(max_cycles=APPS["light_sensor"].max_cycles)
    return policy.to_dict(), device.trace_snapshot()


def _leaves(node, path=()):
    """Paths to every leaf of a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _with_leaf(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _table_keys(doc):
    """The key of every entry of the document's keyed tables."""
    return [(field, key) for field in ("transfers", "isr_handlers")
            for key in doc[field]]


def _with_key(doc, field, key, new_key):
    doc = json.loads(json.dumps(doc))
    doc[field][new_key] = doc[field].pop(key)
    return doc


class TestPolicyItemTypes:
    # Each was adopted and then raised a bare TypeError in replay
    # (isr_handlers, code_ranges) or in to_json/digest (the sets).
    @pytest.mark.parametrize("field,inner", [
        ("isr_handlers", ()),  # a handler address
        ("code_ranges", (1,)),  # the end of a range
        ("return_sites", ()),
        ("indirect_targets", ()),
    ])
    def test_wrongly_typed_item_raises_policy_error(self, light_policy,
                                                    field, inner):
        doc, _trace = light_policy
        items = doc[field]
        assert items
        first = next(iter(items)) if isinstance(items, dict) else 0
        with pytest.raises(PolicyError):
            CfiPolicy.from_dict(_with_leaf(doc, (field, first, *inner), None))

    @pytest.mark.parametrize("field,key", [
        ("transfers", "-1"),  # written back as 0x-001, which did not parse
        ("isr_handlers", "-3"),
    ])
    def test_out_of_range_key_raises_policy_error(self, light_policy, field,
                                                  key):
        doc, _trace = light_policy
        with pytest.raises(PolicyError, match=repr(key)):
            CfiPolicy.from_dict(_with_key(doc, field, next(iter(doc[field])),
                                          key))

    def test_every_single_leaf_mutant_is_rejected_or_usable(self, light_policy):
        """A document with one leaf, or one table key, replaced is
        rejected, or it survives its own round trip and replays."""
        doc, trace = light_policy
        paths = [path for path in _leaves(doc) if path != ("format",)]
        mutants = st.one_of(
            st.builds(lambda path, value: _with_leaf(doc, path, value),
                      st.sampled_from(paths), st.sampled_from(WRONG_VALUES)),
            st.builds(lambda entry, key: _with_key(doc, *entry, key),
                      st.sampled_from(_table_keys(doc)),
                      st.sampled_from(WRONG_KEYS)))

        @settings(max_examples=400, derandomize=True, database=None,
                  deadline=None)
        @given(mutant=mutants)
        def mutant_is_rejected_or_usable(mutant):
            try:
                policy = CfiPolicy.from_dict(mutant)
            except PolicyError:
                return
            assert CfiPolicy.from_json(policy.to_json()).digest == \
                policy.digest
            try:  # what a verifier does with an adopted policy
                replay_trace(policy, trace)
                assert policy.digest  # serialises it with to_json()
            except ReproError:
                pass

        mutant_is_rejected_or_usable()


# ---- trace recording --------------------------------------------------------


class TestTraceRecorder:
    def test_ring_bounds_and_drop_counter(self):
        recorder = BranchTraceRecorder(capacity=8)
        for index in range(20):
            recorder.record_edge(index, index + 1, "jump")
        assert len(recorder) == 8
        assert recorder.dropped == 12
        assert recorder.total == 20
        snapshot = recorder.snapshot()
        assert snapshot.windowed and snapshot.consistent()
        assert [src for src, _dst, _k in snapshot.edges] == list(range(12, 20))

    def test_snapshot_chain_verifies_from_prefix(self):
        recorder = BranchTraceRecorder(capacity=4)
        for index in range(9):
            recorder.record_edge(index, index * 2, "call")
        snapshot = recorder.snapshot()
        assert fold_edges(snapshot.prefix_digest, snapshot.edges) == snapshot.digest

    def test_injected_edge_breaks_the_chain(self):
        recorder = BranchTraceRecorder(capacity=16)
        recorder.record_edge(0xE000, 0xE010, "call")
        recorder.inject_edge(0xE010, 0xE020, "jump")
        assert not recorder.snapshot().consistent()

    def test_tampered_window_breaks_the_chain(self):
        recorder = BranchTraceRecorder(capacity=16)
        for index in range(5):
            recorder.record_edge(index, index + 2, "jump")
        snapshot = recorder.snapshot()
        edges = list(snapshot.edges)
        edges[2] = (edges[2][0], 0xDEAD, edges[2][2])
        assert fold_edges(snapshot.prefix_digest, tuple(edges)) != snapshot.digest

    def test_device_records_taken_edges_only(self, app_builds):
        original, _eilid = app_builds["light_sensor"]
        device = build_device(original.program, security="none",
                              peripherals=APPS["light_sensor"].make_peripherals())
        result = device.run(max_cycles=50_000)
        snapshot = device.trace_snapshot()
        assert snapshot.total > 0
        assert snapshot.total < result.steps  # straight-line steps are free
        assert snapshot.consistent()


# ---- trace replay -----------------------------------------------------------


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_benign_runs_replay_ok(name, app_runs, app_builds):
    """Acceptance: replay accepts all benign Table IV runs."""
    (dev0, res0), (dev1, res1) = app_runs[name]
    original, eilid = app_builds[name]
    for device, result, build in ((dev0, res0, original),
                                  (dev1, res1, eilid.final)):
        assert result.done
        policy = policy_for_program(build.program)
        verdict = replay_trace(policy, device.trace_snapshot())
        assert verdict.ok, f"{name}: {verdict}"


ATTACKS = ("return_address_smash", "pointer_hijack", "code_injection",
           "interrupt_context_tamper")


@pytest.mark.parametrize("attack_name", ATTACKS)
def test_attack_traces_are_rejected(attack_name):
    """Acceptance: replay rejects rop, indirect, injection and isr.

    Run against the undefended baseline so the hijack actually executes
    -- the verifier's replay is then the *only* line of defence, and it
    must fire.
    """
    import repro.attacks as attacks

    result = getattr(attacks, attack_name)("none")
    assert result.outcome is attacks.AttackOutcome.HIJACKED
    policy = policy_for_program(result.device.program)
    verdict = replay_trace(policy, result.device.trace_snapshot())
    assert not verdict.ok, f"{attack_name}: hijack trace replayed clean"
    assert verdict.failed_edge is not None


def test_eilid_defended_attack_leaves_clean_trace_and_violation_log():
    """On an EILID device the shadow-stack check fires *before* the
    corrupted address ever becomes control flow, so the trace replays
    clean -- the evidence lives in the violation log instead.  Trace
    replay and device-side enforcement are complementary, not
    redundant."""
    import repro.attacks as attacks

    result = attacks.return_address_smash("eilid")
    assert result.outcome is attacks.AttackOutcome.RESET
    policy = policy_for_program(result.device.program)
    verdict = replay_trace(policy, result.device.trace_snapshot())
    assert verdict.ok
    report = result.device.attestation_report()
    assert report.violation_reasons  # the verifier still sees the attack


def test_bend_to_valid_function_replays_clean_under_table_policy():
    """Function-level forward-edge CFI admits bends to registered
    entries (paper Sec. IV-A); the replayer reproduces that stance."""
    import repro.attacks as attacks

    result = attacks.pointer_bend_to_valid_function("eilid")
    assert result.outcome is attacks.AttackOutcome.ALLOWED
    policy = policy_for_program(result.device.program)
    assert policy.indirect_from_table
    verdict = replay_trace(policy, result.device.trace_snapshot())
    assert verdict.ok


def test_replayer_rejects_fabricated_edges(app_cfgs):
    _variant, _build, cfg, policy = app_cfgs["light_sensor"][1]
    replayer = TraceReplayer(policy)
    # A "jump" from an address that holds no control transfer at all.
    plain = next(a for a, d in sorted(cfg.insns.items())
                 if d.kind is TransferKind.NONE)
    verdict = replayer.replay_edges([(plain, policy.entry, "jump")])
    assert not verdict.ok
    # A direct jump diverted off its encoded target.
    jump = next(d for _a, d in sorted(cfg.insns.items())
                if d.kind is TransferKind.JUMP and d.target is not None)
    verdict = replayer.replay_edges([(jump.addr, (jump.target + 4) & 0xFFFF,
                                      "jump")])
    assert not verdict.ok
    # An interrupt entry into something that is not an IVT handler.
    verdict = replayer.replay_edges([(policy.entry, policy.entry, "irq")])
    assert not verdict.ok


def test_strict_vs_windowed_return_handling(app_cfgs):
    _variant, _build, _cfg, policy = app_cfgs["light_sensor"][1]
    replayer = TraceReplayer(policy)
    site = next(iter(policy.return_sites))
    ret_addr = next(a for a, t in policy.transfers.items() if t.kind == "ret")
    edge = [(ret_addr, site, "ret")]
    assert not replayer.replay_edges(edge, windowed=False).ok
    assert replayer.replay_edges(edge, windowed=True).ok
    # Even windowed, an underflowed return must land on a return site.
    bad = [(ret_addr, policy.entry, "ret")]
    assert not replayer.replay_edges(bad, windowed=True).ok


# ---- device bounds (satellite) ---------------------------------------------


class TestBoundedEvidence:
    def test_device_events_are_bounded(self, app_builds):
        original, _eilid = app_builds["light_sensor"]
        device = build_device(original.program, security="none",
                              max_events=16)
        for _ in range(50):
            device.hard_reset()
        assert len(device.events) == 16
        assert device.events_dropped == 34
        assert device.reset_count == 50

    def test_trace_capacity_is_configurable(self, app_builds):
        original, _eilid = app_builds["light_sensor"]
        device = build_device(original.program, security="none",
                              peripherals=APPS["light_sensor"].make_peripherals(),
                              trace_capacity=32)
        device.run(max_cycles=50_000)
        snapshot = device.trace_snapshot()
        assert len(snapshot.edges) == 32
        assert snapshot.dropped == snapshot.total - 32
        assert snapshot.consistent()

    def test_trace_recording_can_be_disabled(self, app_builds):
        original, _eilid = app_builds["light_sensor"]
        device = build_device(original.program, security="none",
                              peripherals=APPS["light_sensor"].make_peripherals(),
                              trace_capacity=0)
        assert device.trace is None
        assert device.cpu.trace_sink is None  # hot path stays hook-free
        result = device.run(max_cycles=50_000)
        assert result.done
        snapshot = device.trace_snapshot()
        assert snapshot.total == 0 and snapshot.consistent()
        report = device.attestation_report()
        assert report.trace_edges == 0


# ---- fleet integration ------------------------------------------------------


class TestFleetTraceAttestation:
    def test_healthy_fleet_attests_with_trace_verification(self):
        fleet = FleetSimulation(size=8, verify_traces=True)
        fleet.run_all(max_cycles=2_000)
        results = fleet.attest_all()
        assert all(r.ok for r in results.values())

    def test_forged_trace_quarantined_on_attest(self):
        fleet = FleetSimulation(size=6, verify_traces=True)
        fleet.run_all(max_cycles=1_000)
        fleet.forge_trace("dev-00003")
        results = fleet.attest_all()
        assert not results["dev-00003"].ok
        assert results["dev-00003"].detail == "trace-forged"
        assert fleet.registry.get("dev-00003").state is Lifecycle.QUARANTINED
        others = [r for device_id, r in results.items()
                  if device_id != "dev-00003"]
        assert all(r.ok for r in others)

    def test_rollout_quarantines_forged_trace_device(self):
        """Acceptance: a fleet rollout quarantines a forged-trace device."""
        fleet = FleetSimulation(size=30, verify_traces=True)
        fleet.run_all(max_cycles=1_000)
        fleet.forge_trace("dev-00012")
        report = fleet.rollout(version=1, config=CampaignConfig(
            verify_after_wave=True, failure_threshold=0.5))
        assert fleet.registry.get("dev-00012").state is Lifecycle.QUARANTINED
        assert report.failed == 1
        active = [r for r in fleet.registry if r.device_id != "dev-00012"]
        assert all(r.state is Lifecycle.ACTIVE for r in active)
        assert any("verify:trace-forged" in wave.statuses
                   for wave in report.waves)

    def test_trace_check_off_by_default(self):
        fleet = FleetSimulation(size=3)
        fleet.forge_trace("dev-00001")
        results = fleet.attest_all()
        assert all(r.ok for r in results.values())

    def test_stripped_trace_window_is_caught(self):
        """A compromised OS that ships an empty-but-self-consistent
        window (prefix == digest, counters zeroed) must not slip past:
        the MAC'd report's trace_edges/trace_dropped bind the counters."""
        from repro.cfg.trace import TraceSnapshot

        fleet = FleetSimulation(size=3, verify_traces=True)
        fleet.run_all(max_cycles=1_000)
        device = fleet.devices["dev-00001"]
        real = device.trace_snapshot()
        assert real.total > 0
        stripped = TraceSnapshot(edges=(), prefix_digest=real.digest,
                                 digest=real.digest, total=0, dropped=0,
                                 capacity=real.capacity)
        assert stripped.consistent()  # the forgery folds cleanly...
        device.trace_snapshot = lambda: stripped  # agent-side override
        results = fleet.attest_all()
        assert results["dev-00001"].detail == "trace-forged"  # ...but is caught
        assert fleet.registry.get("dev-00001").state is Lifecycle.QUARANTINED

    def test_inflated_drop_counter_is_caught(self):
        """Claiming extra drops would downgrade replay to lenient
        windowed mode; the MAC'd trace_dropped forbids it."""
        from dataclasses import replace

        fleet = FleetSimulation(size=2, verify_traces=True)
        fleet.run_all(max_cycles=1_000)
        device = fleet.devices["dev-00000"]
        real = device.trace_snapshot()
        trimmed = replace(real, edges=real.edges[2:],
                          prefix_digest=fold_edges(real.prefix_digest,
                                                   real.edges[:2]),
                          dropped=real.dropped + 2)
        assert trimmed.consistent()
        device.trace_snapshot = lambda: trimmed
        results = fleet.attest_all()
        assert results["dev-00000"].detail == "trace-forged"


def test_telemetry_totals_survive_event_ring_eviction():
    """Cumulative per-reason totals keep fleet telemetry exact even
    after the device's bounded event ring starts evicting."""
    from repro.eilid.trusted_sw import AttestationReport
    from repro.fleet.protocol import AttestResult
    from repro.fleet.telemetry import FleetTelemetry

    telemetry = FleetTelemetry()

    def heartbeat(count):
        report = AttestationReport(
            firmware_hash="h", firmware_version=0, reset_count=count,
            violation_reasons=("w-xor-x",) * min(count, 4),  # ring-bounded
            cycle=0, violation_count=count,
            violation_totals=(f"w-xor-x={count}",))
        telemetry.record_attest("dev", AttestResult(True, report=report,
                                                    attempts=1))

    for count in (3, 500, 2000):
        heartbeat(count)
    assert telemetry.violations["w-xor-x"] == 2000
    assert telemetry.resets == 2000


# ---- CLI --------------------------------------------------------------------


class TestCfgCli:
    def test_version_flag(self, capsys):
        import repro
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_cfg_build_and_diff(self, capsys):
        from repro.cli import main

        assert main(["cfg", "build", "light_sensor"]) == 0
        out = capsys.readouterr().out
        assert "policy digest:" in out and "main" in out
        assert main(["cfg", "diff", "light_sensor"]) == 0
        assert "matches" in capsys.readouterr().out

    def test_cfg_build_json_is_loadable(self, capsys):
        from repro.cli import main

        assert main(["cfg", "build", "light_sensor", "--json"]) == 0
        policy = CfiPolicy.from_json(capsys.readouterr().out)
        assert policy.return_sites

    def test_cfg_build_reports_registered_call_table(self, capsys):
        # The eilid build carries the EILID call table, so the policy's
        # indirect targets are registered (not a discovery fallback).
        from repro.cli import main

        assert main(["cfg", "build", "fire_sensor"]) == 0
        out = capsys.readouterr().out
        assert "indirect targets registered: True" in out
        assert "EILID call table" in out

        assert main(["cfg", "build", "fire_sensor", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["indirect_targets_registered"] is True
        assert doc["indirect_target_count"] == len(doc["indirect_targets"])
        assert doc["indirect_target_count"] > 0

    def test_cfg_build_reports_unregistered_fallback(self, capsys):
        # An uninstrumented build has no call table: the policy falls
        # back to every discovered entry and must say so loudly.
        from repro.cli import main

        assert main(["cfg", "build", "fire_sensor",
                     "--variant", "original"]) == 0
        out = capsys.readouterr().out
        assert "indirect targets registered: False" in out
        assert "UNREGISTERED fallback" in out

        assert main(["cfg", "build", "fire_sensor",
                     "--variant", "original", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["indirect_targets_registered"] is False
        assert doc["indirect_target_count"] == len(doc["indirect_targets"])

    def test_cfg_verify_trace_exit_codes(self, capsys):
        from repro.cli import main

        assert main(["cfg", "verify-trace", "light_sensor"]) == 0
        assert main(["cfg", "verify-trace", "--attack",
                     "return_address_smash"]) == 2

    def test_cfg_unknown_app_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["cfg", "build", "nonsense"]) == 1
