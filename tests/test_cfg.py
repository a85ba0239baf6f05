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
import tracemalloc
from collections import deque
from dataclasses import replace

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
from repro.cfg.trace import (
    EDGE_KIND_CODES,
    FNV_OFFSET,
    TraceSnapshot,
    chain_edge,
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

    def test_ring_keeps_what_a_plain_ring_of_chained_entries_keeps(self):
        """The shared-edge ring and its chain column hold exactly the
        state of a plain ring of ``(src, dst, kind, chain_after)``
        entries, through evictions, compactions, injected edges and
        JSON restores."""
        steps = st.lists(st.tuples(
            st.sampled_from(("record", "record", "inject", "restore")),
            st.integers(0, 3), st.integers(0, 3),
            st.sampled_from(sorted(EDGE_KIND_CODES))), max_size=60)

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(capacity=st.integers(1, 5), steps=steps)
        def check(capacity, steps):
            recorder = BranchTraceRecorder(capacity=capacity)
            plain = deque(maxlen=capacity)
            prefix = digest = FNV_OFFSET
            total = dropped = 0
            for op, src, dst, kind in steps:
                if op == "record":
                    recorder.record_edge(src, dst, kind)
                    if len(plain) == capacity:
                        prefix = plain[0][3]
                        dropped += 1
                    digest = chain_edge(digest, src, dst, kind)
                    plain.append((src, dst, kind, digest))
                    total += 1
                elif op == "inject":
                    recorder.inject_edge(src, dst, kind)
                    plain.append((src, dst, kind, digest))
                    total += 1
                else:
                    doc = json.loads(json.dumps(recorder.snapshot_state()))
                    recorder = BranchTraceRecorder(capacity=capacity)
                    recorder.restore_state(doc)
                assert recorder.snapshot_state() == {
                    "edges": [list(entry) for entry in plain],
                    "digest": digest, "prefix": prefix, "total": total,
                    "dropped": dropped, "capacity": capacity}
                assert recorder.snapshot() == TraceSnapshot(
                    edges=tuple(entry[:3] for entry in plain),
                    prefix_digest=prefix, digest=digest, total=total,
                    dropped=dropped, capacity=capacity)

        check()

    def test_repeated_edges_cost_no_new_objects(self):
        """A loop's edges, recorded again and again, share one tuple per
        distinct edge, so the ring's memory is its column, not objects
        per edge."""
        loop = [(0xE000 + 8 * index, 0xE100 + 8 * index, "jump")
                for index in range(8)]
        recorder = BranchTraceRecorder(capacity=4096)
        tracemalloc.start()
        try:
            for _ in range(500):
                for src, dst, kind in loop:
                    # Fresh int objects, as the CPU's StepRecords carry.
                    recorder.record_edge(int(str(src)), int(str(dst)), kind)
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(recorder) == 4000
        assert len({id(edge) for edge in recorder.snapshot().edges}) == 8
        # A deque slot and a column word per entry, ~64 KB for 4000; a
        # new tuple per edge, holding new ints, retained ~0.7 MB.
        assert retained < 100_000

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


def test_replay_checks_the_window_against_its_counters(app_cfgs, light_policy):
    # The window binding lives in TraceSnapshot.consistent(), so every
    # replay path applies it, not only the fleet protocol.
    _variant, _build, _cfg, policy = app_cfgs["light_sensor"][1]
    _doc, trace = light_policy
    assert trace.total and not trace.dropped and replay_trace(policy, trace).ok
    # Emptied to no edges, posing as a window that starts at the end.
    emptied = replace(trace, edges=(), prefix_digest=trace.digest)
    # A whole trace whose chain starts anywhere but the empty chain.
    prefix = chain_edge(FNV_OFFSET, *trace.edges[0])
    rebased = replace(trace, prefix_digest=prefix,
                      digest=fold_edges(prefix, trace.edges))
    for forged in (emptied, rebased):
        assert fold_edges(forged.prefix_digest, forged.edges) == forged.digest
        assert not forged.consistent()
        assert not replay_trace(policy, forged).ok


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
        # The forgery folds cleanly...
        assert fold_edges(stripped.prefix_digest, stripped.edges) \
            == stripped.digest
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
        assert real.edges
        # Claim the window's first edge was dropped: the window is then
        # a consistent window of its forged counters, so only the MAC'd
        # trace_dropped can catch it.
        trimmed = replace(real, edges=real.edges[1:],
                          prefix_digest=fold_edges(real.prefix_digest,
                                                   real.edges[:1]),
                          dropped=real.dropped + 1)
        assert trimmed.consistent()
        device.trace_snapshot = lambda: trimmed
        results = fleet.attest_all()
        assert results["dev-00000"].detail == "trace-forged"

    def test_emptied_trace_window_is_caught(self):
        """An emptied window -- no edges, the digest as its prefix, the
        counters untouched -- folds cleanly and matches every MAC'd
        counter; its length must match them too."""
        fleet = FleetSimulation(size=3, verify_traces=True)
        fleet.run_all(max_cycles=1_000)
        device = fleet.devices["dev-00001"]
        real = device.trace_snapshot()
        assert real.total > 0
        emptied = replace(real, edges=(), prefix_digest=real.digest)
        # The forgery folds cleanly...
        assert fold_edges(emptied.prefix_digest, emptied.edges) \
            == emptied.digest
        device.trace_snapshot = lambda: emptied
        results = fleet.attest_all()
        assert results["dev-00001"].detail == "trace-forged"  # ...but is caught
        assert fleet.registry.get("dev-00001").state is Lifecycle.QUARANTINED

    def test_window_that_lost_no_edges_folds_from_the_empty_chain(self):
        """FNV-1a's step is a bijection, so any window of the right
        length can be given a prefix that folds it to the MAC'd digest.
        A window that lost no edges must start at the empty chain."""
        fleet = FleetSimulation(size=2, verify_traces=True)
        fleet.run_all(max_cycles=1_000)
        device = fleet.devices["dev-00000"]
        benign = device.trace_snapshot().edges[-1]
        # A hijack into RAM that the device-side monitor missed.
        device.trace.record_edge(benign[0], 0x0200, benign[2])
        honest = device.trace_snapshot()
        assert honest.dropped == 0
        assert fleet.attest_all()["dev-00000"].detail.startswith(
            "trace-replay:")
        # Swap the hijack for a benign edge and invert the prefix.
        edges = honest.edges[:-1] + (benign,)
        forged = replace(honest, edges=edges,
                         prefix_digest=_unfold(honest.digest, edges))
        assert fold_edges(forged.prefix_digest, forged.edges) == forged.digest
        device.trace_snapshot = lambda: forged
        assert fleet.attest_all()["dev-00000"].detail == "trace-forged"

    @pytest.mark.parametrize("forge", [
        lambda real: replace(real, edges=None),
        lambda real: replace(real, edges=(real.edges[0][:2],)
                             + real.edges[1:]),
        lambda real: replace(real, edges=((hex(real.edges[0][0]),)
                                          + real.edges[0][1:],)
                             + real.edges[1:]),
        lambda real: dict(vars(real)),
    ], ids=["edges-none", "two-field-edge", "str-address", "not-a-snapshot"])
    def test_malformed_window_is_forged(self, forge):
        """A window that is not even well formed quarantines its device
        like any forgery, and the sweep goes on to the next device."""
        fleet = FleetSimulation(size=3, verify_traces=True)
        fleet.run_all(max_cycles=1_000)
        device = fleet.devices["dev-00000"]
        forged = forge(device.trace_snapshot())
        device.trace_snapshot = lambda: forged
        results = fleet.attest_all()
        assert results["dev-00000"].detail == "trace-forged"
        assert fleet.registry.get("dev-00000").state is Lifecycle.QUARANTINED
        assert results["dev-00001"].ok and results["dev-00002"].ok

    def test_every_malformed_window_is_forged(self):
        """Whatever shape the unauthenticated window arrives in, the
        trace check raises nothing: the verdict is trace-forged and the
        sweep attests the next device."""
        fleet = FleetSimulation(size=2, verify_traces=True)
        fleet.run_all(max_cycles=1_000)
        device = fleet.devices["dev-00000"]
        real = device.trace_snapshot()
        assert real.edges and real.dropped == 0
        src, dst, kind = real.edges[-1]
        junk = st.one_of(st.none(), st.text(max_size=4),
                         st.floats(allow_nan=False), st.binary(max_size=4),
                         st.lists(st.integers(), max_size=3))
        bad_edges = st.one_of(
            junk,
            st.tuples(st.integers(), st.integers()),
            st.tuples(st.integers(), st.integers(),
                      st.sampled_from(sorted(EDGE_KIND_CODES)),
                      st.integers()),
            st.tuples(junk, st.just(dst), st.just(kind)),
            st.tuples(st.just(src), junk, st.just(kind)),
            st.tuples(st.just(src), st.just(dst), st.one_of(
                junk, st.text().filter(
                    lambda text: text not in EDGE_KIND_CODES))))
        spliced = st.builds(
            lambda index, edge: real.edges[:index] + (edge,)
            + real.edges[index + 1:],
            st.integers(0, len(real.edges) - 1), bad_edges)
        snapshots = st.one_of(
            st.builds(lambda edges: replace(real, edges=edges),
                      st.one_of(spliced, junk)),
            st.builds(lambda prefix: replace(real, prefix_digest=prefix),
                      junk),
            st.builds(lambda digest: replace(real, digest=digest), junk),
            st.builds(lambda total: replace(real, total=total),
                      junk.filter(lambda value: value != real.total)),
            junk.filter(lambda value: value is not None),  # None: missing
            st.just(dict(vars(real))))

        @settings(max_examples=300, derandomize=True, database=None,
                  deadline=None)
        @given(forged=snapshots)
        def malformed_window_is_forged(forged):
            device.trace_snapshot = lambda: forged
            results = fleet.attest_all()
            assert results["dev-00000"].detail == "trace-forged"
            assert results["dev-00001"].ok

        malformed_window_is_forged()


def _unfold(digest: int, edges) -> int:
    """The prefix that folds *edges* to *digest*: FNV-1a's step
    ``h -> ((h ^ v) * P) mod 2**64`` runs backwards because P is odd."""
    inverse = pow(0x100000001B3, -1, 1 << 64)  # FNV-1a's 64-bit prime
    chain = digest
    for src, dst, kind in reversed(edges):
        for value in (EDGE_KIND_CODES[kind], dst, src):
            chain = ((chain * inverse) & ((1 << 64) - 1)) ^ value
    assert fold_edges(chain, edges) == digest
    return chain


def test_telemetry_totals_survive_event_ring_eviction():
    """Cumulative per-reason totals keep the verifier's violation
    counts exact even after the device's bounded event ring starts
    evicting."""
    fleet = FleetSimulation(size=1)
    device_id = fleet.registry.ids()[0]
    device = fleet.devices[device_id]
    honest = device.attestation_report
    counts = iter((3, 500, 2000))

    def heartbeat():
        count = next(counts)
        return replace(
            honest(), reset_count=count,
            violation_reasons=("w-xor-x",) * min(count, 4),  # ring-bounded
            violation_count=count, violation_totals=(f"w-xor-x={count}",))

    device.attestation_report = heartbeat
    for _ in range(3):
        assert fleet.session(device_id).attest().ok
    observed = fleet.observed()
    assert observed["violations"]["w-xor-x"] == 2000
    assert observed["resets"] == 2000


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
