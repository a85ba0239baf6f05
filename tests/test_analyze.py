"""Firmware static analyzer (:mod:`repro.analyze`).

Covers the acceptance contract end to end: every rule has a minimal
firmware that trips exactly it, the four raw attack images all produce
criticals, every Table IV application analyzes clean (zero criticals,
warns confined to a pinned baseline), reports are byte-identically
deterministic across fresh builds, and the sweep-guided coverage loop
closes -- a fault-sweep escape cluster yields a CFI tightening that,
applied and re-swept, converts those escapes into replay detections.
Also pins the AnalyzeSpec / Session.analyze / CLI surfaces.
"""

import json

import pytest

from repro.analyze import (
    RULE_GROUPS,
    SEVERITIES,
    AnalysisReport,
    AnalyzeError,
    Finding,
    address_taken_entries,
    analyze_program,
    apply_cfi_patch,
    cluster_escapes,
    correlate_sweep,
)
from repro.api import (
    AnalyzeSpec,
    FaultSpec,
    FirmwareSpec,
    ScenarioSpec,
    Session,
    SpecError,
)
from repro.api.firmware import build_firmware
from repro.apps.registry import TABLE_IV_ORDER
from repro.attacks.injection import RAW_ATTACK_FIRMWARE
from repro.cfg import compile_policy, recover_cfg
from repro.faults import FaultCampaign, enumerate_sites, expand_plan
from repro.obs.events import EVENT_KINDS, open_event_log

# Warn-level rules the benign Table IV corpus is allowed to carry:
# the uninstrumented fire_sensor's unregistered indirect call, the
# S_EILID_entry br-invocation convention, linked-but-uncalled EILID
# shims, and their reti bodies.  Anything outside this set -- and any
# critical -- is a regression.
BENIGN_WARN_RULES = {
    "indirect-unregistered",
    "unmatched-return",
    "unreachable-block",
    "dead-isr",
}

ATTACK_CRITICALS = {
    "pmem_overwrite": "pmem-write",
    "shadow_stack_tamper": "secure-ram-read",
    "ivt_overwrite": "ivt-write",
    "rom_mid_entry_jump": "rom-entry-bypass",
}


def _analyze_asm(asm, name="fw", variant="original", link_rom=False):
    spec = FirmwareSpec(kind="asm", source=asm, variant="original",
                        name=name, link_rom=link_rom)
    build = build_firmware(spec)
    return analyze_program(build.program, name=name, variant=variant)


# ---- per-rule minimal firmwares ---------------------------------------------

PMEM_WRITE_ASM = """
    .text
    .global main
main:
    mov #1, &0xe100
    mov #1, &0x0070
park:
    jmp park
"""

IVT_WRITE_ASM = """
    .text
    .global main
main:
    mov #0, &0xfff2
    mov #1, &0x0070
park:
    jmp park
"""

SECURE_RAM_ASM = """
    .text
    .global main
main:
    mov #1, &0x1000
    mov &0x1010, r5
    mov #1, &0x0070
park:
    jmp park
"""

ROM_WRITE_ASM = """
    .text
    .global main
main:
    mov #1, &0xa000
    mov #1, &0x0070
park:
    jmp park
"""

RECURSION_ASM = """
    .text
    .global main
main:
    call #spin
    mov #1, &0x0070
park:
    jmp park
spin:
    call #spin
    ret
"""

OVERFLOW_ASM = """
    .text
    .global main
main:
    sub #0x900, sp
    mov #1, &0x0070
park:
    jmp park
"""

MARGIN_ASM = """
    .text
    .global main
main:
    sub #2000, sp
    mov #1, &0x0070
park:
    jmp park
"""

DEAD_ISR_ASM = """
    .text
    .global main
main:
    mov #orphan, r9
    mov #1, &0x0070
park:
    jmp park
orphan:
    mov #2, &0x0010
    reti
"""

DEAD_CODE_ASM = """
    .text
    .global main
main:
    mov #1, &0x0070
park:
    jmp park
helper:
    mov #2, &0x0010
    ret
"""

INDIRECT_JUMP_ASM = """
    .text
    .global main
main:
    mov #park, r10
    br r10
park:
    jmp park
"""


@pytest.mark.parametrize("asm,rule,severity", [
    (PMEM_WRITE_ASM, "pmem-write", "critical"),
    (IVT_WRITE_ASM, "ivt-write", "critical"),
    (SECURE_RAM_ASM, "secure-ram-write", "critical"),
    (SECURE_RAM_ASM, "secure-ram-read", "critical"),
    (ROM_WRITE_ASM, "rom-write", "critical"),
    (RECURSION_ASM, "stack-recursion", "critical"),
    (OVERFLOW_ASM, "stack-overflow", "critical"),
    (MARGIN_ASM, "stack-margin", "warn"),
    (DEAD_ISR_ASM, "dead-isr", "warn"),
    (DEAD_CODE_ASM, "unreachable-block", "warn"),
    (INDIRECT_JUMP_ASM, "indirect-jump-unresolved", "warn"),
])
def test_minimal_firmware_trips_rule(asm, rule, severity):
    report = _analyze_asm(asm)
    hits = [f for f in report.findings if f.rule == rule]
    assert hits, f"{rule} not raised; got {[f.rule for f in report.findings]}"
    assert all(f.severity == severity for f in hits)


def test_ivt_write_names_the_vector():
    report = _analyze_asm(IVT_WRITE_ASM)
    (finding,) = [f for f in report.findings if f.rule == "ivt-write"]
    assert finding.evidence["vector"] == 9  # the timer vector


def test_computed_pc_write_is_an_unresolved_indirect_jump():
    # rra writes its operand like mov does, so ``rra pc`` jumps to a
    # computed address no policy can name.
    spec = FirmwareSpec(kind="asm", source="""
    .text
    .global main
main:
    mov #1, r5
site:
    rra pc
park:
    jmp park
""", variant="original", name="fw")
    program = build_firmware(spec).program
    report = analyze_program(program, name="fw", variant="original")
    (finding,) = [f for f in report.findings
                  if f.rule == "indirect-jump-unresolved"]
    assert finding.pc == program.symbols["site"]
    assert finding.evidence["mnemonic"] == "rra"


def test_shadow_stack_capacity_severity_depends_on_variant():
    # 132 nested calls exceed the 128-entry shadow stack: a critical
    # for an eilid image (the store would trap at runtime), only a
    # warn for an uninstrumented one (no shadow stack to overflow).
    depth = 132
    lines = ["    .text", "    .global main", "main:", "    call #f0",
             "    mov #1, &0x0070", "park:", "    jmp park"]
    for i in range(depth):
        lines.append(f"f{i}:")
        if i + 1 < depth:
            lines.append(f"    call #f{i + 1}")
        lines.append("    ret")
    asm = "\n".join(lines) + "\n"
    spec = FirmwareSpec(kind="asm", source=asm, variant="original",
                        name="deep", link_rom=False)
    build = build_firmware(spec)
    by_variant = {}
    for variant in ("original", "eilid"):
        report = analyze_program(build.program, name="deep", variant=variant)
        (finding,) = [f for f in report.findings
                      if f.rule == "shadow-stack-overflow"]
        by_variant[variant] = finding.severity
    assert by_variant == {"original": "warn", "eilid": "critical"}


def test_clean_firmware_is_clean():
    report = _analyze_asm("""
    .text
    .global main
main:
    mov #1, &0x0070
park:
    jmp park
""")
    assert report.ok
    assert report.findings == []


# ---- findings / report primitives -------------------------------------------


def test_finding_round_trip_and_ordering():
    a = Finding(rule="pmem-write", severity="critical", message="b",
                pc=0xE010, function="main", evidence={"z": 1, "a": 2})
    b = Finding(rule="dead-isr", severity="warn", message="a",
                pc=0xE000, function="isr")
    assert Finding.from_dict(a.to_dict()) == a
    assert sorted([a, b], key=lambda f: f.sort_key)[0].rule == "dead-isr"
    # evidence keys serialise sorted for byte-stable JSON
    assert list(a.to_dict()["evidence"]) == ["a", "z"]


def test_report_counts_and_ok():
    report = AnalysisReport(name="x", variant="original",
                            rules=tuple(RULE_GROUPS))
    assert report.ok and report.count("critical") == 0
    report.extend([Finding(rule="pmem-write", severity="critical",
                           message="m")])
    report.finalize()
    assert not report.ok
    assert report.count("critical") == 1
    assert set(report.to_dict()["counts"]) == set(SEVERITIES)


# ---- determinism ------------------------------------------------------------


def _fresh_report(app="fire_sensor", variant="eilid"):
    spec = FirmwareSpec(kind="app", app=app, variant=variant)
    build = build_firmware(spec)
    return analyze_program(build.program, name=app, variant=variant)


def test_two_runs_are_byte_identical():
    first, second = _fresh_report(), _fresh_report()
    assert json.dumps(first.to_dict(), sort_keys=True) == \
        json.dumps(second.to_dict(), sort_keys=True)
    assert first.render() == second.render()


# ---- attack vs benign matrix ------------------------------------------------


@pytest.mark.parametrize("attack", sorted(ATTACK_CRITICALS))
def test_attack_image_produces_critical(attack):
    """Acceptance: every raw attack image yields >= 1 critical."""
    spec = RAW_ATTACK_FIRMWARE[attack]
    build = build_firmware(spec)
    report = analyze_program(build.program, name=attack)
    assert not report.ok
    critical_rules = {f.rule for f in report.criticals}
    assert ATTACK_CRITICALS[attack] in critical_rules


@pytest.mark.parametrize("app", TABLE_IV_ORDER)
def test_benign_app_analyzes_clean(app):
    """Acceptance: zero criticals on every Table IV app, both variants,
    and warns confined to the pinned baseline rule set."""
    for variant in ("original", "eilid"):
        spec = FirmwareSpec(kind="app", app=app, variant=variant)
        build = build_firmware(spec)
        report = analyze_program(build.program, name=app, variant=variant)
        assert report.ok, (
            f"{app}/{variant} criticals: "
            f"{[f.render() for f in report.criticals]}")
        warn_rules = {f.rule for f in report.findings
                      if f.severity == "warn"}
        assert warn_rules <= BENIGN_WARN_RULES, (app, variant, warn_rules)


def test_eilid_entry_convention_is_an_unmatched_return():
    # The S_EILID_entry trampoline is invoked via ``br``, never
    # ``call``: the analyzer surfaces its ret as unmatched (pinned
    # here so the rule keeps coverage of the ROM-symbol entry case).
    spec = FirmwareSpec(kind="app", app="light_sensor", variant="eilid")
    build = build_firmware(spec)
    report = analyze_program(build.program, name="light_sensor",
                             variant="eilid")
    unmatched = [f for f in report.findings if f.rule == "unmatched-return"]
    assert any(f.function == "S_EILID_entry" for f in unmatched)


# ---- the sweep-guided coverage loop -----------------------------------------

# Indirect-dispatch firmware with a fault-bendable function pointer:
# the honest path always calls ``process``; skipping any of the three
# gate instructions bends r10 to ``diag``.  ``diag`` stays a known
# entry (the dead direct call) but is NOT address-taken, so the
# proposed narrowing excludes it and replay flags the bent call.
BENDABLE_ASM = """
; Indirect-dispatch firmware with a fault-bendable function pointer.
    .text
    .global main
main:
    mov #process, r10
    mov r10, r11
    add #8, r11          ; r11 = diag (process body is 8 bytes)
    mov #1, r15
    cmp #1, r15
    jz ok                ; honest path: always taken
    mov r11, r10         ; fault path: bend the pointer to diag
ok:
    call r10
    mov #1, &0x0070      ; DONE
park:
    jmp park
dead:
    call #diag           ; never executed: diag stays a known entry
process:
    mov #5, &0x0010
    ret
diag:
    mov #5, &0x0010
    ret
"""


@pytest.fixture(scope="module")
def coverage_loop():
    """Run the full loop once: sweep -> correlate -> patch -> re-sweep."""
    spec = FirmwareSpec(kind="asm", source=BENDABLE_ASM,
                        variant="original", name="bendable",
                        link_rom=False)
    build = build_firmware(spec)
    cfg = recover_cfg(build.program, name="bendable")
    plan = expand_plan(enumerate_sites(cfg, kinds=("insn-skip",)),
                       seed=0, count=None, name="bendable")
    baseline = FaultCampaign(spec, plan, profiles=("none",)).run()

    report = analyze_program(build.program, name="bendable")
    correlation = correlate_sweep(baseline, cfg, list(report.findings))

    patch = next(p for p in correlation["proposals"]
                 if p["action"] == "narrow-indirect-targets")
    policy = compile_policy(cfg, build.program.symbols)
    tightened = apply_cfi_patch(policy, patch)
    rerun = FaultCampaign(spec, plan, profiles=("none",),
                          policy=tightened).run()
    return cfg, baseline, report, correlation, patch, policy, \
        tightened, rerun


def test_bendable_image_is_flagged_unregistered(coverage_loop):
    cfg, _, report, _, _, _, _, _ = coverage_loop
    assert not cfg.indirect_targets_registered
    warns = [f for f in report.findings if f.rule == "indirect-unregistered"]
    assert len(warns) == 1
    assert warns[0].evidence["address_taken"] == \
        list(address_taken_entries(cfg))


def test_escape_clusters_map_to_blocks(coverage_loop):
    cfg, baseline, _, correlation, _, _, _, _ = coverage_loop
    clusters = correlation["clusters"]
    # correlation's clusters are cluster_escapes' plus per-cluster findings
    stripped = [{k: v for k, v in c.items() if k != "findings"}
                for c in clusters]
    assert stripped == cluster_escapes(baseline, cfg)
    assert clusters, "the insn-skip sweep must produce escapes"
    for cluster in clusters:
        assert cluster["profile"] == "none"
        assert cluster["fault_ids"] == sorted(cluster["fault_ids"])
        assert set(cluster["outcomes"]) <= {"escape", "silent-corruption"}


def test_proposal_narrows_to_address_taken(coverage_loop):
    cfg, _, _, _, patch, policy, tightened, _ = coverage_loop
    assert patch["targets"] == list(address_taken_entries(cfg))
    assert set(patch["targets"]) < set(patch["was"])
    assert tightened.indirect_targets < policy.indirect_targets
    assert tightened.indirect_from_table


def test_tightening_converts_escapes_to_detections(coverage_loop):
    """Acceptance: the applied tightening turns bent-pointer escapes
    into replay detections in a re-run sweep; nothing regresses."""
    _, baseline, _, _, _, _, _, rerun = coverage_loop
    before = {doc["id"]: doc for doc in baseline.outcomes["none"]}
    after = {doc["id"]: doc for doc in rerun.outcomes["none"]}
    assert set(before) == set(after)

    flipped = [fid for fid in before
               if before[fid]["outcome"] in ("escape", "silent-corruption")
               and after[fid]["outcome"] == "detected"]
    assert flipped, "the tightened policy must catch bent-pointer escapes"
    for fid in flipped:
        assert after[fid]["reason"].startswith("replay:")
    # The patch only ever *adds* detections: no previously-detected
    # fault regresses to an escape.
    for fid in before:
        if before[fid]["outcome"] == "detected":
            assert after[fid]["outcome"] == "detected"
    assert rerun.tally("none").detected > baseline.tally("none").detected


def test_correlation_is_deterministic(coverage_loop):
    cfg, baseline, report, correlation, _, _, _, _ = coverage_loop
    again = correlate_sweep(baseline, cfg, list(report.findings))
    assert json.dumps(correlation, sort_keys=True) == \
        json.dumps(again, sort_keys=True)


def test_patch_validation_rejects_widening(coverage_loop):
    cfg, _, _, _, _, policy, _, _ = coverage_loop
    with pytest.raises(AnalyzeError, match="only narrow"):
        apply_cfi_patch(policy, {"action": "narrow-indirect-targets",
                                 "targets": [0x2]})
    with pytest.raises(AnalyzeError, match="empty"):
        apply_cfi_patch(policy, {"action": "narrow-indirect-targets",
                                 "targets": []})
    with pytest.raises(AnalyzeError, match="not applyable"):
        apply_cfi_patch(policy, {"action": "monitor-range",
                                 "start": 0, "end": 1})


# ---- AnalyzeSpec ------------------------------------------------------------


class TestAnalyzeSpec:
    def test_defaults_validate(self):
        spec = AnalyzeSpec()
        spec.validate()
        assert spec.rules == tuple(RULE_GROUPS)

    def test_round_trip(self):
        spec = AnalyzeSpec(rules=("stack",), stack_margin=32, irq_nesting=2)
        assert AnalyzeSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kwargs", [
        {"rules": ()},
        {"rules": ("bogus",)},
        {"stack_margin": -1},
        {"irq_nesting": -1},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(SpecError):
            AnalyzeSpec(**kwargs).validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError):
            AnalyzeSpec.from_dict({"ruels": ("stack",)})


# ---- Session surface --------------------------------------------------------


def _light_sensor_scenario():
    return ScenarioSpec(name="analysis",
                        firmware=FirmwareSpec(kind="app", app="light_sensor",
                                              variant="eilid"))


def test_session_analyze_outcome_and_events():
    assert "analysis-finding" in EVENT_KINDS
    session = Session(_light_sensor_scenario())
    log = open_event_log(None)
    outcome = session.analyze(events=log)
    assert outcome.ok
    assert outcome.name == "light_sensor"
    assert session.analysis_report is not None
    doc = outcome.to_dict()
    assert doc["schema"] == "eilid.analyze"
    assert doc["correlation"] is None
    events = log.events(kind="analysis-finding")
    assert len(events) == len(session.analysis_report.findings)
    for event in events:
        assert event["data"]["rule"]
        assert event["data"]["severity"] in SEVERITIES


def test_session_analyze_correlates_stored_sweep():
    session = Session(_light_sensor_scenario())
    session.fault_sweep(FaultSpec(seed=3, count=6, profiles=("none",)))
    outcome = session.analyze()
    assert outcome.correlation is not None
    assert set(outcome.correlation) == {"clusters", "proposals"}


def test_session_analyze_rejects_bad_spec():
    session = Session(_light_sensor_scenario())
    with pytest.raises(SpecError):
        session.analyze(AnalyzeSpec(rules=("bogus",)))


# ---- CLI --------------------------------------------------------------------


class TestAnalyzeCli:
    def test_benign_app_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["analyze", "light_sensor"]) == 0
        out = capsys.readouterr().out
        assert "light_sensor" in out

    def test_attack_image_exits_two(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--attack", "pmem_overwrite"]) == 2
        assert "pmem-write" in capsys.readouterr().out

    def test_json_envelope(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--attack", "ivt_overwrite",
                     "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "eilid.analyze"
        assert doc["ok"] is False
        assert doc["counts"]["critical"] >= 1
        assert any(f["rule"] == "ivt-write" for f in doc["findings"])

    def test_sweep_correlation_in_json(self, capsys):
        from repro.cli import main

        assert main(["analyze", "fire_sensor", "--variant", "original",
                     "--sweep", "--count", "12", "--profiles", "none",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["correlation"] is not None
        assert "proposals" in doc["correlation"]

    def test_unknown_rule_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["analyze", "light_sensor", "--rules", "bogus"]) == 1
