"""CFG-driven fault-injection campaigns (:mod:`repro.faults`).

Covers the acceptance contract end to end: site enumeration from a
Table IV application's recovered CFG yields a deep pool (>= 200
sites), seeded plan expansion is deterministic, serial and process
backends produce identical tallies for the same seed, and the
detection ordering eilid >= casu >= none holds because the monitor
sets nest.  Also pins the wire-format versioning shared with the
fleet's record codec and the fault-sweep surfaces in repro.api and
the CLI.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import FaultSpec, FirmwareSpec, ScenarioSpec, Session, SpecError
from repro.api.firmware import build_firmware
from repro.cfg import recover_cfg
from repro.device import build_device
from repro.faults import (
    FAULT_KINDS,
    FAULT_PROFILES,
    FaultCampaign,
    FaultPlan,
    OUTCOMES,
    enumerate_sites,
    expand_plan,
    run_faulted,
)
from repro.faults.sites import CORRUPTIBLE_PERIPHERALS
from repro.fleet.registry import DeviceRecord, FleetError
from repro.casu.update import UpdateKey
from repro.fleet.store import record_from_dict, record_to_dict
from repro.obs.events import EVENT_KINDS, open_event_log
from repro.snapshot import WIRE_VERSION, SnapshotError
from conftest import refined

APP = "light_sensor"  # smallest Table IV app: fastest golden runs
SEED = 7


@pytest.fixture(scope="module")
def light_sensor_sites():
    spec = FirmwareSpec(kind="app", app=APP, variant="original")
    build = build_firmware(spec)
    cfg = recover_cfg(build.program, name=APP)
    return spec, enumerate_sites(cfg)


# ---- site enumeration --------------------------------------------------------


def test_site_pool_is_deep_enough(light_sensor_sites):
    """Acceptance: a Table IV app CFG yields >= 200 injectable sites."""
    _, sites = light_sensor_sites
    assert len(sites) >= 200
    kinds = {site.kind for site in sites}
    assert kinds == set(FAULT_KINDS)


def test_enumeration_is_deterministic(light_sensor_sites):
    spec, sites = light_sensor_sites
    cfg = recover_cfg(build_firmware(spec).program, name=APP)
    assert enumerate_sites(cfg) == sites


def test_kind_filter_and_unknown_kind(light_sensor_sites):
    spec, sites = light_sensor_sites
    cfg = recover_cfg(build_firmware(spec).program, name=APP)
    flips = enumerate_sites(cfg, kinds=("imem-flip",))
    assert flips and all(site.kind == "imem-flip" for site in flips)
    assert flips == [site for site in sites if site.kind == "imem-flip"]
    with pytest.raises(ValueError, match="bogus"):
        enumerate_sites(cfg, kinds=("bogus",))


# ---- plan expansion ----------------------------------------------------------


def test_plan_expansion_is_seed_deterministic(light_sensor_sites):
    _, sites = light_sensor_sites
    plan_a = expand_plan(sites, seed=SEED, count=40, name=APP)
    plan_b = expand_plan(sites, seed=SEED, count=40, name=APP)
    assert plan_a == plan_b
    assert len(plan_a) == 40
    assert expand_plan(sites, seed=SEED + 1, count=40).faults != plan_a.faults


def test_plan_covers_the_full_pool_by_default(light_sensor_sites):
    _, sites = light_sensor_sites
    plan = expand_plan(sites, seed=0, name=APP)
    assert len(plan) == len(sites) >= 200
    # Every fault is fully parameterised: the plan alone reproduces
    # the sweep, no RNG state travels to the workers.
    for fault in plan.faults:
        assert fault["kind"] in FAULT_KINDS
        assert isinstance(fault["pc"], int)


def test_plan_wire_round_trip(light_sensor_sites):
    _, sites = light_sensor_sites
    plan = expand_plan(sites, seed=3, count=8, name=APP)
    doc = json.loads(json.dumps(plan.to_dict()))
    assert doc["codec"] == WIRE_VERSION
    assert FaultPlan.from_dict(doc) == plan
    doc["codec"] = 999
    with pytest.raises(Exception, match="codec"):
        FaultPlan.from_dict(doc)


# JSON values a corrupted plan field might carry instead of its own.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 20),
                 st.floats(allow_nan=False), st.text(max_size=6),
                 st.lists(st.integers(0, 3), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(),
                                 max_size=2))
# Every field any fault kind reads, each with a value it may hold.
FAULT_FIELDS = st.fixed_dictionaries({
    "id": st.integers(0, 3),
    "kind": st.sampled_from(FAULT_KINDS),
    # Even, so that a fault armed at the device's PC triggers.
    "pc": st.integers(0, 0x7FFF).map(lambda a: 2 * a),
    "function": st.text(max_size=4),
    "bit": st.integers(0, 47),
    "next_pc": st.integers(0, 0xFFFF),
    "reg": st.integers(0, 15),
    "mask": st.integers(1, 0xFFFF),
    "periph": st.sampled_from(CORRUPTIBLE_PERIPHERALS),
})


@st.composite
def plan_documents(draw):
    """A well-formed plan document, then up to two of its fields -- a
    top-level one, a whole fault or a fault's field -- replaced with
    junk or deleted."""
    doc = {"codec": WIRE_VERSION, "name": draw(st.text(max_size=6)),
           "seed": draw(st.integers(0, 9)),
           "faults": draw(st.lists(FAULT_FIELDS, max_size=3))}
    for _ in range(draw(st.integers(0, 2))):
        owners = [doc] + [fault for fault in doc["faults"]
                          if isinstance(fault, dict)]
        if isinstance(doc.get("faults"), list):
            owners.append(doc["faults"])
        owner = draw(st.sampled_from(owners))
        keys = (list(range(len(owner))) if isinstance(owner, list)
                else sorted(owner))
        if not keys:
            continue
        key = draw(st.sampled_from(keys))
        if isinstance(owner, dict) and draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = draw(JUNK)
    return doc


def test_any_plan_document_raises_only_snapshot_error_or_round_trips(
        light_sensor_sites):
    """Whatever JSON arrives at the fault-plan codec, it raises only
    SnapshotError, or decodes to a plan that encodes back to the same
    document and whose every fault plants or triggers without error."""
    spec, _ = light_sensor_sites
    device = build_device(build_firmware(spec).program)

    # Nested, so a failing example is reported without hypothesis
    # rewriting this module to pin it.
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(doc=st.one_of(plan_documents(), JUNK))
    def check(doc):
        try:
            plan = FaultPlan.from_dict(doc)
        except SnapshotError:
            return
        assert plan.to_dict() == doc
        for fault in plan.faults:
            device.cpu.pc = fault["pc"]
            run_faulted(device, fault, 0, [], None)

    check()


# ---- the sweep (acceptance) --------------------------------------------------


@pytest.fixture(scope="module")
def sweep_reports(light_sensor_sites):
    """One seeded plan swept on both backends, all three profiles; the
    serial sweep's monitored steps are checked against the monitor's
    rule table as they run."""
    spec, sites = light_sensor_sites
    plan = expand_plan(sites, seed=SEED, count=12, name=APP)
    reports = {}
    with refined() as reports["refinement"]:
        reports["serial"] = FaultCampaign(spec, plan, backend="serial",
                                          workers=2).run()
    reports["process"] = FaultCampaign(spec, plan, backend="process",
                                       workers=2).run()
    return reports


def test_backends_tally_identically(sweep_reports):
    """Acceptance: process and serial sweeps of the same seed agree
    outcome-for-outcome, not just in aggregate."""
    serial, process = sweep_reports["serial"], sweep_reports["process"]
    assert [t.to_dict() for t in serial.tallies] == \
           [t.to_dict() for t in process.tallies]
    assert serial.outcomes == process.outcomes


def test_detection_ordering_nests_with_monitor_sets(sweep_reports):
    """Acceptance: eilid >= casu >= none detections (same image, and
    eilid's monitor set is a strict superset of casu's)."""
    report = sweep_reports["serial"]
    none, casu, eilid = (report.tally(p) for p in ("none", "casu", "eilid"))
    assert none.detected == 0
    assert eilid.detected >= casu.detected >= none.detected
    assert casu.detected > 0  # the seeded plan actually trips monitors


def test_faulted_runs_refine_the_rule_table(sweep_reports):
    """Every monitored step of the serial sweep -- the golden and the
    faulted runs under casu and eilid -- gets the verdict the monitor's
    rule table gives it."""
    refinement = sweep_reports["refinement"]
    assert refinement.steps > 10_000
    assert not refinement.divergences, refinement.divergences[0]


def test_every_fault_graded_once(sweep_reports):
    report = sweep_reports["serial"]
    for profile in FAULT_PROFILES:
        outcomes = report.outcomes[profile]
        assert len(outcomes) == report.faults == 12
        assert [doc["id"] for doc in outcomes] == sorted(
            doc["id"] for doc in outcomes)
        assert all(doc["outcome"] in OUTCOMES for doc in outcomes)
        assert report.tally(profile).total == 12


def test_report_renders_paper_style_table(sweep_reports):
    text = sweep_reports["serial"].render()
    assert "Fault sweep: light_sensor" in text
    for profile in FAULT_PROFILES:
        assert profile in text
    doc = json.loads(json.dumps(sweep_reports["serial"].to_dict()))
    assert doc["faults"] == 12 and len(doc["profiles"]) == 3


def test_campaign_emits_events(light_sensor_sites):
    spec, sites = light_sensor_sites
    assert "fault-inject" in EVENT_KINDS and "fault-outcome" in EVENT_KINDS
    plan = expand_plan(sites, seed=1, count=2, name=APP)
    log = open_event_log(None)
    FaultCampaign(spec, plan, profiles=("none",), events=log).run()
    assert len(log.events(kind="fault-inject")) == 2
    outcomes = log.events(kind="fault-outcome")
    assert len(outcomes) == 2
    assert all(doc["data"]["outcome"] in OUTCOMES for doc in outcomes)
    assert len(log.events(kind="campaign-end")) == 1


def test_unknown_profile_and_backend_rejected(light_sensor_sites):
    spec, sites = light_sensor_sites
    plan = expand_plan(sites, seed=0, count=1)
    with pytest.raises(ValueError, match="profile"):
        FaultCampaign(spec, plan, profiles=("none", "super"))
    with pytest.raises(ValueError, match="backend"):
        FaultCampaign(spec, plan, backend="fork")


# ---- shared wire-format versioning (fleet record codec) ----------------------


class TestRecordCodecVersioning:
    def _record(self):
        return DeviceRecord("d", UpdateKey.derive("d"), "TI MSP430", "casu")

    def test_records_carry_the_shared_codec_version(self):
        doc = record_to_dict(self._record())
        assert doc["codec"] == WIRE_VERSION

    def test_mismatched_codec_is_a_clear_fleet_error(self):
        doc = record_to_dict(self._record())
        doc["codec"] = 999
        with pytest.raises(FleetError, match="codec version 999"):
            record_from_dict(doc)
        # The message says what happened, not a bare KeyError.
        with pytest.raises(FleetError, match="a different build wrote"):
            record_from_dict(doc)

    def test_legacy_records_without_codec_still_load(self):
        doc = record_to_dict(self._record())
        del doc["codec"]
        assert record_from_dict(doc) == self._record()


# ---- the api surface ---------------------------------------------------------


class TestFaultSpec:
    def test_defaults_validate_and_round_trip(self):
        spec = FaultSpec()
        spec.validate()
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kwargs,field", [
        ({"kinds": ("bogus",)}, "kinds"),
        ({"profiles": ("none", "super")}, "profiles"),
        ({"backend": "fork"}, "backend"),
        ({"workers": -1}, "workers"),
        ({"count": -1}, "count"),
        ({"seed": "x"}, "seed"),
    ])
    def test_bad_fields_raise_spec_error(self, kwargs, field):
        with pytest.raises(SpecError) as err:
            FaultSpec(**kwargs).validate()
        assert field in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError):
            FaultSpec.from_dict({"seeds": 1})

    def test_thread_backend_is_rejected(self):
        # The thread backend is gone, with no alias.
        spec = FaultSpec.from_dict({"backend": "thread"})
        with pytest.raises(SpecError,
                           match=r"faults\.backend.*one of serial, process"):
            spec.validate()


def test_session_fault_sweep(light_sensor_sites):
    spec = ScenarioSpec(name="sweep",
                        firmware=FirmwareSpec(kind="app", app=APP,
                                              variant="original"))
    session = Session(spec)
    report = session.fault_sweep(FaultSpec(seed=SEED, count=4))
    assert session.fault_report is report
    assert report.faults == 4
    assert [t.profile for t in report.tallies] == list(FAULT_PROFILES)


def test_session_fault_sweep_validates_the_plan():
    spec = ScenarioSpec(name="sweep",
                        firmware=FirmwareSpec(kind="app", app=APP,
                                              variant="original"))
    with pytest.raises(SpecError, match="backend"):
        Session(spec).fault_sweep(FaultSpec(backend="fork"))


# ---- the cli surface ---------------------------------------------------------


class TestFaultsCli:
    def _json(self, capsys, argv):
        from repro.cli import main

        code = main(argv + ["--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        return doc

    def test_enumerate(self, capsys):
        doc = self._json(capsys, ["faults", "enumerate", APP])
        assert doc["schema"] == "eilid.cli.faults-enumerate"
        assert doc["total"] >= 200
        assert set(doc["kinds"]) == set(FAULT_KINDS)
        assert doc["total"] == sum(doc["kinds"].values()) == len(doc["sites"])

    def test_enumerate_kind_filter(self, capsys):
        doc = self._json(capsys,
                         ["faults", "enumerate", APP, "--kinds", "insn-skip"])
        assert set(doc["kinds"]) == {"insn-skip"}

    def test_sweep(self, capsys):
        doc = self._json(capsys, ["faults", "sweep", APP, "--seed", str(SEED),
                                  "--count", "3", "--profiles", "none,eilid"])
        assert doc["schema"] == "eilid.cli.faults-sweep"
        assert doc["faults"] == 3
        assert [p["profile"] for p in doc["profiles"]] == ["none", "eilid"]

    def test_unknown_kind_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["faults", "enumerate", APP, "--kinds", "nope"]) == 1
