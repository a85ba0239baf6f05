"""The CLI builds the specs its flags describe.

Every flag that sets a spec field is named after it and declares no
default of its own, so an unset flag keeps the field default and a bad
value gets the spec's own ``SpecError`` (exit 1).  These tests capture
the spec at the ``Session`` method that receives it, without running
the workload behind it.
"""

import gc

import pytest

from repro.api import (
    AnalyzeSpec,
    FaultSpec,
    FleetSpec,
    RolloutSpec,
    ScenarioSpec,
    Session,
)
from repro.cli import main


class _Captured(Exception):
    """Raised by the stub the CLI run stops at."""


@pytest.fixture()
def run_until(monkeypatch):
    """``run_until(argv, stop)`` runs the CLI until the entry point
    *stop* -- ``__init__``, ``fault_sweep`` or ``analyze`` of Session,
    or ``FleetSimulation`` -- receives its spec, and returns what each
    stubbed entry point was handed."""
    from repro.fleet import simulation

    targets = {"__init__": Session, "fault_sweep": Session,
               "analyze": Session, "FleetSimulation": simulation}

    def run(argv, stop):
        seen = {}

        def stub(name):
            def record(self=None, spec=None, *args, **kwargs):
                seen[name] = kwargs if name == "FleetSimulation" else spec
                if name == stop:
                    raise _Captured
            return record

        for name in {stop, "fault_sweep", "analyze"}:
            monkeypatch.setattr(targets[name], name, stub(name))
        try:
            with pytest.raises(_Captured):
                main(argv)
        finally:
            gc.unfreeze()  # serve run freezes what its fleet allocated
        return seen

    return run


def _field(obj, path):
    for name in path.split("."):
        obj = obj[name] if isinstance(obj, dict) else getattr(obj, name)
    return obj


VERBS = [
    [], ["tables"], ["figure10"], ["micro"], ["run-app"], ["attack"],
    ["verify"], ["cfg"], ["cfg", "build"], ["cfg", "diff"],
    ["cfg", "verify-trace"], ["faults"], ["faults", "enumerate"],
    ["faults", "sweep"], ["analyze"], ["fleet"], ["fleet", "enroll"],
    ["fleet", "status"], ["fleet", "rollout"], ["fleet", "history"],
    ["fleet", "watch"], ["fleet", "alerts"], ["fleet", "metrics"],
    ["serve"], ["serve", "run"],
]


@pytest.mark.parametrize("verb", VERBS, ids=lambda verb: " ".join(verb)
                         or "eilid")
def test_help_exits_zero(verb, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(verb + ["--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


SWEEP = ["faults", "sweep"]
ROLLOUT = ["fleet", "rollout"]
SERVE = ["serve", "run"]
FLEET_DEFAULT = ScenarioSpec(name="fleet", security="casu",
                             fleet=FleetSpec())


@pytest.mark.parametrize("argv,stop,expected", [
    # --count 48 is the CLI's own default: the spec's null sweeps
    # every site.
    (["faults", "sweep"], "fault_sweep", FaultSpec(count=48)),
    (["analyze", "--sweep"], "fault_sweep", FaultSpec(count=48)),
    (["analyze", "--sweep"], "analyze", AnalyzeSpec()),
    (["fleet", "enroll"], "__init__", FLEET_DEFAULT),
    (["fleet", "status"], "__init__", FLEET_DEFAULT),
    (["fleet", "metrics"], "__init__", FLEET_DEFAULT),
    # rollout has no pre-run phase: run_cycles=0.
    (["fleet", "rollout"], "__init__", FLEET_DEFAULT.with_(
        fleet=FleetSpec(run_cycles=0, rollout=RolloutSpec()))),
    (["attack", "pmem_overwrite"], "__init__",
     ScenarioSpec(name="pmem_overwrite", attack="pmem_overwrite")),
])
def test_no_flags_build_the_spec_defaults(run_until, argv, stop, expected):
    assert run_until(argv, stop)[stop] == expected


def test_serve_run_defaults_reach_the_fleet(run_until):
    fleet = FleetSpec()
    kwargs = run_until(SERVE, "FleetSimulation")["FleetSimulation"]
    assert kwargs["security"] == "casu"
    assert {name: kwargs[name] for name in
            ("size", "loss", "reorder", "seed", "events", "alerts")} == {
        name: getattr(fleet, name) for name in
        ("size", "loss", "reorder", "seed", "events", "alerts")}


@pytest.mark.parametrize("argv,stop,path,value", [
    (SWEEP + ["--seed", "5"], "fault_sweep", "seed", 5),
    (SWEEP + ["--count", "3"], "fault_sweep", "count", 3),
    (SWEEP + ["--kinds", "insn-skip, imem-flip"], "fault_sweep", "kinds",
     ("insn-skip", "imem-flip")),
    (SWEEP + ["--profiles", "none,eilid"], "fault_sweep", "profiles",
     ("none", "eilid")),
    (SWEEP + ["--backend", "process"], "fault_sweep", "backend", "process"),
    (SWEEP + ["--workers", "2"], "fault_sweep", "workers", 2),
    (SWEEP + ["--warmup-steps", "10"], "fault_sweep", "warmup_steps", 10),
    (["analyze", "--rules", "stack"], "analyze", "rules", ("stack",)),
    (["analyze", "--stack-margin", "32"], "analyze", "stack_margin", 32),
    (["analyze", "--irq-nesting", "2"], "analyze", "irq_nesting", 2),
    (["analyze", "--sweep", "--seed", "4"], "fault_sweep", "seed", 4),
    (["analyze", "--sweep", "--count", "6"], "fault_sweep", "count", 6),
    (["analyze", "--sweep", "--profiles", "casu"], "fault_sweep", "profiles",
     ("casu",)),
    (["attack", "pmem_overwrite", "--security", "none"], "__init__",
     "security", "none"),
    (["run-app", "light_sensor", "--variant", "original"], "__init__",
     "firmware.variant", "original"),
    (ROLLOUT + ["--devices", "7"], "__init__", "fleet.size", 7),
    (ROLLOUT + ["--security", "eilid"], "__init__", "security", "eilid"),
    (ROLLOUT + ["--loss", "0.1"], "__init__", "fleet.loss", 0.1),
    (ROLLOUT + ["--reorder", "0.2"], "__init__", "fleet.reorder", 0.2),
    (ROLLOUT + ["--seed", "9"], "__init__", "fleet.seed", 9),
    (ROLLOUT + ["--store", "r.db"], "__init__", "fleet.store", "r.db"),
    (ROLLOUT + ["--events", "e.db"], "__init__", "fleet.events", "e.db"),
    (ROLLOUT + ["--alerts"], "__init__", "fleet.alerts", True),
    (ROLLOUT + ["--alert", "replay-burst=3"], "__init__", "fleet.alerts",
     {"replay-burst": 3.0}),
    (ROLLOUT + ["--version", "4"], "__init__", "fleet.rollout.version", 4),
    (ROLLOUT + ["--waves", "0.5,1.0"], "__init__",
     "fleet.rollout.wave_fractions", (0.5, 1.0)),
    (ROLLOUT + ["--failure-threshold", "0.3"], "__init__",
     "fleet.rollout.failure_threshold", 0.3),
    (ROLLOUT + ["--tamper-fraction", "0.2"], "__init__",
     "fleet.rollout.tamper_fraction", 0.2),
    (ROLLOUT + ["--rollback-fraction", "0.1"], "__init__",
     "fleet.rollout.rollback_fraction", 0.1),
    (["fleet", "enroll", "--security", "eilid"], "__init__", "security",
     "eilid"),
    (["fleet", "status", "--store", "r.db"], "__init__", "fleet.store",
     "r.db"),
    (ROLLOUT + ["--resume", "--store", "r.db"], "__init__",
     "fleet.rollout.resume", True),
    (ROLLOUT + ["--metrics-dump", "m.prom"], "__init__",
     "fleet.rollout.metrics_dump", "m.prom"),
    (["fleet", "enroll", "--devices", "3"], "__init__", "fleet.size", 3),
    (["fleet", "status", "--loss", "0.5"], "__init__", "fleet.loss", 0.5),
    (["fleet", "metrics", "--seed", "2"], "__init__", "fleet.seed", 2),
    (SERVE + ["--devices", "7"], "FleetSimulation", "size", 7),
    (SERVE + ["--security", "eilid"], "FleetSimulation", "security", "eilid"),
    (SERVE + ["--loss", "0.1"], "FleetSimulation", "loss", 0.1),
    (SERVE + ["--reorder", "0.2"], "FleetSimulation", "reorder", 0.2),
    (SERVE + ["--seed", "9"], "FleetSimulation", "seed", 9),
    (SERVE + ["--events", "e.db"], "FleetSimulation", "events", "e.db"),
    (SERVE + ["--alerts"], "FleetSimulation", "alerts", True),
    (SERVE + ["--alert", "replay-burst=3"], "FleetSimulation", "alerts",
     {"replay-burst": 3.0}),
])
def test_every_flag_reaches_its_field(run_until, argv, stop, path, value):
    assert _field(run_until(argv, stop)[stop], path) == value


@pytest.mark.parametrize("argv,message", [
    (["run-app", "nonsense"], "firmware.app: "),
    (["attack", "nonsense"], "attack: "),
    (["cfg", "build", "nonsense"], "firmware.app: "),
    (["faults", "enumerate", "--kinds", "nope"], "faults.kinds: "),
    (["faults", "sweep", "--count", "0"], "faults.count: "),
    (["analyze", "--stack-margin", "-1"], "analyze.stack_margin: "),
    (["analyze", "--sweep", "--profiles", "bogus"], "faults.profiles: "),
    (["fleet", "enroll", "--devices", "-3"], "fleet.size: "),
    (["fleet", "status", "--loss", "2"], "fleet.loss: "),
    (["fleet", "metrics", "--reorder", "-1"], "fleet.reorder: "),
    (ROLLOUT + ["--waves", "0.5,0.2,1.0"], "fleet.rollout.wave_fractions: "),
    (ROLLOUT + ["--version", "0"], "fleet.rollout.version: "),
    (ROLLOUT + ["--alert", "no-such-rule=1"], "fleet.alerts.no-such-rule: "),
    (SERVE + ["--loss", "1.5"], "fleet.loss: "),
])
def test_bad_value_is_the_spec_error(argv, message, capsys):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--backend", "serial"],
                                  ["--workers", "2"]])
def test_rollout_has_no_executor_flags(flag, capsys):
    assert main(ROLLOUT + flag) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_alert_replay_names_an_unknown_rule(tmp_path, capsys):
    from repro.obs import open_event_log

    path = str(tmp_path / "events.jsonl")
    open_event_log(path).close()
    assert main(["fleet", "alerts", "--events", path, "--replay",
                 "--alert", "no-such-rule=1"]) == 1
    assert "alerts.no-such-rule: " in capsys.readouterr().err
