"""Command-line interface: ``eilid <command>``.

Every subcommand is a thin adapter over the public scenario API
(:mod:`repro.api`): flags are folded into a declarative
:class:`~repro.api.ScenarioSpec`, a :class:`~repro.api.Session` runs
the pipeline, and the typed outcome decides the exit code.  A flag
that sets a spec field is named after that field (its ``dest``: e.g.
``--devices`` sets ``FleetSpec.size``, ``--waves``
``RolloutSpec.wave_fractions``) and declares no default of its own: a
flag left unset keeps the field's default, and the spec's own
``validate()`` judges every value.  The few CLI-only defaults are
``faults sweep``/``analyze --count 48`` (``FaultSpec.count=None``
would sweep every site), ``--security casu`` on the fleet verbs, each
verb's ``--variant``, ``cfg verify-trace --security none``, and
``fleet rollout``'s ``run_cycles=0``.

Commands:

* ``tables [--table N] [--repeats N]`` -- regenerate paper tables
  (Table IV measures; expect a couple of minutes at default repeats).
* ``figure10`` -- hardware overhead comparison.
* ``micro`` -- per-operation instrumentation costs (Sec. VI in-text).
* ``run-app NAME [--variant original|eilid]`` -- build + execute one
  Table IV application and print its run summary.
* ``attack NAME [--security none|casu|eilid]`` -- run one attack.
* ``verify`` -- model-check the FSMs generated from the monitor's rule
  table.
* ``fleet enroll|status|rollout|history|watch|alerts|metrics`` --
  simulate a verifier managing a population of devices (see
  :mod:`repro.fleet`).  ``--store PATH`` makes the verifier's registry
  durable across invocations (SQLite or JSON lines by extension);
  ``--events PATH`` records the longitudinal telemetry log the same
  way, and ``fleet history`` replays it (per-device timelines,
  per-campaign rollups, cross-campaign trends) without building a
  fleet; ``rollout --backend process`` shards the campaign across
  worker processes, and ``rollout --resume`` continues a killed
  campaign from the store without re-offering applied devices.
  Live observability: ``--alerts`` / ``--alert NAME=THRESHOLD``
  attach the rule engine (:mod:`repro.obs.alerts`) so spikes fire
  ``alert`` events into the same log; ``fleet watch --follow`` tails
  an event DB another process is writing (one line -- or, with
  ``--json``, one JSON document -- per event: the one subcommand that
  streams JSONL rather than a single envelope); ``fleet alerts``
  lists recorded alerts or re-evaluates rules offline (``--replay``);
  ``fleet metrics --format prom|json`` exports the span-derived
  metrics registry, either live or from a ``rollout --metrics-dump``
  snapshot file.
* ``cfg build|diff|verify-trace`` -- binary CFG recovery, CFI-policy
  compilation/cross-check, and branch-trace replay
  (see :mod:`repro.cfg`).

Every subcommand accepts ``--json``: instead of the human-readable
text it emits one JSON document that parses cleanly and carries
``schema`` and ``version`` keys (the result-dataclass envelopes from
:mod:`repro.api.results`).  Exit codes are unchanged by ``--json``.

Exit codes (consistent across subcommands):

* ``0`` -- success: the requested run completed and nothing bad
  happened (an attack was contained, properties hold, the app ran
  clean, a rollout completed).
* ``1`` -- usage error: unknown app/attack name, bad flag values.
* ``2`` -- security failure: an attack hijacked the device, a
  verification property failed, an app run tripped violations or never
  finished, or fleet devices could not be enrolled/attested.
* ``3`` -- fleet rollout halted by the campaign failure threshold.
"""

import argparse
import json
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SECURITY = 2
EXIT_HALTED = 3


class _UsageError(Exception):
    """Bad names or flag values; rendered as a clean message + exit 1."""


def _print_json(doc: dict):
    print(json.dumps(doc, sort_keys=False))


def _spec(cls, args, **fixed):
    """Build spec *cls* from the flags named after its fields, validated.

    A flag left unset (None) keeps the field default; *fixed* sets the
    fields the verb decides itself."""
    from dataclasses import fields

    values = {field.name: getattr(args, field.name) for field in fields(cls)
              if getattr(args, field.name, None) is not None}
    values.update(fixed)
    return cls(**values).validate()


def _csv(item=str):
    """An argparse type: a comma-separated list of *item* values."""
    def parse(text):
        return tuple(item(part.strip()) for part in text.split(",")
                     if part.strip())

    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def _alert_override(text):
    """An argparse type: ``NAME=THRESHOLD`` as a (name, number) pair."""
    name, separator, value = text.partition("=")
    try:
        if separator:
            return name, float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"wants NAME=THRESHOLD with a numeric threshold, got {text!r}")


# ---- paper evaluation ------------------------------------------------------


def _cmd_tables(args):
    from repro.api import envelope
    from repro.eval import (
        measure_table4,
        render_table1,
        render_table2,
        render_table3,
        render_table4,
    )

    wanted = args.table
    sections = {}
    texts = []
    for number, render in ((1, render_table1), (2, render_table2),
                           (3, render_table3)):
        if wanted in (None, number):
            text = render()
            texts.append(text)
            sections[f"table{number}"] = {"text": text}
    if wanted in (None, 4):
        rows = measure_table4(repeats=args.repeats)
        texts.append(render_table4(rows))
        sections["table4"] = {
            "repeats": args.repeats,
            "rows": [
                {
                    "name": row.name,
                    "title": row.title,
                    "compile_ms_orig": round(row.compile_ms_orig, 3),
                    "compile_ms_eilid": round(row.compile_ms_eilid, 3),
                    "size_bytes_orig": row.size_bytes_orig,
                    "size_bytes_eilid": row.size_bytes_eilid,
                    "run_us_orig": round(row.run_us_orig, 2),
                    "run_us_eilid": round(row.run_us_eilid, 2),
                    "size_overhead_pct": round(row.size_overhead_pct, 2),
                    "run_overhead_pct": round(row.run_overhead_pct, 2),
                }
                for row in rows
            ],
        }
    if args.json:
        _print_json(envelope("cli.tables", tables=sections))
    else:
        print("\n\n".join(texts))
    return EXIT_OK


def _cmd_figure10(args):
    from repro.api import envelope
    from repro.eval import render_figure10
    from repro.eval.figure10 import generate_figure10

    data = generate_figure10()
    if args.json:
        _print_json(envelope(
            "cli.figure10",
            series=[
                {"name": name, "kind": kind, "platform": platform,
                 "luts": luts, "registers": registers}
                for name, kind, platform, luts, registers in zip(
                    data.names, data.kinds, data.platforms,
                    data.luts, data.registers)
            ],
            eilid_lut_pct=round(data.eilid_lut_pct, 2),
            eilid_register_pct=round(data.eilid_register_pct, 2),
        ))
    else:
        print(render_figure10(data))
    return EXIT_OK


def _cmd_micro(args):
    from repro.api import envelope
    from repro.eval import render_micro
    from repro.eval.microbench import measure_micro

    result = measure_micro()
    if args.json:
        _print_json(envelope(
            "cli.micro",
            store_cycles=result.store_cycles,
            check_cycles=result.check_cycles,
            store_instructions=result.store_instructions,
            check_instructions=result.check_instructions,
            store_us=result.store_us,
            check_us=result.check_us,
        ))
    else:
        print(render_micro(result))
    return EXIT_OK


# ---- single-device scenarios -----------------------------------------------


def _cmd_run_app(args):
    from repro.api import FirmwareSpec, ScenarioSpec, Session
    from repro.apps import get_app

    security = "eilid" if args.variant == "eilid" else "none"
    session = Session(ScenarioSpec(
        name=args.name,
        firmware=FirmwareSpec(kind="app", app=args.name, variant=args.variant),
        security=security,
    ))
    outcome = session.run()
    if args.json:
        _print_json(outcome.to_dict())
    else:
        spec = get_app(args.name)
        print(f"{spec.title} ({args.variant}): done={outcome.done} "
              f"cycles={outcome.cycles} ({outcome.run_time_us:.1f} us @100MHz) "
              f"violations={len(outcome.violations)}")
        for port, value in session.device.output_events()[:20]:
            print(f"  {port} = 0x{value:04x}")
    return EXIT_OK if outcome.ok else EXIT_SECURITY


def _cmd_attack(args):
    from repro.api import ScenarioSpec, Session

    session = Session(_spec(ScenarioSpec, args, attack=args.name))
    outcome = session.run()
    if args.json:
        _print_json(outcome.to_dict())
    else:
        print(session.attack_result)
    if outcome.attack.outcome == "hijacked":
        return EXIT_SECURITY  # the attack went through undetected
    return EXIT_OK


def _cmd_verify(args):
    from repro.api import envelope
    from repro.verification.properties import check_all

    results = check_all()
    failures = sum(0 if result.holds else 1 for result in results)
    if args.json:
        _print_json(envelope(
            "cli.verify",
            ok=failures == 0,
            properties=[
                {"name": result.property_name, "holds": result.holds,
                 "states_explored": result.states_explored}
                for result in results
            ],
        ))
    else:
        for result in results:
            print(result)
    return EXIT_SECURITY if failures else EXIT_OK


# ---- cfg -------------------------------------------------------------------


def _cfg_build_app(args):
    """Shared front half of the cfg commands: build + recover + compile."""
    from repro.api import FirmwareSpec, build_firmware
    from repro.cfg import compile_policy, recover_cfg

    build = build_firmware(FirmwareSpec(
        kind="app", app=args.name, variant=args.variant).validate())
    cfg = recover_cfg(build.program)
    policy = compile_policy(cfg, symbols=build.program.symbols)
    return build, cfg, policy


def _cmd_cfg_build(args):
    _build, cfg, policy = _cfg_build_app(args)
    if args.json:
        # The policy artifact itself IS the payload: schema/version
        # envelope keys are merged in, and the document stays loadable
        # by CfiPolicy.from_json (its own "format" key is preserved).
        from repro.api import envelope

        _print_json(envelope(
            "cfg.policy",
            indirect_targets_registered=policy.indirect_from_table,
            indirect_target_count=len(policy.indirect_targets),
            **policy.to_dict()))
        return EXIT_OK
    print(f"{cfg.name}: {len(cfg.insns)} instructions, "
          f"{len(cfg.functions)} functions, {cfg.block_count} blocks")
    print(f"  call sites: {len(cfg.call_sites)} "
          f"({sum(1 for s in cfg.call_sites if s.target is None)} indirect)")
    print(f"  return sites: {len(cfg.return_sites)}")
    source = ("EILID call table" if cfg.indirect_targets_registered
              else "UNREGISTERED fallback: all discovered entries")
    print(f"  indirect targets registered: "
          f"{cfg.indirect_targets_registered}")
    print(f"  indirect targets ({source}, {len(cfg.indirect_targets)}): "
          + ", ".join(f"0x{a:04x}" for a in cfg.indirect_targets))
    print(f"  ISR vectors: {len([v for v in cfg.vectors if v != 15])}, "
          f"reti sites: {len(cfg.reti_sites)}")
    print(f"  policy digest: {policy.digest}")
    for func in cfg.functions.values():
        callees = sorted(cfg.call_graph.get(func.name, ()))
        arrow = f" -> {', '.join(callees)}" if callees else ""
        print(f"    {func.name} @0x{func.entry:04x} "
              f"[{func.block_count} blocks]{arrow}")
    return EXIT_OK


def _cmd_cfg_diff(args):
    build, _cfg, policy = _cfg_build_app(args)
    from repro.api import envelope
    from repro.cfg import diff_against_listing

    divergences = diff_against_listing(policy, build.listing)
    if args.json:
        _print_json(envelope(
            "cli.cfg-diff",
            app=args.name,
            variant=args.variant,
            ok=not divergences,
            policy_digest=policy.digest,
            divergences=list(divergences),
        ))
        return EXIT_OK if not divergences else EXIT_SECURITY
    if not divergences:
        print(f"{args.name} ({args.variant}): binary-derived policy matches "
              f"the listing-derived view "
              f"({len(policy.return_sites)} return sites, "
              f"{len(policy.indirect_targets)} indirect targets)")
        return EXIT_OK
    print(f"{args.name} ({args.variant}): {len(divergences)} divergence(s):")
    for line in divergences:
        print(f"  {line}")
    return EXIT_SECURITY


def _cmd_cfg_verify_trace(args):
    from repro.api import FirmwareSpec, ScenarioSpec, Session

    if args.attack:
        session = Session(_spec(ScenarioSpec, args, name=args.attack))
        outcome = session.run()
        banner = str(session.attack_result)
    else:
        from repro.apps import get_app

        variant = args.variant
        session = Session(ScenarioSpec(
            name=args.name,
            firmware=FirmwareSpec(kind="app", app=args.name, variant=variant),
            security="eilid" if variant == "eilid" else "none",
        ))
        outcome = session.run()
        banner = (f"{get_app(args.name).title} ({variant}): "
                  f"done={outcome.done} cycles={outcome.cycles}")
    verdict = session.verify()
    if args.json:
        _print_json(verdict.to_dict())
    else:
        print(banner)
        snapshot = session.device.trace_snapshot()
        print(f"trace: {snapshot.total} edges ({snapshot.dropped} dropped), "
              f"digest {snapshot.digest_hex}")
        if verdict.ok:
            print(f"replay ok ({verdict.edges_checked} edges)")
        else:
            print(f"replay REJECTED: {verdict.reason}")
    return EXIT_OK if verdict.ok else EXIT_SECURITY


# ---- faults ----------------------------------------------------------------


def _cmd_faults_enumerate(args):
    from repro.api import FaultSpec, FirmwareSpec, build_firmware, envelope
    from repro.cfg import recover_cfg
    from repro.faults import enumerate_sites

    kinds = _spec(FaultSpec, args).kinds
    build = build_firmware(FirmwareSpec(
        kind="app", app=args.name, variant=args.variant).validate())
    cfg = recover_cfg(build.program, name=args.name)
    sites = enumerate_sites(cfg, kinds=kinds)
    counts = {}
    for site in sites:
        counts[site.kind] = counts.get(site.kind, 0) + 1
    if args.json:
        _print_json(envelope(
            "cli.faults-enumerate",
            app=args.name, variant=args.variant,
            total=len(sites), kinds=counts,
            sites=[{"kind": site.kind, "pc": site.pc,
                    "function": site.function, "block": site.block}
                   for site in sites]))
        return EXIT_OK
    print(f"{args.name} ({args.variant}): {len(sites)} fault sites "
          f"from {len(cfg.functions)} functions / {cfg.block_count} blocks")
    for kind in sorted(counts):
        print(f"  {kind}: {counts[kind]}")
    return EXIT_OK


def _cmd_faults_sweep(args):
    from repro.api import FaultSpec, FirmwareSpec, ScenarioSpec, Session, envelope

    plan = _spec(FaultSpec, args)
    session = Session(ScenarioSpec(
        name=args.name,
        firmware=FirmwareSpec(kind="app", app=args.name,
                              variant=args.variant)))
    events = None
    if args.events:
        from repro.obs.events import open_event_log

        events = open_event_log(args.events)
    try:
        report = session.fault_sweep(plan, events=events)
    finally:
        if events is not None:
            events.close()
    if args.json:
        _print_json(envelope("cli.faults-sweep", **report.to_dict()))
    else:
        print(report.render())
    return EXIT_OK


# ---- static analysis --------------------------------------------------------


def _cmd_analyze(args):
    from repro.api import (
        AnalyzeSpec,
        FaultSpec,
        FirmwareSpec,
        ScenarioSpec,
        Session,
    )

    spec = _spec(AnalyzeSpec, args)
    plan = _spec(FaultSpec, args) if args.sweep else None
    if args.attack:
        scenario = ScenarioSpec(name=args.attack, attack=args.attack)
    else:
        scenario = ScenarioSpec(
            name=args.name,
            firmware=FirmwareSpec(kind="app", app=args.name,
                                  variant=args.variant))
    session = Session(scenario)
    fault_report = None if plan is None else session.fault_sweep(plan)

    events = None
    if args.events:
        from repro.obs.events import open_event_log

        events = open_event_log(args.events)
    try:
        outcome = session.analyze(spec, events=events,
                                  fault_report=fault_report)
    finally:
        if events is not None:
            events.close()

    if args.json:
        _print_json(outcome.to_dict())
    else:
        print(session.analysis_report.render())
        if outcome.correlation is not None:
            clusters = outcome.correlation["clusters"]
            proposals = outcome.correlation["proposals"]
            print(f"sweep correlation: {len(clusters)} escape cluster(s), "
                  f"{len(proposals)} proposed tightening(s)")
            for cluster in clusters:
                where = (f"block 0x{cluster['block']:04x}"
                         if cluster["block"] is not None else "unmapped")
                print(f"  [{cluster['profile']}] {where} "
                      f"({cluster['function'] or '?'}): "
                      f"{len(cluster['fault_ids'])} fault(s), "
                      f"findings={len(cluster['findings'])}")
            for proposal in proposals:
                print(f"  propose {proposal['action']}: "
                      f"{proposal['reason']}")
    return EXIT_OK if outcome.ok else EXIT_SECURITY


# ---- fleet -----------------------------------------------------------------


def _alerts_config(args):
    """``--alerts`` / ``--alert NAME=THRESHOLD`` in the FleetSpec.alerts
    shape: None (engine off), True (default panel) or a {rule:
    threshold} dict (the spec's validation names unknown rules)."""
    if args.alert:
        return dict(args.alert)
    return getattr(args, "alerts", None)


def _fleet_scenario(args, **fleet):
    """The fleet verbs' scenario, from the fleet flags and *fleet*."""
    from repro.api import FleetSpec, ScenarioSpec

    return _spec(ScenarioSpec, args, name="fleet", fleet=_spec(
        FleetSpec, args, alerts=_alerts_config(args), **fleet))


def _fleet_session(args, **fleet):
    from repro.api import Session

    return Session(_fleet_scenario(args, **fleet))


def _cmd_fleet_enroll(args):
    from repro.api import envelope

    session = _fleet_session(args)
    spec = session.spec
    fleet = session.fleet
    failed = [record.device_id for record in fleet.registry
              if not record.enrolled_ok]
    states = {state: count
              for state, count in sorted(fleet.registry.state_histogram().items())}
    if args.json:
        _print_json(envelope(
            "cli.fleet-enroll",
            ok=not failed,
            devices=len(fleet.registry),
            enrolled=len(fleet.registry) - len(failed),
            security=spec.security,
            loss=spec.fleet.loss,
            states=states,
        ))
    else:
        print(f"enrolled {len(fleet.registry) - len(failed)}/{len(fleet.registry)} "
              f"devices (security={spec.security}, loss={spec.fleet.loss})")
        for state, count in states.items():
            print(f"  {state}: {count}")
    return EXIT_SECURITY if failed else EXIT_OK


def _fleet_client(url):
    from repro.serve import FleetClient

    return FleetClient(url)


def _cmd_fleet_status(args):
    if getattr(args, "url", None):
        return _fleet_status_url(args)
    session = _fleet_session(args)
    session.run()
    attest = session.attest()
    if args.json:
        # Additive keys on the eilid.attest envelope: what this run
        # observed always, the longitudinal per-device rollup when an
        # event DB is attached (last-seen, quarantine reason, campaign
        # count -- the questions "which device went dark and why").
        doc = attest.to_dict()
        doc["telemetry"] = session.fleet.observed()
        if args.events:
            doc["history"] = session.fleet.events.device_rollup()
        _print_json(doc)
    else:
        print(session.fleet.status())
    return EXIT_OK if attest.ok else EXIT_SECURITY


def _fleet_status_url(args):
    """Ask a running serve daemon instead of opening the store --
    the daemon already holds the SQLite writers; a second process
    opening the same shards would contend with it."""
    from repro.serve import ServeError

    client = _fleet_client(args.url)
    try:
        status = client.status()
    except (ConnectionError, OSError, ServeError) as error:
        raise _UsageError(
            f"cannot reach a serve daemon at {args.url!r}: {error}"
        ) from None
    attest = None
    try:
        attest = client.attest()
    except ServeError as error:
        if error.status != 409:  # 409: a campaign holds the fleet
            raise _UsageError(f"daemon attest failed: {error}") from None
    finally:
        client.close()
    if args.json:
        doc = dict(attest) if attest is not None else {}
        doc["daemon"] = status
        doc.setdefault("schema", "eilid.serve.status")
        doc.setdefault("version", status.get("version", 1))
        _print_json(doc)
    else:
        states = ", ".join(f"{state}: {count}" for state, count
                           in sorted(status["states"].items()))
        print(f"daemon at {status['url']}: {status['devices']} devices "
              f"({states}); store {status['store']['backend']} x"
              f"{status['store']['shards']}")
        if attest is None:
            running = [cid for cid, entry in status["campaigns"].items()
                       if entry["running"]]
            print(f"attest skipped: campaign "
                  f"{', '.join(running) or '?'} in flight")
        else:
            print(f"attested {attest['attested']} devices, "
                  f"{len(attest['failed'])} failures")
            for failure in attest["failed"]:
                print(f"  {failure['device']}: {failure['detail']} "
                      f"-> {failure['state']}")
    return EXIT_SECURITY if attest is not None and not attest["ok"] \
        else EXIT_OK


def _event_line(event: dict) -> str:
    """One compact human-readable cell for an event's payload."""
    data = event.get("data") or {}
    parts = [f"{key}={data[key]}" for key in sorted(data)]
    return " ".join(parts)[:60]


def _cmd_fleet_history(args):
    import os

    from repro.api import envelope
    from repro.eval.report import render_table
    from repro.obs import open_event_log

    path = args.events
    if not path:
        raise _UsageError("fleet history needs --events PATH (the event DB "
                          "a previous invocation recorded to)")
    if path != ":memory:" and not os.path.exists(path):
        raise _UsageError(f"no event DB at {path!r}")
    log = open_event_log(path)
    try:
        if args.device:
            timeline = log.device_timeline(args.device)
            if args.json:
                _print_json(envelope("cli.fleet-history", events=path,
                                     device=args.device, timeline=timeline))
            else:
                rows = [(event["seq"], event["kind"],
                         event["campaign"] or "-", _event_line(event))
                        for event in timeline]
                print(render_table(("seq", "event", "campaign", "detail"),
                                   rows, title=f"timeline of {args.device} "
                                               f"({len(rows)} events)"))
        elif args.campaigns:
            rollup = log.campaign_rollup()
            if args.json:
                _print_json(envelope("cli.fleet-history", events=path,
                                     campaigns=rollup))
            else:
                rows = [(entry["campaign"], entry["target_version"],
                         entry["status"], entry["applied"], entry["failed"],
                         entry["quarantined"], entry["devices_per_sec"])
                        for entry in rollup]
                print(render_table(
                    ("campaign", "target", "status", "applied", "failed",
                     "quarantined", "dev/s"), rows,
                    title=f"{len(rows)} campaigns"))
        elif args.trends:
            trends = log.trends()
            if args.json:
                _print_json(envelope("cli.fleet-history", events=path,
                                     trends=trends))
            else:
                rows = list(zip(trends["campaigns"],
                                trends["target_versions"],
                                trends["devices_per_sec"],
                                trends["applied"], trends["failed"],
                                trends["quarantined"]))
                print(render_table(
                    ("campaign", "target", "dev/s", "applied", "failed",
                     "quarantined"), rows, title="cross-campaign trends"))
        else:
            rollup = log.device_rollup()
            if args.json:
                _print_json(envelope("cli.fleet-history", events=path,
                                     devices=rollup))
            else:
                rows = [(device_id, entry["events"], entry["attests"],
                         entry["attest_failures"], entry["campaigns"],
                         entry["quarantine_reason"] or "-")
                        for device_id, entry in sorted(rollup.items())]
                print(render_table(
                    ("device", "events", "attests", "failures", "campaigns",
                     "quarantine"), rows,
                    title=f"{len(rows)} devices with history"))
    finally:
        log.close()
    return EXIT_OK


def _cmd_fleet_rollout(args):
    from repro.api import RolloutSpec

    rollout = _spec(RolloutSpec, args)
    if args.resume and not args.store:
        raise _UsageError("--resume needs --store (the durable registry "
                          "the campaign resumes from)")
    # The rollout command has no pre-run phase (it measures campaign
    # throughput, not device execution), matching the historical CLI.
    session = _fleet_session(args, rollout=rollout, run_cycles=0)
    outcome = session.run()
    if args.json:
        _print_json(outcome.to_dict())
    else:
        print(session.campaign_report.render())
        print()
        print(session.fleet.status())
        engine = session.fleet.alerts
        if engine is not None and engine.fired:
            print()
            for alert in engine.fired:
                print(f"ALERT[{alert['severity']}] {alert['rule']} "
                      f"({alert['campaign'] or '-'}): {alert['message']}")
    return EXIT_HALTED if session.campaign_report.halted else EXIT_OK


def _watch_line(doc: dict) -> str:
    """One human-readable line per streamed event."""
    campaign = doc["campaign"] or "-"
    device = doc["device"] or "-"
    if doc["kind"] == "alert":
        data = doc["data"]
        return (f"#{doc['seq']} ALERT[{data.get('severity', '?')}] "
                f"{data.get('rule', '?')} {campaign}: "
                f"{data.get('message', '')}")
    return (f"#{doc['seq']} {doc['kind']:<14} {device:<12} {campaign:<6} "
            f"{_event_line(doc)}")


def _fleet_watch_url(args):
    """Stream the event log from a running daemon (GET /events) --
    same lines, same exit contract as the file-tail path, without
    touching the daemon's store or event DB files."""
    import socket

    from repro.serve import ServeError

    client = _fleet_client(args.url)
    streamed = alerts = last_seq = 0
    try:
        stream = client.events(since=args.since, follow=args.follow,
                               timeout=args.timeout or None)
        for doc in stream:
            streamed += 1
            last_seq = doc["seq"]
            if doc["kind"] == "alert":
                alerts += 1
            if args.json:
                print(json.dumps(doc, sort_keys=True), flush=True)
            else:
                print(_watch_line(doc), flush=True)
            if args.until_end and doc["kind"] == "campaign-end":
                break
    except (socket.timeout, TimeoutError):
        pass  # --timeout expired between events; what streamed counts
    except (ConnectionError, OSError, ServeError) as error:
        raise _UsageError(
            f"cannot stream from a serve daemon at {args.url!r}: {error}"
        ) from None
    except KeyboardInterrupt:
        pass
    if not args.json:
        print(f"-- {streamed} events (through seq {last_seq}), "
              f"{alerts} alerts")
    return EXIT_SECURITY if alerts else EXIT_OK


def _cmd_fleet_watch(args):
    import os
    import time

    from repro.obs import open_event_tail

    if getattr(args, "url", None):
        return _fleet_watch_url(args)
    path = args.events
    if not path:
        raise _UsageError("fleet watch needs --events PATH (the event DB a "
                          "running fleet invocation writes to)")
    if not args.follow and path != ":memory:" and not os.path.exists(path):
        # With --follow the writer may simply not have created the
        # file yet; without it an absent DB is an operator typo.
        raise _UsageError(f"no event DB at {path!r} (use --follow to wait "
                          f"for a writer to create it)")
    tail = open_event_tail(path, since_seq=args.since)
    deadline = (time.monotonic() + args.timeout) if args.timeout else None
    streamed = alerts = 0
    ended = False
    try:
        while True:
            for doc in tail.read():
                streamed += 1
                if doc["kind"] == "alert":
                    alerts += 1
                elif doc["kind"] == "campaign-end":
                    ended = True
                if args.json:
                    # A JSONL stream (one document per event), not the
                    # usual single envelope: watch is a pipe, and each
                    # line parses on its own.
                    print(json.dumps(doc, sort_keys=True), flush=True)
                else:
                    print(_watch_line(doc), flush=True)
            if not args.follow:
                break
            if args.until_end and ended:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        tail.close()
    if not args.json:
        print(f"-- {streamed} events (through seq {tail.last_seq}), "
              f"{alerts} alerts")
    return EXIT_SECURITY if alerts else EXIT_OK


def _cmd_fleet_alerts(args):
    import os

    from repro.api import FleetSpec, envelope
    from repro.eval.report import render_table
    from repro.obs import open_event_log
    from repro.obs.alerts import AlertEngine, build_rules

    path = args.events
    if not path:
        raise _UsageError("fleet alerts needs --events PATH (the event DB "
                          "a previous fleet invocation recorded to)")
    if path != ":memory:" and not os.path.exists(path):
        raise _UsageError(f"no event DB at {path!r}")
    log = open_event_log(path)
    try:
        recorded = [dict(event["data"], campaign=event["campaign"],
                         ts=event["ts"], seq=event["seq"])
                    for event in log.events(kind="alert")]
        replayed = None
        if args.replay:
            # Re-evaluate the rule panel over the stored history --
            # the path for logs recorded without a live engine (or
            # with different thresholds).  Nothing is written back.
            config = FleetSpec(alerts=_alerts_config(args)).validate().alerts
            engine = AlertEngine(build_rules(config))
            replayed = engine.replay(log)
    finally:
        log.close()
    shown = replayed if args.replay else recorded
    if args.json:
        doc = envelope("cli.fleet-alerts", events=path,
                       recorded=recorded, replayed=replayed,
                       alerts=shown)
        _print_json(doc)
    else:
        rows = [(alert.get("severity", "?"), alert.get("rule", "?"),
                 alert.get("campaign") or "-", alert.get("message", ""))
                for alert in shown]
        mode = "replayed" if args.replay else "recorded"
        print(render_table(("severity", "rule", "campaign", "message"), rows,
                           title=f"{len(rows)} {mode} alerts"))
    critical = any(alert.get("severity") == "critical" for alert in shown)
    return EXIT_SECURITY if critical else EXIT_OK


def _cmd_fleet_metrics(args):
    from repro.obs.export import to_json_doc, to_prometheus

    source = None
    if args.snapshot:
        import os

        if not os.path.exists(args.snapshot):
            raise _UsageError(f"no metrics snapshot at {args.snapshot!r}")
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError:
                raise _UsageError(
                    f"{args.snapshot!r} is not a JSON metrics snapshot "
                    f"(--from wants the json dump; a .prom dump is already "
                    f"in exposition format)") from None
        # Accept both the enveloped dump (--metrics-dump / periodic
        # wave dumps) and a bare registry snapshot.
        snapshot = doc.get("metrics", doc)
        source = doc.get("source", args.snapshot)
    else:
        # No snapshot file: run the fleet workload the usual flags
        # describe and export what this process recorded.
        session = _fleet_session(args)
        session.run()
        session.attest()
        snapshot = session.metrics()
    fmt = "json" if args.json else args.format
    if fmt == "prom":
        print(to_prometheus(snapshot), end="")
    else:
        _print_json(to_json_doc(snapshot, source=source))
    return EXIT_OK


# ---- serve -----------------------------------------------------------------


def _cmd_serve_run(args):
    """Run the fleet control-plane daemon until SIGTERM/SIGINT.

    Exit contract: 0 after a graceful shutdown (in-flight exchanges
    drained, every shard store and the event log flushed), 1 on usage
    errors (bad flags, unbindable port).  A campaign stopped by the
    shutdown is not an error -- it resumes with ``fleet rollout
    --resume`` against the same shards.
    """
    import asyncio
    import gc

    from repro.api import envelope
    from repro.fleet.simulation import FleetSimulation
    from repro.serve import VerifierDaemon, open_sharded_store

    spec = _fleet_scenario(args)
    store = open_sharded_store(args.store_shard)
    # Building a large fleet allocates one simulated device per record
    # with zero garbage; collector passes over the growing heap only
    # slow the build down.  Freeze what the build allocated afterwards
    # so steady-state collections skip it too.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        fleet = FleetSimulation(
            size=spec.fleet.size, security=spec.security,
            loss=spec.fleet.loss, reorder=spec.fleet.reorder,
            seed=spec.fleet.seed, store=store, events=spec.fleet.events,
            alerts=spec.fleet.alerts)
    finally:
        gc.freeze()
        if gc_was_enabled:
            gc.enable()
    daemon = VerifierDaemon(fleet, host=args.host, port=args.port,
                            max_workers=args.workers or 0)

    def ready(d):
        # The readiness line is a contract: subprocess drivers (the
        # demo, tests) block on it to learn the bound port.  Flush
        # explicitly -- stdout is block-buffered under a pipe.
        if args.json:
            print(json.dumps(envelope(
                "serve.ready", url=d.url, host=d.host, port=d.port,
                devices=len(fleet.registry),
                shards=len(getattr(store, "stores", [store]))),
                sort_keys=True), flush=True)
        else:
            print(f"serving {len(fleet.registry)} devices at {d.url} "
                  f"(SIGTERM for graceful shutdown)", flush=True)

    try:
        asyncio.run(daemon.run(ready=ready))
    except OSError as error:
        raise _UsageError(
            f"cannot bind {args.host}:{args.port}: {error}") from None
    finally:
        store.close()
        if fleet.events is not None:
            fleet.events.close()
    if args.json:
        print(json.dumps(envelope("serve.shutdown", ok=True,
                                  devices=len(fleet.registry)),
                         sort_keys=True), flush=True)
    else:
        print("shutdown: drained, flushed, stores closed", flush=True)
    return EXIT_OK


# ---- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; our contract reserves 2 for
    security failures, so parse errors are rerouted to exit 1."""

    def error(self, message):
        raise _UsageError(message)


def main(argv=None):
    import repro
    from repro.api.spec import SECURITY_PROFILES, VARIANTS, SpecError
    from repro.faults.campaign import FAULT_BACKENDS
    from repro.fleet.campaign import CAMPAIGN_BACKENDS

    parser = _Parser(prog="eilid", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {repro.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document (schema + version keys) "
                            "instead of text")

    p_tables = sub.add_parser("tables", help="regenerate paper tables")
    p_tables.add_argument("--table", type=int, choices=(1, 2, 3, 4))
    p_tables.add_argument("--repeats", type=int, default=3)
    add_json(p_tables)
    p_tables.set_defaults(func=_cmd_tables)

    p_fig = sub.add_parser("figure10", help="hardware overhead comparison")
    add_json(p_fig)
    p_fig.set_defaults(func=_cmd_figure10)

    p_micro = sub.add_parser("micro", help="per-op instrumentation cost")
    add_json(p_micro)
    p_micro.set_defaults(func=_cmd_micro)

    p_run = sub.add_parser("run-app", help="run one Table IV application")
    p_run.add_argument("name")
    p_run.add_argument("--variant", choices=VARIANTS, default="eilid")
    add_json(p_run)
    p_run.set_defaults(func=_cmd_run_app)

    p_attack = sub.add_parser("attack", help="run one attack scenario")
    p_attack.add_argument("name")
    p_attack.add_argument("--security", choices=SECURITY_PROFILES)
    add_json(p_attack)
    p_attack.set_defaults(func=_cmd_attack)

    p_verify = sub.add_parser(
        "verify", help="model-check the FSMs generated from the monitor's "
                       "rule table")
    add_json(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_cfg = sub.add_parser("cfg", help="binary CFG recovery + trace attestation")
    cfg_sub = p_cfg.add_subparsers(dest="cfg_command", required=True)

    def cfg_common(p):
        p.add_argument("name", nargs="?", default="fire_sensor",
                       help="Table IV application name")
        p.add_argument("--variant", choices=VARIANTS, default="eilid")
        add_json(p)

    p_cfg_build = cfg_sub.add_parser(
        "build", help="recover the CFG and compile its CFI policy")
    cfg_common(p_cfg_build)
    p_cfg_build.set_defaults(func=_cmd_cfg_build)

    p_cfg_diff = cfg_sub.add_parser(
        "diff", help="cross-check the binary policy against the listing view")
    cfg_common(p_cfg_diff)
    p_cfg_diff.set_defaults(func=_cmd_cfg_diff)

    p_cfg_verify = cfg_sub.add_parser(
        "verify-trace", help="run an app or attack and replay its branch trace")
    cfg_common(p_cfg_verify)
    p_cfg_verify.add_argument("--attack", default=None,
                              help="replay an attack scenario's trace instead")
    p_cfg_verify.add_argument("--security", choices=SECURITY_PROFILES,
                              default="none",
                              help="device security level for --attack runs "
                                   "(default none: the undefended trace)")
    p_cfg_verify.set_defaults(func=_cmd_cfg_verify_trace)

    p_faults = sub.add_parser(
        "faults", help="CFG-driven fault-injection campaigns")
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)

    def faults_common(p):
        p.add_argument("name", nargs="?", default="light_sensor",
                       help="Table IV application name")
        p.add_argument("--variant", choices=VARIANTS, default="original",
                       help="firmware variant to sweep (default original: "
                            "every profile runs the same image, so the "
                            "eilid >= casu >= none ordering is exact)")
        p.add_argument("--kinds", type=_csv(), metavar="K1,K2",
                       help="comma-separated fault kinds (default: all)")
        add_json(p)

    def sweep_flags(p, scope=""):
        p.add_argument("--seed", type=int, help=f"sweep seed{scope}")
        p.add_argument("--count", type=int, default=48,
                       help=f"faults to sample from the site pool{scope} "
                            f"(default 48)")
        p.add_argument("--profiles", type=_csv(), metavar="P1,P2",
                       help=f"comma-separated defense profiles{scope} "
                            f"(default: all)")

    p_faults_enum = faults_sub.add_parser(
        "enumerate", help="list fault sites recovered from the CFG")
    faults_common(p_faults_enum)
    p_faults_enum.set_defaults(func=_cmd_faults_enumerate)

    p_faults_sweep = faults_sub.add_parser(
        "sweep", help="run a seeded sweep and grade each defense profile")
    faults_common(p_faults_sweep)
    sweep_flags(p_faults_sweep)
    p_faults_sweep.add_argument("--backend", choices=FAULT_BACKENDS,
                                help="serial grades in this process, "
                                     "process on a worker pool")
    p_faults_sweep.add_argument("--workers", type=int,
                                help="process pool size")
    p_faults_sweep.add_argument("--warmup-steps", type=int,
                                help="honest steps before the snapshot "
                                     "faults are injected into")
    p_faults_sweep.add_argument("--events", default=None, metavar="PATH",
                                help="log fault-inject/fault-outcome events "
                                     "to this event DB (watch with "
                                     "'fleet watch')")
    p_faults_sweep.set_defaults(func=_cmd_faults_sweep)

    p_analyze = sub.add_parser(
        "analyze", help="static CFI/stack/memory lint over the recovered CFG")
    p_analyze.add_argument("name", nargs="?", default="light_sensor",
                           help="Table IV application name")
    p_analyze.add_argument("--variant", choices=VARIANTS, default="original")
    p_analyze.add_argument("--attack", default=None, metavar="NAME",
                           help="analyze an attack scenario's firmware image "
                                "instead of an application")
    p_analyze.add_argument("--rules", type=_csv(), metavar="R1,R2",
                           help="comma-separated rule groups (default: all)")
    p_analyze.add_argument("--stack-margin", type=int,
                           help="minimum stack headroom (bytes) before the "
                                "stack rule warns")
    p_analyze.add_argument("--irq-nesting", type=int,
                           help="worst-case nested interrupts the stack "
                                "bound assumes")
    p_analyze.add_argument("--sweep", action="store_true",
                           help="run a fault sweep first and correlate "
                                "escape clusters with the findings")
    sweep_flags(p_analyze, scope=" (with --sweep)")
    p_analyze.add_argument("--events", default=None, metavar="PATH",
                           help="log analysis-finding events to this "
                                "event DB")
    add_json(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_fleet = sub.add_parser("fleet", help="simulate a managed device fleet")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    def fleet_flags(p):
        """The flags that shape a fleet, shared with ``serve run``."""
        p.add_argument("--devices", dest="size", type=int,
                       help="fleet size (records a durable store already "
                            "holds are restored, not re-enrolled)")
        p.add_argument("--security", choices=SECURITY_PROFILES,
                       default="casu")
        p.add_argument("--loss", type=float,
                       help="per-message drop probability")
        p.add_argument("--reorder", type=float,
                       help="per-message reorder probability")
        p.add_argument("--seed", type=int)
        p.add_argument("--events", default=None, metavar="PATH",
                       help="durable event DB (same suffix dispatch as "
                            "--store); every enroll/attest/offer/quarantine "
                            "is logged for fleet history to replay")
        p.add_argument("--alerts", action="store_const", const=True,
                       help="attach the default alert-rule panel; fired "
                            "alerts land in the event DB as 'alert' events")
        p.add_argument("--alert", action="append", type=_alert_override,
                       metavar="NAME=THRESHOLD",
                       help="attach one alert rule with a custom threshold "
                            "(repeatable; implies --alerts for the named "
                            "rules only)")
        add_json(p)

    def fleet_common(p):
        fleet_flags(p)
        p.add_argument("--store", default=None, metavar="PATH",
                       help="durable registry store; .db/.sqlite -> SQLite, "
                            "anything else -> JSON lines (records persist "
                            "across invocations)")

    p_enroll = fleet_sub.add_parser("enroll", help="provision + enroll devices")
    fleet_common(p_enroll)
    p_enroll.set_defaults(func=_cmd_fleet_enroll)

    p_status = fleet_sub.add_parser("status",
                                    help="run, attest, and print telemetry")
    fleet_common(p_status)
    p_status.add_argument("--url", default=None, metavar="URL",
                          help="query a running 'serve run' daemon instead "
                               "of opening the store (avoids contending "
                               "with its SQLite writers)")
    p_status.set_defaults(func=_cmd_fleet_status)

    p_rollout = fleet_sub.add_parser("rollout", help="staged firmware rollout")
    fleet_common(p_rollout)
    p_rollout.add_argument("--version", type=int,
                           help="target firmware version")
    p_rollout.add_argument("--waves", dest="wave_fractions", type=_csv(float),
                           metavar="F1,F2",
                           help="cumulative wave coverage fractions")
    p_rollout.add_argument("--failure-threshold", type=float,
                           help="per-wave failed fraction that halts")
    p_rollout.add_argument("--tamper-fraction", type=float,
                           help="share of devices whose package a MITM flips")
    p_rollout.add_argument("--rollback-fraction", type=float,
                           help="share of devices offered a stale version")
    p_rollout.add_argument("--workers", type=int,
                           help="process pool size (0 = auto)")
    p_rollout.add_argument("--backend", choices=CAMPAIGN_BACKENDS,
                           help="campaign executor: serial offers to the "
                                "live devices in turn, process shards waves "
                                "across worker processes (GIL-free)")
    p_rollout.add_argument("--resume", action="store_true",
                           help="skip devices whose stored record already "
                                "shows the target version (needs --store)")
    p_rollout.add_argument("--metrics-dump", default=None, metavar="PATH",
                           help="write a metrics snapshot after every wave "
                                "(.prom -> Prometheus text, else JSON)")
    p_rollout.set_defaults(func=_cmd_fleet_rollout)

    p_history = fleet_sub.add_parser(
        "history", help="replay recorded fleet telemetry from an event DB")
    p_history.add_argument("--events", default=None, metavar="PATH",
                           help="the event DB a previous fleet invocation "
                                "recorded to (required)")
    p_history.add_argument("--device", default=None, metavar="ID",
                           help="print one device's event timeline")
    p_history.add_argument("--campaigns", action="store_true",
                           help="print the per-campaign rollup")
    p_history.add_argument("--trends", action="store_true",
                           help="print cross-campaign trend series")
    add_json(p_history)
    p_history.set_defaults(func=_cmd_fleet_history)

    p_watch = fleet_sub.add_parser(
        "watch", help="stream events live from a fleet's event DB")
    p_watch.add_argument("--events", default=None, metavar="PATH",
                         help="the event DB another fleet invocation is "
                              "writing to (required)")
    p_watch.add_argument("--since", type=int, default=0, metavar="SEQ",
                         help="skip events with seq <= SEQ")
    p_watch.add_argument("--follow", action="store_true",
                         help="keep polling for new events instead of "
                              "exiting at the current end of the log")
    p_watch.add_argument("--interval", type=float, default=0.2,
                         metavar="SECONDS", help="poll interval with --follow")
    p_watch.add_argument("--timeout", type=float, default=0.0,
                         metavar="SECONDS",
                         help="stop following after SECONDS (0 = forever)")
    p_watch.add_argument("--until-end", action="store_true",
                         help="with --follow, stop once a campaign-end "
                              "event streams past")
    p_watch.add_argument("--json", action="store_true",
                         help="stream one JSON document per event (JSONL)")
    p_watch.add_argument("--url", default=None, metavar="URL",
                         help="stream GET /events from a running 'serve "
                              "run' daemon instead of tailing the event "
                              "DB file")
    p_watch.set_defaults(func=_cmd_fleet_watch)

    p_alerts = fleet_sub.add_parser(
        "alerts", help="list recorded alerts, or re-evaluate rules offline")
    p_alerts.add_argument("--events", default=None, metavar="PATH",
                          help="the event DB a previous fleet invocation "
                               "recorded to (required)")
    p_alerts.add_argument("--replay", action="store_true",
                          help="re-run the rule panel over the stored "
                               "events instead of listing recorded alerts")
    p_alerts.add_argument("--alert", action="append", type=_alert_override,
                          metavar="NAME=THRESHOLD",
                          help="with --replay: evaluate only the named "
                               "rules, at these thresholds (repeatable)")
    add_json(p_alerts)
    p_alerts.set_defaults(func=_cmd_fleet_alerts)

    p_metrics = fleet_sub.add_parser(
        "metrics", help="export metrics as Prometheus text or JSON")
    fleet_common(p_metrics)
    p_metrics.add_argument("--from", dest="snapshot", default=None,
                           metavar="PATH",
                           help="export a JSON snapshot file (e.g. a "
                                "--metrics-dump) instead of running a "
                                "fleet workload")
    p_metrics.add_argument("--format", choices=("prom", "json"),
                           default="prom",
                           help="exposition format (--json forces json)")
    p_metrics.set_defaults(func=_cmd_fleet_metrics)

    p_serve = sub.add_parser(
        "serve", help="fleet control plane: HTTP/JSON verifier daemon")
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)

    p_serve_run = serve_sub.add_parser(
        "run", help="serve enroll/attest/rollout + streaming status")
    fleet_flags(p_serve_run)
    p_serve_run.add_argument("--store-shard", action="append", default=None,
                             metavar="PATH", dest="store_shard",
                             help="one durable registry shard (repeatable; "
                                  "same suffix dispatch as --store; two or "
                                  "more shards route device ids through a "
                                  "consistent-hash ring)")
    p_serve_run.add_argument("--host", default="127.0.0.1")
    p_serve_run.add_argument("--port", type=int, default=0,
                             help="listen port (0 picks an ephemeral one, "
                                  "announced on the readiness line)")
    p_serve_run.add_argument("--workers", type=int,
                             help="executor threads for enrollments and "
                                  "campaigns; attests run on the event "
                                  "loop (0 = auto)")
    p_serve_run.set_defaults(func=_cmd_serve_run)

    try:
        args = parser.parse_args(argv)
        return args.func(args) or 0
    except (_UsageError, SpecError) as error:
        print(f"eilid: error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
