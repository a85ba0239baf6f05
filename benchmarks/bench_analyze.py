"""Static-analyzer throughput gate.

One analysis = recover the CFG from a linked Table IV build and run
every rule group (stack bounds, region writes, coverage lint) into a
finalized :class:`repro.analyze.AnalysisReport`.  The gate sweeps the
whole Table IV corpus in both variants, so a regression in any layer
under the analyzer -- decode, CFG recovery, the rule walks -- moves
the analyses/s number.

Floors are absolute and deliberately loose (runner-variance immune):
only an accidental quadratic walk or a decode-path regression gets
near them.  Determinism rides the bench: the same build analyzed
twice must serialise byte-identically.

Emits ``BENCH_analyze.json`` with a seeded ``history`` list folding in
previous runs (uploaded next to the fleet-trajectory artifacts).

Reference numbers (1-core dev container): ~200 analyses/s across
the 14-image corpus; the floor is set at 4.
"""

import json
import time

from repro.analyze import analyze_program
from repro.api.firmware import build_firmware
from repro.api.spec import FirmwareSpec
from repro.apps.registry import TABLE_IV_ORDER

VARIANTS = ("original", "eilid")
ANALYSES_PER_SEC_FLOOR = 4
ARTIFACT = "BENCH_analyze.json"


def _corpus():
    """Every Table IV app x variant, built once."""
    builds = []
    for app in TABLE_IV_ORDER:
        for variant in VARIANTS:
            spec = FirmwareSpec(kind="app", app=app, variant=variant)
            builds.append((app, variant, build_firmware(spec)))
    return builds


def test_bench_analyze_corpus(benchmark, seeded_history):
    corpus = _corpus()

    def measure():
        reports = []
        start = time.perf_counter()
        for app, variant, build in corpus:
            reports.append(analyze_program(build.program, name=app,
                                           variant=variant))
        return reports, time.perf_counter() - start

    reports, elapsed = benchmark.pedantic(measure, rounds=1, iterations=1)
    per_sec = len(reports) / elapsed if elapsed else 0.0

    # The science rides the bench: the whole benign corpus is clean,
    # and a re-analysis of the same builds is byte-identical.
    assert all(report.ok for report in reports), \
        [r.name for r in reports if not r.ok]
    again = [analyze_program(build.program, name=app, variant=variant)
             for app, variant, build in corpus]
    assert [json.dumps(r.to_dict(), sort_keys=True) for r in reports] == \
           [json.dumps(r.to_dict(), sort_keys=True) for r in again]

    total_findings = sum(len(r.findings) for r in reports)
    benchmark.extra_info["images"] = len(corpus)
    benchmark.extra_info["analyses_per_sec"] = round(per_sec, 1)
    benchmark.extra_info["findings"] = total_findings

    entry = {
        "ts": round(time.time(), 3),
        "images": len(corpus),
        "analyses_per_sec": round(per_sec, 1),
        "findings": total_findings,
    }
    doc = {
        "schema": "eilid.bench.analyze",
        "version": 1,
        "corpus": [f"{app}/{variant}" for app, variant, _ in corpus],
        "reports": {f"{r.name}/{r.variant}": r.to_dict()["counts"]
                    for r in reports},
        "history": seeded_history(ARTIFACT, entry),
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)

    assert per_sec >= ANALYSES_PER_SEC_FLOOR, (
        f"analyzer throughput {per_sec:.1f} analyses/s is below the "
        f"{ANALYSES_PER_SEC_FLOOR} analyses/s floor")
