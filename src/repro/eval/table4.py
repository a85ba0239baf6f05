"""Table IV: EILID software overhead, measured on this reproduction.

For every application the harness measures:

* **compile time** -- median wall-clock of the full build pipeline over
  *repeats* runs with cold caches (original: one build; EILID: the
  three-build Fig. 2 flow plus two instrumentation passes);
* **binary size** -- application ``.text + .data`` bytes in the linked
  image (runtime modules excluded in both variants);
* **running time** -- device cycles to the DONE hand-off at 100 MHz.

Paper values are attached to every row for side-by-side reporting.
"""

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.api.firmware import build_firmware
from repro.api.spec import FirmwareSpec
from repro.apps.registry import APPS, TABLE_IV_ORDER
from repro.device import build_device
from repro.eilid.iterbuild import IterativeBuild
from repro.eval.paper_data import (
    PAPER_AVG_COMPILE_OVERHEAD_PCT,
    PAPER_AVG_RUN_OVERHEAD_PCT,
    PAPER_AVG_SIZE_OVERHEAD_PCT,
    PAPER_TABLE4,
)
from repro.eval.report import render_table
from repro.minicc import compile_c


@dataclass
class Table4Row:
    name: str
    title: str
    compile_ms_orig: float
    compile_ms_eilid: float
    size_bytes_orig: int
    size_bytes_eilid: int
    run_us_orig: float
    run_us_eilid: float

    def _pct(self, new, old):
        return 100.0 * (new - old) / old if old else 0.0

    @property
    def compile_overhead_pct(self):
        return self._pct(self.compile_ms_eilid, self.compile_ms_orig)

    @property
    def size_overhead_pct(self):
        return self._pct(self.size_bytes_eilid, self.size_bytes_orig)

    @property
    def run_overhead_pct(self):
        return self._pct(self.run_us_eilid, self.run_us_orig)

    @property
    def paper(self):
        return PAPER_TABLE4[self.name]


def _timed_original_build(spec):
    """One cold original build, C frontend included, returns ms."""
    t0 = time.perf_counter()
    builder = IterativeBuild()
    asm = compile_c(spec.c_source, spec.name)
    builder.build_original(asm, f"{spec.name}.s")
    return (time.perf_counter() - t0) * 1000


def _timed_eilid_build(spec):
    """One cold Fig. 2 build (C frontend compiled once, reused across
    the three iterations like a make-style build), returns ms."""
    t0 = time.perf_counter()
    builder = IterativeBuild()
    asm = compile_c(spec.c_source, spec.name)
    builder.build_eilid(asm, f"{spec.name}.s")
    return (time.perf_counter() - t0) * 1000


def measure_app(name, repeats=5) -> Table4Row:
    spec = APPS[name]

    compile_orig = statistics.median(_timed_original_build(spec) for _ in range(repeats))
    compile_eilid = statistics.median(_timed_eilid_build(spec) for _ in range(repeats))

    builder = IterativeBuild()
    asm = compile_c(spec.c_source, spec.name)
    orig_build = builder.build_original(asm, f"{spec.name}.s")
    eilid_build = builder.build_eilid(asm, f"{spec.name}.s", verify_convergence=True).final

    runs = {}
    for variant, security in (("original", "none"), ("eilid", "eilid")):
        program = build_firmware(FirmwareSpec(
            kind="app", app=name, variant=variant)).program
        device = build_device(program, security=security,
                              peripherals=spec.make_peripherals())
        runs[variant] = device.run(max_cycles=spec.max_cycles)
    run_orig, run_eilid = runs["original"], runs["eilid"]
    if not (run_orig.done and run_eilid.done):
        raise RuntimeError(f"{name}: application did not reach DONE")
    if run_eilid.violations:
        raise RuntimeError(f"{name}: benign run hit {run_eilid.violations}")

    return Table4Row(
        name=name,
        title=spec.title,
        compile_ms_orig=compile_orig,
        compile_ms_eilid=compile_eilid,
        size_bytes_orig=orig_build.app_code_bytes,
        size_bytes_eilid=eilid_build.app_code_bytes,
        run_us_orig=run_orig.run_time_us,
        run_us_eilid=run_eilid.run_time_us,
    )


def measure_table4(repeats=5) -> List[Table4Row]:
    return [measure_app(name, repeats=repeats) for name in TABLE_IV_ORDER]


def averages(rows: List[Table4Row]) -> Dict[str, float]:
    return {
        "compile_pct": sum(r.compile_overhead_pct for r in rows) / len(rows),
        "size_pct": sum(r.size_overhead_pct for r in rows) / len(rows),
        "run_pct": sum(r.run_overhead_pct for r in rows) / len(rows),
    }


def render_table4(rows: List[Table4Row]) -> str:
    body = []
    for r in rows:
        p = r.paper
        body.append([
            r.title,
            f"{r.compile_ms_orig:.1f}/{r.compile_ms_eilid:.1f}",
            f"{r.compile_overhead_pct:.2f}%",
            f"{r.size_bytes_orig}/{r.size_bytes_eilid}",
            f"{r.size_overhead_pct:.2f}%",
            f"{p.size_overhead_pct:.2f}%",
            f"{r.run_us_orig:.0f}/{r.run_us_eilid:.0f}",
            f"{r.run_overhead_pct:.2f}%",
            f"{p.run_overhead_pct:.2f}%",
        ])
    avg = averages(rows)
    body.append([
        "Average",
        "",
        f"{avg['compile_pct']:.2f}%",
        "",
        f"{avg['size_pct']:.2f}%",
        f"{PAPER_AVG_SIZE_OVERHEAD_PCT:.2f}%",
        "",
        f"{avg['run_pct']:.2f}%",
        f"{PAPER_AVG_RUN_OVERHEAD_PCT:.2f}%",
    ])
    note = (
        f"(paper averages: compile {PAPER_AVG_COMPILE_OVERHEAD_PCT:.2f}%, "
        f"size {PAPER_AVG_SIZE_OVERHEAD_PCT:.2f}%, run {PAPER_AVG_RUN_OVERHEAD_PCT:.2f}%)"
    )
    return render_table(
        [
            "Software",
            "compile ms (o/e)",
            "compile ovh",
            "size B (o/e)",
            "size ovh",
            "paper",
            "run us (o/e)",
            "run ovh",
            "paper",
        ],
        body,
        title="Table IV: EILID software overhead " + note,
    )
