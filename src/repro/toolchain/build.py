"""Build pipeline: sources -> parsed units -> linked image -> listing.

The pipeline is the unit of the paper's compile-time measurement
(Table IV).  It behaves like a make-style build: parsed units and
mini-C compilation outputs are cached by content hash, so the three
EILID build iterations (Fig. 2) pay full price only for work whose
inputs actually changed -- the instrumented application -- while fixed
inputs (crt0, EILID shims, the trusted ROM, the C frontend output of an
unchanged source) are reused.
"""

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memory.map import MemoryLayout
from repro.toolchain.linker import link, LinkedProgram
from repro.toolchain.listing import render_listing
from repro.toolchain.parser import parse_source


@dataclass
class SourceModule:
    """One assembly translation unit handed to the pipeline."""

    name: str
    text: str
    is_app: bool = False  # app modules count toward the binary-size metric


@dataclass
class BuildResult:
    program: LinkedProgram
    listing: str
    timings_ms: Dict[str, float]
    app_units: List[str]

    @property
    def total_ms(self):
        return self.timings_ms["total"]

    @property
    def app_code_bytes(self):
        """Application .text + .data bytes (the Table IV binary size)."""
        return self.program.code_size(units=set(self.app_units))

    def segments(self):
        return self.program.segments()


class BuildPipeline:
    """Stateful builder with a content-addressed parse cache."""

    def __init__(self, layout: Optional[MemoryLayout] = None):
        self.layout = layout or MemoryLayout.default()
        self._parse_cache = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def _parse(self, module):
        key = (module.name, hashlib.sha256(module.text.encode()).hexdigest())
        unit = self._parse_cache.get(key)
        if unit is not None:
            self.cache_hits += 1
            return unit
        self.cache_misses += 1
        unit = parse_source(module.text, module.name)
        self._parse_cache[key] = unit
        return unit

    def build(self, modules: List[SourceModule], name="program"):
        """Parse, link and list *modules*; returns a timed result."""
        timings = {}
        t_start = time.perf_counter()

        t0 = time.perf_counter()
        units = [self._parse(module) for module in modules]
        timings["parse"] = (time.perf_counter() - t0) * 1000

        t0 = time.perf_counter()
        program = link(units, name=name, layout=self.layout)
        timings["link"] = (time.perf_counter() - t0) * 1000

        t0 = time.perf_counter()
        listing = render_listing(program)
        timings["listing"] = (time.perf_counter() - t0) * 1000

        timings["total"] = (time.perf_counter() - t_start) * 1000
        return BuildResult(
            program=program,
            listing=listing,
            timings_ms=timings,
            app_units=[m.name for m in modules if m.is_app],
        )
