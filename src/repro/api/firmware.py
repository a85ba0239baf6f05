"""The one firmware build path behind every scenario.

``build_firmware`` turns a :class:`~repro.api.spec.FirmwareSpec` into
linked artifacts, whatever the source kind: a registered Table IV app,
mini-C text, or raw assembly.  The attack victims
(:mod:`repro.attacks.victims`) and the fleet image
(:mod:`repro.fleet.simulation`) route through the same function, so
build caching is shared process-wide: identical firmware is compiled,
instrumented and linked exactly once no matter which subsystem asks.
"""

import functools
from dataclasses import dataclass
from typing import Optional

from repro.api.spec import FirmwareSpec, SpecError
from repro.toolchain.build import BuildResult, SourceModule


@dataclass(frozen=True)
class FirmwareBuild:
    """A linked image plus the build metadata scenarios report."""

    result: BuildResult
    build_count: int
    instrumented_calls: int
    instrumented_returns: int
    inserted_bytes: int
    total_ms: float

    @property
    def program(self):
        return self.result.program

    @property
    def listing(self):
        return self.result.listing

    @property
    def app_code_bytes(self):
        return self.result.app_code_bytes


@functools.lru_cache(maxsize=1)
def _builder():
    """One shared IterativeBuild: its parse cache serves every scenario."""
    from repro.eilid.iterbuild import IterativeBuild

    return IterativeBuild()


def _resolve_source(spec: FirmwareSpec):
    """(assembly text, unit name) for any firmware kind."""
    from repro.minicc import compile_c

    if spec.kind == "app":
        from repro.apps.registry import APPS

        app = APPS.get(spec.app)
        if app is None:
            raise SpecError("firmware.app", f"unknown application {spec.app!r}")
        return compile_c(app.c_source, app.name), f"{app.name}.s"
    if spec.kind == "minicc":
        return compile_c(spec.source, spec.name), f"{spec.name}.s"
    if spec.kind == "asm":
        return spec.source, f"{spec.name}.s"
    raise SpecError("firmware.kind", f"unknown firmware kind {spec.kind!r}")


def _build_raw(builder, asm, unit_name, name, link_rom) -> BuildResult:
    """Raw-assembly original build: plain crt0 (+ optional trusted ROM)."""
    modules = [
        SourceModule("crt0.s", builder.trusted.crt0_source(eilid_enabled=False)),
        SourceModule(unit_name, asm, is_app=True),
    ]
    if link_rom:
        modules.append(SourceModule("eilid_rom.s", builder.trusted.rom_source()))
    return builder.pipeline.build(modules, name=name)


@functools.lru_cache(maxsize=64)
def build_firmware(spec: FirmwareSpec) -> FirmwareBuild:
    """Build one firmware image; cached per process by spec identity.

    The artifacts are immutable (devices copy the image into their own
    bus), so sharing them across scenarios, attacks and fleets is safe.
    The cache is bounded: the repo's own images (apps, victims, fleet
    node) fit with headroom, while a long-lived service sweeping many
    generated sources evicts least-recently-used builds instead of
    growing forever (``build_firmware.cache_clear()`` drops them all).
    """
    builder = _builder()
    asm, unit_name = _resolve_source(spec)
    if spec.variant == "eilid":
        result = builder.build_eilid(asm, unit_name)
        report = result.report
        return FirmwareBuild(
            result=result.final,
            build_count=result.build_count,
            instrumented_calls=report.direct_calls,
            instrumented_returns=report.returns,
            inserted_bytes=report.inserted_bytes,
            total_ms=result.total_ms,
        )
    if spec.kind == "asm":
        result = _build_raw(builder, asm, unit_name, spec.name, spec.link_rom)
    else:
        result = builder.build_original(asm, unit_name)
    return FirmwareBuild(
        result=result,
        build_count=1,
        instrumented_calls=0,
        instrumented_returns=0,
        inserted_bytes=0,
        total_ms=result.total_ms,
    )


def default_peripherals(spec: FirmwareSpec) -> Optional[dict]:
    """A registered app's stimulus peripherals (None otherwise)."""
    if spec.kind != "app":
        return None
    from repro.apps.registry import APPS

    app = APPS.get(spec.app)
    return app.make_peripherals() if app is not None else None
