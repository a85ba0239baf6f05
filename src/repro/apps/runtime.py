"""Build and run applications in both variants (original / EILID).

``run_app`` is the measurement unit behind Table IV's "running time"
column: the device executes the app's scripted scenario until the DONE
write, and the elapsed cycle count at 100 MHz gives microseconds.
``build_app`` builds with a caller-owned builder, which the evaluation
harness uses to time cold builds; without one, ``run_app`` takes a
registered app's image from the process-wide
:func:`repro.api.firmware.build_firmware` cache.
"""

from dataclasses import dataclass
from typing import Optional

from repro.device import Device, build_device
from repro.eilid.iterbuild import IterativeBuild
from repro.eilid.policy import EilidPolicy
from repro.errors import ReproError
from repro.minicc import compile_c


@dataclass
class AppRun:
    app_name: str
    variant: str  # "original" | "eilid"
    device: Device
    cycles: int
    done: bool
    done_value: Optional[int]
    violations: list

    @property
    def run_time_us(self):
        return self.cycles / 100.0

    def output_events(self):
        """Observable I/O trace (for original-vs-EILID equivalence)."""
        return self.device.output_events()


def build_app(spec, variant="original", builder: Optional[IterativeBuild] = None,
              policy: Optional[EilidPolicy] = None, verify_convergence=False):
    """Compile + assemble + (optionally) instrument one application.

    Returns the final :class:`repro.toolchain.BuildResult`.
    """
    builder = builder or IterativeBuild(policy=policy)
    asm = compile_c(spec.c_source, spec.name)
    app_file = f"{spec.name}.s"
    if variant == "original":
        return builder.build_original(asm, app_file)
    if variant == "eilid":
        result = builder.build_eilid(asm, app_file, verify_convergence=verify_convergence)
        return result.final
    raise ReproError(f"unknown variant {variant!r}")


def run_app(spec, variant="original", builder: Optional[IterativeBuild] = None,
            security: Optional[str] = None, max_cycles: Optional[int] = None) -> AppRun:
    """Build and execute one application to its DONE hand-off.

    Without an explicit *builder*, a registered app's image comes from
    the shared firmware build cache; passing a builder keeps the caller
    in control of build state (the evaluation harness times cold builds
    that way).  Either way the image runs on one :func:`build_device`.
    """
    from repro.apps.registry import APPS

    if security is None:
        security = "eilid" if variant == "eilid" else "none"
    if builder is None and APPS.get(spec.name) is spec:
        from repro.api import FirmwareSpec, build_firmware

        program = build_firmware(FirmwareSpec(
            kind="app", app=spec.name, variant=variant)).program
    else:
        program = build_app(spec, variant, builder).program
    device = build_device(program, security=security,
                          peripherals=spec.make_peripherals())
    result = device.run(max_cycles=max_cycles or spec.max_cycles)
    return AppRun(
        app_name=spec.name,
        variant=variant,
        device=device,
        cycles=result.cycles,
        done=result.done,
        done_value=result.done_value,
        violations=result.violations,
    )
