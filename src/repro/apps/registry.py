"""Application registry: specs, sources, stimulus factories."""

from dataclasses import dataclass
from typing import Callable, Dict

from repro.apps import sources
from repro.peripherals import Adc, AdcSchedule, Uart, Ultrasonic


@dataclass(frozen=True)
class AppSpec:
    """One Table IV application."""

    name: str  # registry key, e.g. "light_sensor"
    title: str  # paper row name, e.g. "Light Sensor"
    c_source: str
    make_peripherals: Callable[[], Dict[str, object]]
    max_cycles: int = 2_000_000
    description: str = ""
    uses_interrupts: bool = False
    uses_indirect_calls: bool = False


def _light_peripherals():
    # Hold each light level for 7 samples: the LED toggles a few times
    # over the 40-sample run.
    return {"adc": Adc(AdcSchedule({0: AdcSchedule.steps(7, [200, 700, 400, 900, 100, 650])}))}


def _ultrasonic_peripherals():
    # Echo widths (cycles) per measurement: four target distances.
    return {"ultrasonic": Ultrasonic(lambda index: 700 + (index % 4) * 250)}


def _fire_peripherals():
    return {
        "adc": Adc(
            AdcSchedule(
                {
                    1: AdcSchedule.steps(25, [80, 120, 700, 90, 820, 100]),  # flame
                    2: AdcSchedule.steps(20, [300, 350, 640, 320, 710, 330]),  # temp
                }
            )
        )
    }


def _syringe_peripherals():
    # Command stream: 'f'orward/'r'everse then a digit (step count).
    # All bytes are queued early so the pump drains them back-to-back
    # and the run is compute-bound, as on the real device.
    commands = b"f7r5f8f4r6f5r3f9"
    schedule = [(100 + 40 * i, byte) for i, byte in enumerate(commands)]
    return {"uart": Uart(rx_schedule=schedule)}


def _temp_peripherals():
    return {"adc": Adc(AdcSchedule({3: AdcSchedule.ramp(40, low=260, high=420)}))}


def _charlie_peripherals():
    return {}


def _lcd_peripherals():
    return {"adc": Adc(AdcSchedule({4: AdcSchedule.steps(10, [123, 405, 87, 961])}))}


APPS: Dict[str, AppSpec] = {}


def _register(spec: AppSpec):
    APPS[spec.name] = spec
    return spec


LIGHT_SENSOR = _register(
    AppSpec(
        name="light_sensor",
        title="Light Sensor",
        c_source=sources.LIGHT_SENSOR_C,
        make_peripherals=_light_peripherals,
        description="Seeed LaunchPad light sensor: ADC threshold drives an LED.",
    )
)

ULTRASONIC_RANGER = _register(
    AppSpec(
        name="ultrasonic_ranger",
        title="Ultrasonic Ranger",
        c_source=sources.ULTRASONIC_RANGER_C,
        make_peripherals=_ultrasonic_peripherals,
        description="Seeed ultrasonic ranger: trigger/echo pulse-width distance.",
    )
)

FIRE_SENSOR = _register(
    AppSpec(
        name="fire_sensor",
        title="Fire Sensor",
        c_source=sources.FIRE_SENSOR_C,
        make_peripherals=_fire_peripherals,
        uses_interrupts=True,
        uses_indirect_calls=True,
        description="Seeed fire sensor: flame+temperature fusion with alarm handler dispatch.",
    )
)

SYRINGE_PUMP = _register(
    AppSpec(
        name="syringe_pump",
        title="Syringe Pump",
        c_source=sources.SYRINGE_PUMP_C,
        make_peripherals=_syringe_peripherals,
        uses_indirect_calls=True,
        description="OpenSyringePump: UART command stream drives a stepper motor.",
    )
)

TEMP_SENSOR = _register(
    AppSpec(
        name="temp_sensor",
        title="Temp Sensor",
        c_source=sources.TEMP_SENSOR_C,
        make_peripherals=_temp_peripherals,
        uses_interrupts=True,
        description="ticepd temperature sensor: timer-paced sampling, moving average, UART.",
    )
)

CHARLIEPLEXING = _register(
    AppSpec(
        name="charlieplexing",
        title="Charlieplexing",
        c_source=sources.CHARLIEPLEXING_C,
        make_peripherals=_charlie_peripherals,
        description="ticepd charlieplexing: time-multiplexed LED matrix scan.",
    )
)

LCD_SENSOR = _register(
    AppSpec(
        name="lcd_sensor",
        title="Lcd Sensor",
        c_source=sources.LCD_SENSOR_C,
        make_peripherals=_lcd_peripherals,
        description="ticepd LCD demo: HD44780 init + sensor readout with busy polling.",
    )
)

# Paper Table IV row order.
TABLE_IV_ORDER = (
    "light_sensor",
    "ultrasonic_ranger",
    "fire_sensor",
    "syringe_pump",
    "temp_sensor",
    "charlieplexing",
    "lcd_sensor",
)


def get_app(name: str) -> AppSpec:
    return APPS[name]
