"""Memory-mapped peripherals of the simulated device.

Each peripheral owns a handful of 16-bit registers in the peripheral
region, reacts to CPU reads/writes through bus handlers, and logs
externally-observable events (GPIO levels, UART bytes, LCD writes) so
tests can assert that an instrumented application behaves identically
to the original.

``tick`` is a catch-up, not a per-step call: the device's
:class:`~repro.peripherals.base.PeripheralClock` ticks peripherals when
the earliest deadline arrives (a timer match, a scheduled UART byte)
and before any register handler runs.  Peripheral state is exact only
at register accesses, ``Device.snapshot()``, and the start and return
of ``Device.run()``/``run_steps()``.

Register map (see :mod:`repro.peripherals.ports` for the constants):

======  ==================  =========================================
base    peripheral          registers
======  ==================  =========================================
0x0010  GPIO                OUT, IN, DIR
0x0020  Timer               CTL, COUNT, CCR        (IRQ vector 9)
0x0030  ADC                 CTL, DATA
0x0040  UART                TX, RX, STATUS         (IRQ vector 10)
0x0050  LCD                 CMD, DATA, STATUS
0x0060  Ultrasonic          TRIG, ECHO
0x0070  Harness             DONE, VIOLATION
======  ==================  =========================================
"""

from repro.peripherals.ports import (
    GPIO_OUT,
    GPIO_IN,
    GPIO_DIR,
    TIMER_CTL,
    TIMER_COUNT,
    TIMER_CCR,
    TIMER_VECTOR,
    ADC_CTL,
    ADC_DATA,
    UART_TX,
    UART_RX,
    UART_STATUS,
    UART_VECTOR,
    LCD_CMD,
    LCD_DATA,
    LCD_STATUS,
    ULTRA_TRIG,
    ULTRA_ECHO,
    DONE_PORT,
    VIOLATION_PORT,
)
from repro.peripherals.base import Peripheral, PeripheralClock
from repro.peripherals.gpio import Gpio
from repro.peripherals.timer import Timer
from repro.peripherals.adc import Adc, AdcSchedule
from repro.peripherals.uart import Uart
from repro.peripherals.lcd import Lcd
from repro.peripherals.ultrasonic import Ultrasonic
from repro.peripherals.harness import HarnessPorts

__all__ = [
    "Peripheral",
    "PeripheralClock",
    "Gpio",
    "Timer",
    "Adc",
    "AdcSchedule",
    "Uart",
    "Lcd",
    "Ultrasonic",
    "HarnessPorts",
    "GPIO_OUT",
    "GPIO_IN",
    "GPIO_DIR",
    "TIMER_CTL",
    "TIMER_COUNT",
    "TIMER_CCR",
    "TIMER_VECTOR",
    "ADC_CTL",
    "ADC_DATA",
    "UART_TX",
    "UART_RX",
    "UART_STATUS",
    "UART_VECTOR",
    "LCD_CMD",
    "LCD_DATA",
    "LCD_STATUS",
    "ULTRA_TRIG",
    "ULTRA_ECHO",
    "DONE_PORT",
    "VIOLATION_PORT",
]
