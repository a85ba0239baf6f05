"""Peripheral models: registers, schedules, interrupts, event logs."""

import pytest

from repro.cpu import InterruptController
from repro.memory import Bus
from repro.peripherals import (
    Adc,
    AdcSchedule,
    Gpio,
    HarnessPorts,
    Lcd,
    Timer,
    Uart,
    Ultrasonic,
)
from repro.peripherals import ports as P
from conftest import lockstep


@pytest.fixture
def bus():
    return Bus()


@pytest.fixture
def ic():
    return InterruptController()


def attach(peripheral, bus, ic=None):
    peripheral.attach(bus, ic)
    return peripheral


class TestGpio:
    def test_out_logged(self, bus):
        gpio = attach(Gpio(), bus)
        bus.write_word(P.GPIO_OUT, 0x55)
        bus.write_word(P.GPIO_OUT, 0xAA)
        assert gpio.event_values("gpio.out") == [0x55, 0xAA]
        assert bus.read_word(P.GPIO_OUT) == 0xAA

    def test_input_schedule(self, bus):
        gpio = attach(Gpio(input_schedule=lambda cycle: 1 if cycle >= 100 else 0), bus)
        assert bus.read_word(P.GPIO_IN) == 0
        gpio.tick(150)
        assert bus.read_word(P.GPIO_IN) == 1

    def test_reset_clears_output(self, bus):
        gpio = attach(Gpio(), bus)
        bus.write_word(P.GPIO_OUT, 7)
        gpio.reset()
        assert gpio.out == 0
        assert gpio.event_values("gpio.out") == [7]  # log survives reset


class TestTimer:
    def test_counts_when_enabled(self, bus):
        timer = attach(Timer(), bus)
        bus.write_word(P.TIMER_CCR, 1000)
        bus.write_word(P.TIMER_CTL, P.TIMER_ENABLE)
        timer.tick(250)
        assert bus.read_word(P.TIMER_COUNT) == 250

    def test_disabled_does_not_count(self, bus):
        timer = attach(Timer(), bus)
        timer.tick(500)
        assert timer.count == 0

    def test_wraps_and_raises_irq(self, bus, ic):
        timer = attach(Timer(), bus, ic)
        bus.write_word(P.TIMER_CCR, 100)
        bus.write_word(P.TIMER_CTL, P.TIMER_ENABLE | P.TIMER_IRQ_ENABLE)
        timer.tick(250)
        assert timer.fire_count == 2
        assert ic.pending_index() == P.TIMER_VECTOR

    def test_no_irq_without_enable_bit(self, bus, ic):
        timer = attach(Timer(), bus, ic)
        bus.write_word(P.TIMER_CCR, 100)
        bus.write_word(P.TIMER_CTL, P.TIMER_ENABLE)
        timer.tick(150)
        assert ic.pending_index() is None


class TestAdc:
    def test_sample_indexed_schedule(self, bus):
        attach(Adc(AdcSchedule({2: AdcSchedule.steps(2, [100, 200])})), bus)
        values = []
        for _ in range(4):
            bus.write_word(P.ADC_CTL, P.ADC_START | 2)
            values.append(bus.read_word(P.ADC_DATA))
        assert values == [100, 100, 200, 200]

    def test_channels_independent(self, bus):
        adc = attach(Adc(AdcSchedule({0: AdcSchedule.constant(7)})), bus)
        bus.write_word(P.ADC_CTL, P.ADC_START | 0)
        first = bus.read_word(P.ADC_DATA)
        bus.write_word(P.ADC_CTL, P.ADC_START | 1)  # default triangle
        bus.read_word(P.ADC_DATA)
        assert first == 7
        assert adc.channel_counts == {0: 1, 1: 1}

    def test_no_sample_without_start_bit(self, bus):
        adc = attach(Adc(), bus)
        bus.write_word(P.ADC_CTL, 2)
        assert adc.sample_count == 0

    def test_ramp_schedule_monotonic(self):
        ramp = AdcSchedule.ramp(10, low=0, high=90)
        values = [ramp(i) for i in range(10)]
        assert values == sorted(values)
        assert values[0] == 0 and values[-1] == 90


class TestUart:
    def test_tx_log(self, bus):
        uart = attach(Uart(), bus)
        for byte in b"hi":
            bus.write_word(P.UART_TX, byte)
        assert uart.tx_bytes == b"hi"

    def test_rx_schedule_and_status(self, bus):
        uart = attach(Uart(rx_schedule=[(100, 0x41)]), bus)
        assert bus.read_word(P.UART_STATUS) == P.UART_TX_READY
        uart.tick(150)
        assert bus.read_word(P.UART_STATUS) & P.UART_RX_AVAILABLE
        assert bus.read_word(P.UART_RX) == 0x41
        assert not bus.read_word(P.UART_STATUS) & P.UART_RX_AVAILABLE

    def test_rx_irq(self, bus, ic):
        uart = attach(Uart(rx_schedule=[(10, 1)], rx_irq_enabled=True), bus, ic)
        uart.tick(20)
        assert ic.pending_index() == P.UART_VECTOR

    def test_fifo_order(self, bus):
        uart = attach(Uart(rx_schedule=[(10, 1), (20, 2), (30, 3)]), bus)
        uart.tick(50)
        assert [bus.read_word(P.UART_RX) for _ in range(3)] == [1, 2, 3]

    def test_byte_wise_word_read_pops_fifo_once(self, bus):
        # Regression: reading a side-effecting data register byte-wise
        # (low byte then high byte, one logical word read) used to
        # re-invoke the read handler for each byte, popping the RX FIFO
        # twice.  The side effect fires only on the data (low) byte.
        uart = attach(Uart(rx_schedule=[(10, 0x41), (20, 0x42)]), bus)
        uart.tick(50)
        low = bus.read_byte(P.UART_RX)
        high = bus.read_byte(P.UART_RX + 1)
        assert (low, high) == (0x41, 0x00)
        assert len(uart._rx_fifo) == 1  # only one architectural pop
        assert bus.read_word(P.UART_RX) == 0x42

    def test_high_byte_read_has_no_side_effect(self, bus):
        uart = attach(Uart(rx_schedule=[(10, 0x41)]), bus)
        uart.tick(50)
        bus.read_byte(P.UART_RX + 1)  # status-style peek at the high byte
        assert len(uart._rx_fifo) == 1  # FIFO untouched
        assert bus.read_word(P.UART_RX) == 0x41


class TestLcd:
    def test_busy_window(self, bus):
        lcd = attach(Lcd(), bus)
        assert bus.read_word(P.LCD_STATUS) == 0
        bus.write_word(P.LCD_CMD, 0x38)
        assert bus.read_word(P.LCD_STATUS) == P.LCD_BUSY
        lcd.tick(200)
        assert bus.read_word(P.LCD_STATUS) == 0

    def test_display_bytes(self, bus):
        lcd = attach(Lcd(), bus)
        for ch in b"42":
            bus.write_word(P.LCD_DATA, ch)
        assert lcd.display_bytes == b"42"


class TestUltrasonic:
    def test_echo_pulse_width(self, bus):
        ultra = attach(Ultrasonic(lambda index: 500), bus)
        bus.write_word(P.ULTRA_TRIG, 1)
        assert bus.read_word(P.ULTRA_ECHO) == 0  # transit delay
        ultra.tick(250)
        assert bus.read_word(P.ULTRA_ECHO) == 1
        ultra.tick(600)
        assert bus.read_word(P.ULTRA_ECHO) == 0

    def test_trigger_indexed_schedule(self, bus):
        widths = []
        ultra = attach(Ultrasonic(lambda index: 100 + index * 50), bus)
        for _ in range(3):
            bus.write_word(P.ULTRA_TRIG, 1)
            widths.append(ultra.echo_end - ultra.echo_start)
        assert widths == [100, 150, 200]


class TestHarness:
    def test_done_latch(self, bus):
        harness = attach(HarnessPorts(), bus)
        assert not harness.done
        bus.write_word(P.DONE_PORT, 0x77)
        assert harness.done and harness.done_value == 0x77
        harness.reset()
        assert harness.done  # latches across reset by design

    def test_violation_writes_logged(self, bus):
        harness = attach(HarnessPorts(), bus)
        bus.write_word(P.VIOLATION_PORT, 3)
        assert harness.violation_writes[0][1] == 3



# A UART receive interrupt handler: nothing in the Table IV apps takes
# the RX interrupt, so this pins its timing.
RX_ISR_C = """
int received;
int sum;

__interrupt(10) void rx_isr() {
    sum = sum + __mmio_read(0x0042);
    received = received + 1;
}

void main() {
    received = 0;
    sum = 0;
    __enable_interrupts();
    while (received < 8) { }
    __disable_interrupts();
    __mmio_write(0x0070, sum);
}
"""


def _rx_isr_device():
    from repro.device import build_device
    from repro.minicc import compile_c
    from tests.conftest import MINIMAL_CRT, assemble

    program = assemble(MINIMAL_CRT, "crt0.s",
                       extra_units=[("t.s", compile_c(RX_ISR_C, "t"))])
    schedule = [(300 + 170 * i, i + 1) for i in range(8)]
    return build_device(program, peripherals={
        "uart": Uart(rx_schedule=schedule, rx_irq_enabled=True)})


class TestPeripheralClock:
    """Ticking only at deadlines and register accesses must raise every
    interrupt, and deliver every input, on the same step as ticking
    every peripheral after every step."""

    @pytest.mark.parametrize("name", ["fire_sensor", "syringe_pump", "rx_isr"])
    def test_due_driven_matches_per_step_ticking(self, app_builds, name):
        from repro.apps.registry import APPS
        from repro.cpu.core import StepKind
        from repro.device import build_device

        def make():
            if name == "rx_isr":
                return _rx_isr_device()
            return build_device(app_builds[name][0].program, security="casu",
                                peripherals=APPS[name].make_peripherals())

        lazy, eager = make(), make()
        kinds = []

        def after_step(record):
            eager.clock.catch_up()  # the per-step reference
            kinds.append(record.kind)

        lockstep(lazy, eager, 2_000_000, after_step=after_step,
                 until=lambda device: (device.harness.done
                                       or device.cycle >= 2_000_000))
        assert lazy.harness.done
        interrupts = kinds.count(StepKind.INTERRUPT)
        # fire_sensor takes timer interrupts, rx_isr UART interrupts;
        # syringe_pump polls its UART.
        assert (interrupts > 0) == (name != "syringe_pump")
