// Peripheral model tests: timer prescaling and interrupts, ADC series,
// GPIO tracing, UART queues, ultrasonic echoes, LCD capture, and the
// two properties batched time relies on: ticking is additive, and a
// register holds its value until its change horizon.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/machine.h"
#include "sim/memory_map.h"

namespace eilid::sim {
namespace {

TEST(Timer, CountsAndFlagsAtCompare) {
  TimerA timer;
  timer.write(mmio::kTimerCcr0, 100);
  timer.write(mmio::kTimerCtl, 0x1);  // enable, no irq
  timer.tick(99);
  EXPECT_EQ(timer.read(mmio::kTimerFlags), 0);
  timer.tick(1);
  EXPECT_EQ(timer.read(mmio::kTimerFlags), 1);
  EXPECT_EQ(timer.pending_irq(), -1) << "irq disabled";
}

TEST(Timer, PrescalerDividesBy8) {
  TimerA timer;
  timer.write(mmio::kTimerCcr0, 10);
  timer.write(mmio::kTimerCtl, 0x11);  // enable, prescale 8
  timer.tick(79);
  EXPECT_EQ(timer.read(mmio::kTimerFlags), 0);
  timer.tick(1);
  EXPECT_EQ(timer.read(mmio::kTimerFlags), 1);
}

TEST(Timer, IrqLatchAndAck) {
  TimerA timer;
  timer.write(mmio::kTimerCcr0, 4);
  timer.write(mmio::kTimerCtl, 0x3);
  timer.tick(4);
  EXPECT_EQ(timer.pending_irq(), irq::kTimer);
  timer.ack_irq();
  EXPECT_EQ(timer.pending_irq(), -1);
  timer.tick(4);
  EXPECT_EQ(timer.pending_irq(), irq::kTimer) << "re-latches at next compare";
}

TEST(Adc, ConversionTakesTimeAndCyclesSeries) {
  Adc adc;
  adc.set_channel_series(1, {100, 200});
  adc.write(mmio::kAdcCtl, 0x101);
  EXPECT_EQ(adc.read(mmio::kAdcStat), 0);
  adc.tick(Adc::kConversionCycles);
  EXPECT_EQ(adc.read(mmio::kAdcStat), 1);
  EXPECT_EQ(adc.read(mmio::kAdcMem), 100);
  adc.write(mmio::kAdcCtl, 0x101);
  adc.tick(Adc::kConversionCycles);
  EXPECT_EQ(adc.read(mmio::kAdcMem), 200);
  adc.write(mmio::kAdcCtl, 0x101);
  adc.tick(Adc::kConversionCycles);
  EXPECT_EQ(adc.read(mmio::kAdcMem), 100) << "series wraps";
  EXPECT_EQ(adc.conversions_done(), 3u);
}

TEST(Gpio, TracksOutputEdges) {
  GpioPort port(mmio::kP1In, mmio::kP1Out, mmio::kP1Dir);
  port.write(mmio::kP1Dir, 0xFF);
  port.tick(10);
  port.write(mmio::kP1Out, 0x01);
  port.tick(5);
  port.write(mmio::kP1Out, 0x01);  // no change: no edge
  port.write(mmio::kP1Out, 0x03);
  ASSERT_EQ(port.output_trace().size(), 2u);
  EXPECT_EQ(port.output_trace()[0].cycle, 10u);
  EXPECT_EQ(port.output_trace()[0].value, 0x01);
  EXPECT_EQ(port.output_trace()[1].value, 0x03);
  port.set_input(0xA5);
  EXPECT_EQ(port.read(mmio::kP1In), 0xA5);
}

TEST(Uart, FeedReadAndStatus) {
  Uart uart;
  EXPECT_EQ(uart.read(mmio::kUartStat) & 1, 0);
  uart.feed(std::string("AB"));
  EXPECT_EQ(uart.read(mmio::kUartStat) & 1, 1);
  EXPECT_EQ(uart.read(mmio::kUartRx), 'A');
  EXPECT_EQ(uart.read(mmio::kUartRx), 'B');
  EXPECT_EQ(uart.read(mmio::kUartStat) & 1, 0);
  uart.write(mmio::kUartTx, 'x');
  EXPECT_EQ(uart.tx_text(), "x");
}

TEST(Uart, IrqOnlyWhenEnabledAndPending) {
  Uart uart;
  uart.feed(std::string("Z"));
  EXPECT_EQ(uart.pending_irq(), -1);
  uart.write(mmio::kUartStat, 0x4);  // enable rx irq
  EXPECT_EQ(uart.pending_irq(), irq::kUartRx);
  uart.read(mmio::kUartRx);
  EXPECT_EQ(uart.pending_irq(), -1) << "level-triggered: drained";
}

TEST(Ultrasonic, EchoWidthProportionalToDistance) {
  Ultrasonic us;
  us.set_distances_mm({100, 200});
  us.write(mmio::kUsTrig, 1);
  EXPECT_EQ(us.read(mmio::kUsStat), 0);
  us.tick(100 + 100 * 4);
  EXPECT_EQ(us.read(mmio::kUsStat), 1);
  EXPECT_EQ(us.read(mmio::kUsEcho), 100 * Ultrasonic::kCyclesPerMm);
  us.write(mmio::kUsTrig, 1);
  us.tick(100 + 200 * 4);
  EXPECT_EQ(us.read(mmio::kUsEcho), 200 * Ultrasonic::kCyclesPerMm);
  EXPECT_EQ(us.pings(), 2u);
}

TEST(Lcd, CapturesCommandAndDataStream) {
  Lcd lcd;
  lcd.write(mmio::kLcdCmd, 0x38);
  lcd.write(mmio::kLcdData, 'H');
  lcd.write(mmio::kLcdData, 'i');
  ASSERT_EQ(lcd.stream().size(), 3u);
  EXPECT_FALSE(lcd.stream()[0].is_data);
  EXPECT_EQ(lcd.text(), "Hi");
}

TEST(Bus, PeripheralOverlapRejected) {
  Bus bus;
  TimerA t1, t2;
  bus.add_peripheral(&t1);
  EXPECT_THROW(bus.add_peripheral(&t2), ConfigError);
}

TEST(Machine, WipeVolatileClearsRamNotPmem) {
  Machine m;
  m.bus().raw_store_word(0x0300, 0x1234);      // RAM
  m.bus().raw_store_word(0x2000, 0x5678);      // secure RAM
  m.bus().raw_store_word(0xE000, 0x9ABC);      // PMEM
  m.bus().wipe_volatile();
  EXPECT_EQ(m.bus().raw_word(0x0300), 0);
  EXPECT_EQ(m.bus().raw_word(0x2000), 0);
  EXPECT_EQ(m.bus().raw_word(0xE000), 0x9ABC);
}

// ------------------------------------------------- peripheral horizons

// One peripheral in a randomised state a device can put it in.
struct Scenario {
  std::string name;
  std::function<std::unique_ptr<Peripheral>(common::SeededRng&)> make;
};

std::vector<Scenario> horizon_scenarios() {
  return {
      {"timer", [](common::SeededRng& rng) {
         auto t = std::make_unique<TimerA>();
         t->write(mmio::kTimerCcr0, static_cast<uint16_t>(1 + rng.below(300)));
         t->write(mmio::kTimerCount, static_cast<uint16_t>(rng.below(300)));
         // enable, irq-enable, prescale /1, /8 or /64
         t->write(mmio::kTimerCtl,
                  static_cast<uint16_t>(0x3 | (rng.below(3) << 4)));
         t->tick(rng.below(100));
         return t;
       }},
      {"timer-stopped", [](common::SeededRng& rng) {
         auto t = std::make_unique<TimerA>();
         t->write(mmio::kTimerCount, static_cast<uint16_t>(rng.below(300)));
         return t;
       }},
      {"adc-busy", [](common::SeededRng& rng) {
         auto a = std::make_unique<Adc>();
         const int channel = static_cast<int>(rng.below(Adc::kNumChannels));
         a->set_channel_series(channel, {static_cast<uint16_t>(rng.below(1024)),
                                         static_cast<uint16_t>(rng.below(1024))});
         if (rng.below(2) == 0) {  // a finished conversion before this one
           a->write(mmio::kAdcCtl, static_cast<uint16_t>(0x100 | channel));
           a->tick(Adc::kConversionCycles);
         }
         a->write(mmio::kAdcCtl, static_cast<uint16_t>(0x100 | channel));
         a->tick(rng.below(Adc::kConversionCycles));
         return a;
       }},
      {"adc-idle", [](common::SeededRng& rng) {
         auto a = std::make_unique<Adc>();
         if (rng.below(2) == 0) {
           a->write(mmio::kAdcCtl, 0x101);
           a->tick(Adc::kConversionCycles + rng.below(10));
         }
         return a;
       }},
      {"gpio", [](common::SeededRng& rng) {
         auto g = std::make_unique<GpioPort>(mmio::kP1In, mmio::kP1Out,
                                             mmio::kP1Dir);
         g->set_input(static_cast<uint8_t>(rng.below(256)));
         g->write(mmio::kP1Dir, 0xFF);
         g->write(mmio::kP1Out, static_cast<uint16_t>(rng.below(256)));
         return g;
       }},
      {"uart", [](common::SeededRng& rng) {
         auto u = std::make_unique<Uart>();
         u->feed(std::string(rng.below(4), 'u'));
         u->write(mmio::kUartStat, static_cast<uint16_t>(rng.below(2) << 2));
         return u;
       }},
      {"ranger-busy", [](common::SeededRng& rng) {
         auto r = std::make_unique<Ultrasonic>();
         r->set_distances_mm({static_cast<uint16_t>(rng.below(2000))});
         r->write(mmio::kUsTrig, 1);
         r->tick(rng.below(100));
         return r;
       }},
      {"ranger-idle", [](common::SeededRng& rng) {
         auto r = std::make_unique<Ultrasonic>();
         if (rng.below(2) == 0) {
           r->set_distances_mm({10});
           r->write(mmio::kUsTrig, 1);
           r->tick(200);
         }
         return r;
       }},
      {"lcd", [](common::SeededRng& rng) {
         auto l = std::make_unique<Lcd>();
         l->write(mmio::kLcdData, static_cast<uint16_t>(rng.below(256)));
         return l;
       }},
  };
}

// Everything observable about a peripheral: every register read that
// has no side effect (all but the UART receive buffer), the interrupt
// line and horizon, every register's change horizon, and the host-side
// counters and traces. A GPIO port's clock shows only in the cycle of
// its next output edge, so the observation makes one.
std::vector<uint64_t> observe(Peripheral& p) {
  std::vector<uint64_t> out;
  for (uint32_t a = p.first_addr(); a <= p.last_addr(); a += 2) {
    const auto addr = static_cast<uint16_t>(a);
    if (addr != mmio::kUartRx) out.push_back(p.read(addr));
    out.push_back(p.cycles_until_change(addr));
  }
  out.push_back(static_cast<uint64_t>(p.pending_irq()));
  out.push_back(p.cycles_to_irq());
  if (auto* a = dynamic_cast<Adc*>(&p)) out.push_back(a->conversions_done());
  if (auto* r = dynamic_cast<Ultrasonic*>(&p)) out.push_back(r->pings());
  if (auto* u = dynamic_cast<Uart*>(&p)) out.push_back(u->rx_pending());
  if (auto* g = dynamic_cast<GpioPort*>(&p)) {
    g->write(mmio::kP1Out, static_cast<uint16_t>(g->output() ^ 0xFF));
    out.push_back(g->output_trace().back().cycle);
  }
  return out;
}

// tick(a); tick(b) == tick(a + b), for every peripheral, over random
// splits into up to six pieces (zero-length ones included) that cross
// conversions, pings and timer compares. The tick debt settles many
// instructions' cycles in one call, and both loop skips settle many
// iterations' cycles in one call, so each is exact only if this holds.
TEST(PeripheralHorizon, TickIsAdditive) {
  common::SeededRng rng(0xADD171FE);
  size_t trials = 0;
  for (const Scenario& scenario : horizon_scenarios()) {
    for (int trial = 0; trial < 200; ++trial) {
      const uint64_t seed = rng.next();
      common::SeededRng make_a(seed), make_b(seed);
      std::unique_ptr<Peripheral> split = scenario.make(make_a);
      std::unique_ptr<Peripheral> whole = scenario.make(make_b);
      ASSERT_EQ(observe(*split), observe(*whole)) << scenario.name;
      uint64_t total = 0;
      const uint64_t pieces = 1 + rng.below(6);
      for (uint64_t i = 0; i < pieces; ++i) {
        const uint64_t cycles = rng.below(4) == 0 ? 0 : rng.below(1500);
        split->tick(cycles);
        total += cycles;
      }
      whole->tick(total);
      EXPECT_EQ(observe(*split), observe(*whole))
          << scenario.name << " trial " << trial << " total " << total;
      ++trials;
    }
  }
  EXPECT_EQ(trials, 9u * 200u);
}

// A register whose change horizon h is nonzero reads the same value
// twice (the read has no side effect, and leaves h as it was) and
// still reads it after h - 1 more cycles, ticked in random pieces. A
// finite horizon is also tight: h cycles later some register of the
// peripheral reads differently.
TEST(PeripheralHorizon, ReadsHoldUntilTheHorizon) {
  common::SeededRng rng(0x401D5EED);
  size_t finite = 0, never = 0, none = 0;
  for (const Scenario& scenario : horizon_scenarios()) {
    for (int trial = 0; trial < 50; ++trial) {
      const uint64_t seed = rng.next();
      common::SeededRng probe_rng(seed);
      std::unique_ptr<Peripheral> probe = scenario.make(probe_rng);
      for (uint32_t a = probe->first_addr(); a <= probe->last_addr(); a += 2) {
        const auto addr = static_cast<uint16_t>(a);
        common::SeededRng make(seed);
        std::unique_ptr<Peripheral> p = scenario.make(make);
        const uint64_t h = p->cycles_until_change(addr);
        if (h == 0) {
          ++none;
          continue;
        }
        const std::string tag = scenario.name + " addr " +
                                std::to_string(addr) + " h " +
                                std::to_string(h);
        auto registers = [&p] {
          std::vector<uint16_t> values;
          for (uint32_t b = p->first_addr(); b <= p->last_addr(); b += 2) {
            if (b != mmio::kUartRx) {
              values.push_back(p->read(static_cast<uint16_t>(b)));
            }
          }
          return values;
        };
        const std::vector<uint16_t> before = registers();
        const uint16_t value = p->read(addr);
        EXPECT_EQ(p->read(addr), value) << tag;
        EXPECT_EQ(p->cycles_until_change(addr), h) << tag;
        const bool is_never = h == Peripheral::kNeverChanges;
        uint64_t left = is_never ? 1'000'000 : h - 1;
        while (left > 0) {
          const uint64_t piece = std::min<uint64_t>(left, 1 + rng.below(700));
          p->tick(piece);
          left -= piece;
          EXPECT_EQ(p->read(addr), value) << tag;
        }
        if (is_never) {
          ++never;
          continue;
        }
        ++finite;
        p->tick(1);
        EXPECT_NE(registers(), before) << tag;
      }
    }
  }
  EXPECT_GT(finite, 100u);
  EXPECT_GT(never, 100u);
  EXPECT_GT(none, 100u);
}

}  // namespace
}  // namespace eilid::sim
