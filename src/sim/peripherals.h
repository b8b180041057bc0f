// Memory-mapped peripherals of the simulated device. Stimulus (ADC
// readings, UART input, echo distances) is host-scripted and
// deterministic so that benchmark runs are exactly reproducible.
#ifndef EILID_SIM_PERIPHERALS_H
#define EILID_SIM_PERIPHERALS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/bus.h"
#include "sim/memory_map.h"

namespace eilid::sim {

// 16-bit up-counter with one compare register and optional interrupt.
// ctl: bit0 enable, bit1 irq-enable, bit2 write-1-to-clear counter,
// bits4-5 prescale exponent (divide by 8^n).
class TimerA : public Peripheral {
 public:
  uint16_t read(uint16_t addr) override;
  void write(uint16_t addr, uint16_t value) override;
  bool tick(uint64_t cycles) override;
  int pending_irq() const override;
  void ack_irq() override { irq_latched_ = false; }
  // Exact cycle horizon to the next compare-match IRQ assertion (the
  // timer is the only peripheral whose tick can assert a line; every
  // other source changes only on register access or host stimulus).
  uint64_t cycles_to_irq() const override;
  void reset() override;
  uint16_t first_addr() const override { return mmio::kTimerCtl; }
  uint16_t last_addr() const override { return mmio::kTimerFlags; }

 private:
  uint16_t ctl_ = 0;
  uint16_t ccr0_ = 0xFFFF;
  uint16_t count_ = 0;
  uint16_t flags_ = 0;
  uint64_t sub_cycles_ = 0;
  bool irq_latched_ = false;
};

// Successive-approximation ADC with scripted per-channel sample series.
// Writing (0x100 | channel) starts a conversion; after kConversionCycles
// the status bit sets and the sample appears in kAdcMem.
class Adc : public Peripheral {
 public:
  static constexpr unsigned kConversionCycles = 64;
  static constexpr int kNumChannels = 4;

  // The conversion result cycles through `series` (wraps around).
  void set_channel_series(int channel, std::vector<uint16_t> series);

  uint16_t read(uint16_t addr) override;
  void write(uint16_t addr, uint16_t value) override;
  bool tick(uint64_t cycles) override;
  // Every register holds until the running conversion completes.
  uint64_t cycles_until_change(uint16_t addr) const override;
  void reset() override;
  uint16_t first_addr() const override { return mmio::kAdcCtl; }
  uint16_t last_addr() const override { return mmio::kAdcStat; }

  unsigned conversions_done() const { return conversions_; }

 private:
  std::vector<uint16_t> series_[kNumChannels];
  size_t series_pos_[kNumChannels] = {};
  uint16_t mem_ = 0;
  bool busy_ = false;
  bool done_ = false;
  int active_channel_ = 0;
  uint64_t remaining_ = 0;
  unsigned conversions_ = 0;
};

// 8-bit GPIO port. Host can drive inputs; every output change is
// recorded (cycle, value) so tests and benches can verify waveforms
// (charlieplexing patterns, stepper pulses).
class GpioPort : public Peripheral {
 public:
  GpioPort(uint16_t in_addr, uint16_t out_addr, uint16_t dir_addr)
      : in_addr_(in_addr), out_addr_(out_addr), dir_addr_(dir_addr) {}

  uint16_t read(uint16_t addr) override;
  void write(uint16_t addr, uint16_t value) override;
  bool tick(uint64_t cycles) override {
    now_ += cycles;
    return false;
  }
  // Only a write or host stimulus moves a register.
  uint64_t cycles_until_change(uint16_t addr) const override {
    (void)addr;
    return kNeverChanges;
  }
  void reset() override;
  uint16_t first_addr() const override { return in_addr_; }
  uint16_t last_addr() const override { return dir_addr_; }

  void set_input(uint8_t value) { in_ = value; }
  uint8_t output() const { return out_; }
  uint8_t direction() const { return dir_; }

  struct Edge {
    uint64_t cycle;
    uint8_t value;
  };
  const std::vector<Edge>& output_trace() const { return trace_; }
  void clear_trace() { trace_.clear(); }

 private:
  uint16_t in_addr_, out_addr_, dir_addr_;
  uint8_t in_ = 0, out_ = 0, dir_ = 0;
  uint64_t now_ = 0;
  std::vector<Edge> trace_;
};

// Byte-oriented UART. Host feeds the receive queue; transmitted bytes
// accumulate in tx_log(). Status bit0 = rx available, bit1 = tx ready
// (always), bit2 = rx interrupt enable (writable).
class Uart : public Peripheral {
 public:
  uint16_t read(uint16_t addr) override;
  void write(uint16_t addr, uint16_t value) override;
  int pending_irq() const override;
  void ack_irq() override {}
  void reset() override;
  uint16_t first_addr() const override { return mmio::kUartTx; }
  uint16_t last_addr() const override { return mmio::kUartStat; }

  void feed(const std::string& bytes);
  void feed(const std::vector<uint8_t>& bytes);
  const std::vector<uint8_t>& tx_log() const { return tx_; }
  std::string tx_text() const { return std::string(tx_.begin(), tx_.end()); }
  void clear_tx() { tx_.clear(); }
  size_t rx_pending() const { return rx_.size() - rx_pos_; }

 private:
  std::vector<uint8_t> rx_;
  size_t rx_pos_ = 0;
  std::vector<uint8_t> tx_;
  bool irq_enable_ = false;
};

// HC-SR04-style ultrasonic ranger. Writing 1 to TRIG starts a ping;
// after a flight delay the echo width (cycles, proportional to the
// scripted distance) is readable and STAT bit0 sets.
class Ultrasonic : public Peripheral {
 public:
  // Cycles of echo width per millimetre of distance (sound round trip
  // at 8 MHz: ~46.6 cycles/mm; rounded for simple arithmetic).
  static constexpr unsigned kCyclesPerMm = 47;

  void set_distances_mm(std::vector<uint16_t> distances) {
    distances_ = std::move(distances);
    pos_ = 0;
  }

  uint16_t read(uint16_t addr) override;
  void write(uint16_t addr, uint16_t value) override;
  bool tick(uint64_t cycles) override;
  // Every register holds until the ping in flight returns.
  uint64_t cycles_until_change(uint16_t addr) const override;
  void reset() override;
  uint16_t first_addr() const override { return mmio::kUsTrig; }
  uint16_t last_addr() const override { return mmio::kUsStat; }

  unsigned pings() const { return pings_; }

 private:
  std::vector<uint16_t> distances_{1000};
  size_t pos_ = 0;
  bool busy_ = false;
  bool ready_ = false;
  uint16_t echo_ = 0;
  uint64_t remaining_ = 0;
  unsigned pings_ = 0;
};

// Write-only HD44780-style LCD bus: captures the command/data stream.
class Lcd : public Peripheral {
 public:
  struct Item {
    bool is_data;
    uint8_t value;
  };

  uint16_t read(uint16_t addr) override;
  void write(uint16_t addr, uint16_t value) override;
  uint64_t cycles_until_change(uint16_t addr) const override {
    (void)addr;
    return kNeverChanges;  // never busy
  }
  void reset() override { stream_.clear(); }
  uint16_t first_addr() const override { return mmio::kLcdCmd; }
  uint16_t last_addr() const override { return mmio::kLcdData; }

  const std::vector<Item>& stream() const { return stream_; }
  // Concatenation of data bytes (the visible text).
  std::string text() const;

 private:
  std::vector<Item> stream_;
};

}  // namespace eilid::sim

#endif  // EILID_SIM_PERIPHERALS_H
