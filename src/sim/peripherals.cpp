#include "sim/peripherals.h"

namespace eilid::sim {

// --- TimerA ---

uint16_t TimerA::read(uint16_t addr) {
  switch (addr) {
    case mmio::kTimerCtl: return ctl_;
    case mmio::kTimerCcr0: return ccr0_;
    case mmio::kTimerCount: return count_;
    case mmio::kTimerFlags: return flags_;
    default: return 0;
  }
}

void TimerA::write(uint16_t addr, uint16_t value) {
  switch (addr) {
    case mmio::kTimerCtl:
      ctl_ = value;
      if (value & 0x4) {
        count_ = 0;
        sub_cycles_ = 0;
        ctl_ &= static_cast<uint16_t>(~0x4);
      }
      break;
    case mmio::kTimerCcr0:
      ccr0_ = value;
      break;
    case mmio::kTimerCount:
      count_ = value;
      break;
    case mmio::kTimerFlags:
      flags_ = value & 0x1 ? flags_ : 0;  // writing 0 clears the compare flag
      if ((value & 0x1) == 0) irq_latched_ = false;
      break;
    default:
      break;
  }
}

bool TimerA::tick(uint64_t cycles) {
  if ((ctl_ & 0x1) == 0) return false;
  const bool was_latched = irq_latched_;
  unsigned shift = 3u * ((ctl_ >> 4) & 0x3);  // /1, /8, /64, /512
  sub_cycles_ += cycles;
  uint64_t steps = sub_cycles_ >> shift;
  sub_cycles_ -= steps << shift;
  while (steps-- > 0) {
    if (++count_ >= ccr0_ && ccr0_ != 0) {
      count_ = 0;
      flags_ |= 0x1;
      if (ctl_ & 0x2) irq_latched_ = true;
    }
  }
  return irq_latched_ != was_latched;
}

int TimerA::pending_irq() const { return irq_latched_ ? irq::kTimer : -1; }

uint64_t TimerA::cycles_to_irq() const {
  if ((ctl_ & 0x1) == 0 || (ctl_ & 0x2) == 0 || ccr0_ == 0) return kIrqNever;
  if (irq_latched_) return 0;  // already asserted (conservative)
  // Counter steps remaining until ++count_ >= ccr0_ fires, then back
  // through the prescaler: the assertion lands on the tick whose
  // cumulative cycles cover (steps << shift) - sub_cycles_.
  const unsigned shift = 3u * ((ctl_ >> 4) & 0x3);
  const uint64_t steps = ccr0_ > count_ ? static_cast<uint64_t>(ccr0_ - count_)
                                        : 1;
  const uint64_t cycles = steps << shift;
  return cycles > sub_cycles_ ? cycles - sub_cycles_ : 1;
}

void TimerA::reset() {
  ctl_ = 0;
  ccr0_ = 0xFFFF;
  count_ = 0;
  flags_ = 0;
  sub_cycles_ = 0;
  irq_latched_ = false;
}

// --- Adc ---

void Adc::set_channel_series(int channel, std::vector<uint16_t> series) {
  series_[channel] = std::move(series);
  series_pos_[channel] = 0;
}

uint16_t Adc::read(uint16_t addr) {
  switch (addr) {
    case mmio::kAdcMem:
      return mem_;
    case mmio::kAdcStat:
      return done_ ? 1 : 0;
    case mmio::kAdcCtl:
      return static_cast<uint16_t>(active_channel_ | (busy_ ? 0x8000 : 0));
    default:
      return 0;
  }
}

void Adc::write(uint16_t addr, uint16_t value) {
  if (addr != mmio::kAdcCtl) return;
  if (value & 0x100) {
    active_channel_ = value & 0x3;
    busy_ = true;
    done_ = false;
    remaining_ = kConversionCycles;
  }
}

bool Adc::tick(uint64_t cycles) {
  if (!busy_) return false;
  if (cycles >= remaining_) {
    busy_ = false;
    done_ = true;
    auto& s = series_[active_channel_];
    if (s.empty()) {
      mem_ = 0;
    } else {
      mem_ = s[series_pos_[active_channel_] % s.size()];
      ++series_pos_[active_channel_];
    }
    ++conversions_;
  } else {
    remaining_ -= cycles;
  }
  return false;  // the ADC has no interrupt line
}

uint64_t Adc::cycles_until_change(uint16_t addr) const {
  (void)addr;
  return busy_ ? remaining_ : kNeverChanges;
}

void Adc::reset() {
  mem_ = 0;
  busy_ = false;
  done_ = false;
  active_channel_ = 0;
  remaining_ = 0;
  // Stimulus series persist across device resets (they model the
  // physical environment, not device state).
}

// --- GpioPort ---

uint16_t GpioPort::read(uint16_t addr) {
  if (addr == in_addr_) return in_;
  if (addr == out_addr_) return out_;
  if (addr == dir_addr_) return dir_;
  return 0;
}

void GpioPort::write(uint16_t addr, uint16_t value) {
  if (addr == out_addr_) {
    uint8_t v = static_cast<uint8_t>(value);
    if (v != out_) trace_.push_back({now_, v});
    out_ = v;
  } else if (addr == dir_addr_) {
    dir_ = static_cast<uint8_t>(value);
  }
}

void GpioPort::reset() {
  out_ = 0;
  dir_ = 0;
  // Input reflects the external world; keep it. Trace kept for host.
}

// --- Uart ---

uint16_t Uart::read(uint16_t addr) {
  switch (addr) {
    case mmio::kUartRx: {
      if (rx_pos_ < rx_.size()) return rx_[rx_pos_++];
      return 0;
    }
    case mmio::kUartStat: {
      uint16_t s = 0x2;  // tx always ready
      if (rx_pos_ < rx_.size()) s |= 0x1;
      if (irq_enable_) s |= 0x4;
      return s;
    }
    default:
      return 0;
  }
}

void Uart::write(uint16_t addr, uint16_t value) {
  if (addr == mmio::kUartTx) {
    tx_.push_back(static_cast<uint8_t>(value));
  } else if (addr == mmio::kUartStat) {
    irq_enable_ = (value & 0x4) != 0;
  }
}

int Uart::pending_irq() const {
  return (irq_enable_ && rx_pos_ < rx_.size()) ? irq::kUartRx : -1;
}

void Uart::reset() {
  irq_enable_ = false;
  // rx queue and tx log persist: they model the outside link partner.
}

void Uart::feed(const std::string& bytes) {
  rx_.insert(rx_.end(), bytes.begin(), bytes.end());
}

void Uart::feed(const std::vector<uint8_t>& bytes) {
  rx_.insert(rx_.end(), bytes.begin(), bytes.end());
}

// --- Ultrasonic ---

uint16_t Ultrasonic::read(uint16_t addr) {
  switch (addr) {
    case mmio::kUsEcho: return echo_;
    case mmio::kUsStat: return ready_ ? 1 : 0;
    default: return 0;
  }
}

void Ultrasonic::write(uint16_t addr, uint16_t value) {
  if (addr == mmio::kUsTrig && (value & 1)) {
    busy_ = true;
    ready_ = false;
    uint16_t mm = distances_.empty() ? 0 : distances_[pos_ % distances_.size()];
    ++pos_;
    // Model a fixed transducer turnaround plus distance-proportional
    // flight time; the echo *width* is what the app reads.
    remaining_ = 100 + static_cast<uint64_t>(mm) * 4;
    echo_ = static_cast<uint16_t>(
        std::min<uint64_t>(0xFFFF, static_cast<uint64_t>(mm) * kCyclesPerMm));
    ++pings_;
  }
}

bool Ultrasonic::tick(uint64_t cycles) {
  if (!busy_) return false;
  if (cycles >= remaining_) {
    busy_ = false;
    ready_ = true;
  } else {
    remaining_ -= cycles;
  }
  return false;  // the ranger has no interrupt line
}

uint64_t Ultrasonic::cycles_until_change(uint16_t addr) const {
  (void)addr;
  return busy_ ? remaining_ : kNeverChanges;
}

void Ultrasonic::reset() {
  busy_ = false;
  ready_ = false;
  echo_ = 0;
  remaining_ = 0;
}

// --- Lcd ---

uint16_t Lcd::read(uint16_t addr) {
  (void)addr;
  return 0;  // never busy
}

void Lcd::write(uint16_t addr, uint16_t value) {
  stream_.push_back({addr == mmio::kLcdData, static_cast<uint8_t>(value)});
}

std::string Lcd::text() const {
  std::string out;
  for (const auto& item : stream_) {
    if (item.is_data) out.push_back(static_cast<char>(item.value));
  }
  return out;
}

}  // namespace eilid::sim
