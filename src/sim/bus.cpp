#include "sim/bus.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace eilid::sim {

Bus::Bus() = default;

void Bus::add_peripheral(Peripheral* peripheral) {
  for (auto* existing : peripherals_) {
    if (peripheral->first_addr() <= existing->last_addr() &&
        existing->first_addr() <= peripheral->last_addr()) {
      throw ConfigError("peripheral address ranges overlap");
    }
  }
  if (peripheral->last_addr() > kPeriphEnd) {
    throw ConfigError("peripheral range extends past the peripheral space");
  }
  peripherals_.push_back(peripheral);
  for (uint32_t a = peripheral->first_addr(); a <= peripheral->last_addr(); ++a) {
    periph_map_[a] = peripheral;
  }
  irq_dirty_ = true;
  horizon_dirty_ = true;
}

bool Bus::check_read(uint16_t addr, uint16_t pc) {
  for (auto* w : watchers_) {
    if (!w->on_read(addr, pc)) {
      access_denied_ = true;
      return false;
    }
  }
  return true;
}

bool Bus::check_write(uint16_t addr, uint16_t value, bool byte, uint16_t pc) {
  for (auto* w : watchers_) {
    if (!w->on_write(addr, value, byte, pc)) {
      access_denied_ = true;
      return false;
    }
  }
  return true;
}

bool Bus::notify_fetch_slow(uint16_t pc, uint16_t prev_pc) {
  for (auto* w : watchers_) {
    if (!w->on_fetch(pc, prev_pc)) {
      access_denied_ = true;
      return false;
    }
  }
  return true;
}

uint16_t Bus::periph_read_word(uint16_t addr) {
  flush_ticks();  // the register must reflect all cycles retired so far
  irq_dirty_ = true;  // register reads can move irq state (rx consume)
  horizon_dirty_ = true;
  periph_touched_ = true;
  if (auto* p = peripheral_at(addr)) return p->read(addr);
  return 0;
}

uint8_t Bus::periph_read_byte(uint16_t addr) {
  flush_ticks();
  irq_dirty_ = true;
  horizon_dirty_ = true;
  periph_touched_ = true;
  if (auto* p = peripheral_at(addr)) {
    uint16_t v = p->read(addr & 0xFFFE);
    return (addr & 1) ? static_cast<uint8_t>(v >> 8) : static_cast<uint8_t>(v);
  }
  return 0;
}

void Bus::periph_write(uint16_t addr, uint16_t value) {
  flush_ticks();
  irq_dirty_ = true;  // register writes can enable/clear irq sources
  horizon_dirty_ = true;
  periph_touched_ = true;
  if (auto* p = peripheral_at(addr)) p->write(addr, value);
}

void Bus::raw_store_bytes(uint16_t addr, std::span<const uint8_t> bytes) {
  if (bytes.empty()) return;
  mem_.store_bytes(addr, bytes.data(), bytes.size());
  const size_t until_top = static_cast<size_t>(0x10000 - addr);
  const uint32_t last = addr + static_cast<uint32_t>(bytes.size()) - 1;
  if (last >= kRomStart || bytes.size() > until_top) ++code_generation_;
}

int Bus::compute_pending_irq() const {
  int best = -1;
  for (auto* p : peripherals_) {
    int line = p->pending_irq();
    if (line > best) best = line;  // higher vector index = higher priority
  }
  return best;
}

void Bus::ack_irq(int line) {
  irq_dirty_ = true;
  horizon_dirty_ = true;
  for (auto* p : peripherals_) {
    if (p->pending_irq() == line) {
      p->ack_irq();
      return;
    }
  }
}

void Bus::reset_peripherals() {
  irq_dirty_ = true;
  horizon_dirty_ = true;
  for (auto* p : peripherals_) p->reset();
}

void Bus::wipe_volatile() {
  mem_.zero_range(kRamStart, kRamEnd);
  mem_.zero_range(kSecureRamStart, kSecureRamEnd);
}

}  // namespace eilid::sim
