// CASU hardware monitor (De Oliveira Nunes et al., ICCAD'22), modeled
// at the bus-signal level. CASU guarantees:
//   - software immutability: no writes to PMEM except during an
//     authenticated update session driven from secure ROM,
//   - W^X: no instruction fetch from data memory,
//   - secure-ROM atomicity: ROM is entered only through a single gate,
//     left only through the leave section, never written, and
//     uninterruptible while executing,
//   - key isolation: the device key region is readable only by ROM.
// Violations latch a ResetReason and deny the access; the machine then
// resets the device -- CASU's enforcement action.
//
// The fetch rules are functions of the regions of two consecutive
// fetches (prev_pc, pc), handed over by the CPU, so the monitor keeps
// no fetch state and the block core may skip the fetches between ROM /
// PMEM range crossings (see sim::BusWatcher::on_fetch).
#ifndef EILID_CASU_MONITOR_H
#define EILID_CASU_MONITOR_H

#include <optional>

#include "sim/memory_map.h"
#include "sim/monitor.h"

namespace eilid::casu {

struct CasuConfig {
  uint16_t rom_start = sim::kRomStart;
  uint16_t rom_end = sim::kRomEnd;
  // Legal ROM entry section (EILIDsw's NS_* selector stubs). Jumps
  // into ROM may only land inside [entry_start, entry_end].
  uint16_t entry_start = sim::kRomStart;
  uint16_t entry_end = sim::kRomStart;
  // Legal exit source range (EILIDsw's `leave` section). Zero-width
  // range means "no legal exit" until configured.
  uint16_t leave_start = 0;
  uint16_t leave_end = 0;
  // Device-key region inside ROM (readable only while PC is in ROM).
  uint16_t key_start = 0xAFE0;
  uint16_t key_end = 0xAFFF;
  // False for devices with no trusted software installed (plain CASU
  // device running an uninstrumented app): ROM rules still protect the
  // region, but there is no entry gate to honour.
  bool rom_present = true;
};

class CasuMonitor : public sim::Monitor {
 public:
  explicit CasuMonitor(CasuConfig config = {}) : config_(config) {}

  const CasuConfig& config() const { return config_; }

  // --- sim::Monitor interface ---
  bool on_fetch(uint16_t pc, uint16_t prev_pc) override;
  bool on_read(uint16_t addr, uint16_t pc) override;
  bool on_write(uint16_t addr, uint16_t value, bool byte, uint16_t pc) override;
  // All CASU enforcement snoops the bus (per-access hooks above);
  // neither retire nor transfer callouts are consumed, so CASU-policed
  // devices run the chained block core and pay no callout per block.
  bool wants_step() const override { return false; }
  bool wants_transfers() const override { return false; }
  std::optional<sim::ResetReason> pending_violation() const override {
    return violation_;
  }
  void clear_violation() override { violation_.reset(); }
  void on_device_reset() override;
  bool allow_interrupt(uint16_t current_pc) override;

  // --- secure-update session (driven by casu::UpdateEngine) ---
  void begin_update_session() { update_session_ = true; }
  void end_update_session() { update_session_ = false; }
  bool update_session_active() const { return update_session_; }

  // Latched by the update engine when a package MAC fails verification.
  void report_update_auth_failure() {
    if (!violation_) violation_ = sim::ResetReason::kUpdateAuthFailure;
  }

  // Latched by the update engine when a validly MAC'd package replays
  // an old version (anti-rollback): a genuine-looking but stale package
  // is an attack signal, so the device heals by reset like any other
  // update abuse.
  void report_update_rollback() {
    if (!violation_) violation_ = sim::ResetReason::kUpdateRollback;
  }

  bool in_rom(uint16_t addr) const {
    return addr >= config_.rom_start && addr <= config_.rom_end;
  }

 protected:
  // Latch a violation (first one wins within a step) and deny.
  bool violate(sim::ResetReason reason);

 private:
  bool in_leave(uint16_t addr) const {
    return addr >= config_.leave_start && addr <= config_.leave_end &&
           config_.leave_start != 0;
  }
  bool in_key(uint16_t addr) const {
    return addr >= config_.key_start && addr <= config_.key_end;
  }
  static sim::ResetReason map_violation_code(uint16_t code);

  CasuConfig config_;
  std::optional<sim::ResetReason> violation_;
  bool update_session_ = false;
};

}  // namespace eilid::casu

#endif  // EILID_CASU_MONITOR_H
