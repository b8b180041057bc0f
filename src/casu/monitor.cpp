#include "casu/monitor.h"

namespace eilid::casu {

using sim::ResetReason;

bool CasuMonitor::violate(ResetReason reason) {
  if (!violation_) violation_ = reason;
  return false;
}

sim::ResetReason CasuMonitor::map_violation_code(uint16_t code) {
  switch (code) {
    case sim::viol::kRa: return ResetReason::kCfiReturnMismatch;
    case sim::viol::kRfi: return ResetReason::kCfiRfiMismatch;
    case sim::viol::kInd: return ResetReason::kCfiIndirectCallViolation;
    case sim::viol::kOverflow: return ResetReason::kShadowStackOverflow;
    case sim::viol::kUnderflow: return ResetReason::kShadowStackUnderflow;
    case sim::viol::kTableFull: return ResetReason::kIndTableFull;
    case sim::viol::kSelector: return ResetReason::kBadSelector;
    default: return ResetReason::kBadSelector;
  }
}

bool CasuMonitor::on_fetch(uint16_t pc, uint16_t prev_pc) {
  // W^X: executable regions are PMEM and secure ROM only.
  if (!sim::is_pmem(pc) && !in_rom(pc)) {
    return violate(ResetReason::kDmemExecViolation);
  }

  if (config_.rom_present) {
    const bool now_rom = in_rom(pc);
    const bool was_rom = in_rom(prev_pc);
    if (now_rom && !was_rom &&
        !(pc >= config_.entry_start && pc <= config_.entry_end)) {
      return violate(ResetReason::kRomEntryViolation);
    }
    if (!now_rom && was_rom && !in_leave(prev_pc)) {
      return violate(ResetReason::kRomExitViolation);
    }
  }
  return true;
}

bool CasuMonitor::on_read(uint16_t addr, uint16_t pc) {
  if (in_key(addr) && !in_rom(pc)) {
    return violate(ResetReason::kSecureRamAccessViolation);
  }
  return true;
}

bool CasuMonitor::on_write(uint16_t addr, uint16_t value, bool byte, uint16_t pc) {
  (void)byte;
  if (in_rom(addr)) {
    return violate(ResetReason::kRomWriteViolation);
  }
  if (sim::is_pmem(addr)) {
    if (update_session_ && in_rom(pc)) return true;
    return violate(ResetReason::kPmemWriteViolation);
  }
  if (addr == sim::mmio::kViolationReg) {
    if (in_rom(pc)) {
      // EILIDsw reporting a failed CFI check: hardware resets with the
      // software-provided reason.
      return violate(map_violation_code(value));
    }
    return violate(ResetReason::kPrivilegedMmioViolation);
  }
  if (addr == sim::mmio::kUpdateCtrl && !in_rom(pc)) {
    return violate(ResetReason::kPrivilegedMmioViolation);
  }
  return true;
}

void CasuMonitor::on_device_reset() {
  violation_.reset();
  update_session_ = false;
}

bool CasuMonitor::allow_interrupt(uint16_t current_pc) {
  // Atomicity of trusted code: interrupts stay pending while the CPU
  // executes inside secure ROM.
  return !(config_.rom_present && in_rom(current_pc));
}

}  // namespace eilid::casu
