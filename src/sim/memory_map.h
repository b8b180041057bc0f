// Memory map of the simulated EILID device. The rows MemoryMap/* and
// Fig9b/shadow base of tests/test_paper_fidelity.cpp state where it
// follows the paper and where it departs.
//
// The layout mirrors an openMSP430 configuration with CASU's secure ROM
// and EILID's secure-DMEM extension. Secure DMEM starts at 0x2000, the
// shadow-stack base of the paper's Fig. 9(b) example; here the
// indirect-call table comes first, so the shadow stack starts higher.
#ifndef EILID_SIM_MEMORY_MAP_H
#define EILID_SIM_MEMORY_MAP_H

#include <cstdint>

namespace eilid::sim {

// Peripheral / special-function register space.
inline constexpr uint16_t kPeriphStart = 0x0000;
inline constexpr uint16_t kPeriphEnd = 0x01FF;

// Data memory (RAM). The main stack conventionally starts at
// kStackTop and grows down.
inline constexpr uint16_t kRamStart = 0x0200;
inline constexpr uint16_t kRamEnd = 0x0FFF;
inline constexpr uint16_t kStackTop = 0x1000;  // first address above RAM

// Secure DMEM: indirect-call table + shadow stack (EILID hardware
// extension; 256 bytes as in the paper, §V).
inline constexpr uint16_t kSecureRamStart = 0x2000;
inline constexpr uint16_t kSecureRamEnd = 0x20FF;

// Secure ROM housing CASU update code and EILIDsw.
inline constexpr uint16_t kRomStart = 0xA000;
inline constexpr uint16_t kRomEnd = 0xAFFF;

// Program memory (application flash), including the vector table.
inline constexpr uint16_t kPmemStart = 0xE000;
inline constexpr uint16_t kPmemEnd = 0xFFFF;

// Interrupt vector table: 16 word entries.
inline constexpr uint16_t kVectorBase = 0xFFE0;
inline constexpr int kNumVectors = 16;
inline constexpr int kResetVectorIndex = 15;  // word at 0xFFFE
inline constexpr uint16_t kResetVectorAddr = 0xFFFE;

// Peripheral register addresses.
namespace mmio {
// CASU/EILID control block (privileged: writable only from secure ROM).
inline constexpr uint16_t kViolationReg = 0x0190;  // write -> reset, value = reason
inline constexpr uint16_t kUpdateCtrl = 0x0192;    // CASU secure-update session
// Timer A.
inline constexpr uint16_t kTimerCtl = 0x0100;   // bit0 enable, bit1 irq-enable, bit2 clear
inline constexpr uint16_t kTimerCcr0 = 0x0102;  // compare value
inline constexpr uint16_t kTimerCount = 0x0104; // current counter
inline constexpr uint16_t kTimerFlags = 0x0106; // bit0 = compare hit (write 0 to clear)
// ADC (channels: 0=light, 1=temperature, 2=flame, 3=generic).
inline constexpr uint16_t kAdcCtl = 0x0110;   // write channel|0x100 to start
inline constexpr uint16_t kAdcMem = 0x0112;   // last conversion result
inline constexpr uint16_t kAdcStat = 0x0114;  // bit0 = conversion done
// GPIO port 1.
inline constexpr uint16_t kP1In = 0x0120;
inline constexpr uint16_t kP1Out = 0x0122;
inline constexpr uint16_t kP1Dir = 0x0124;
// GPIO port 2.
inline constexpr uint16_t kP2In = 0x0128;
inline constexpr uint16_t kP2Out = 0x012A;
inline constexpr uint16_t kP2Dir = 0x012C;
// UART.
inline constexpr uint16_t kUartTx = 0x0130;
inline constexpr uint16_t kUartRx = 0x0132;
inline constexpr uint16_t kUartStat = 0x0134;  // bit0 rx-avail, bit1 tx-ready
// Ultrasonic ranger.
inline constexpr uint16_t kUsTrig = 0x0140;   // write 1 to emit ping
inline constexpr uint16_t kUsEcho = 0x0142;   // echo pulse width (cycles)
inline constexpr uint16_t kUsStat = 0x0144;   // bit0 = echo ready
// LCD controller (HD44780-style command/data capture).
inline constexpr uint16_t kLcdCmd = 0x0150;
inline constexpr uint16_t kLcdData = 0x0152;
}  // namespace mmio

// Interrupt lines (vector indices). Higher index = higher priority.
namespace irq {
inline constexpr int kGpio = 4;
inline constexpr int kUartRx = 6;
inline constexpr int kAdc = 7;
inline constexpr int kTimer = 8;
}  // namespace irq

inline bool in_range(uint16_t addr, uint16_t lo, uint16_t hi) {
  return addr >= lo && addr <= hi;
}
inline bool is_ram(uint16_t addr) { return in_range(addr, kRamStart, kRamEnd); }
inline bool is_secure_ram(uint16_t addr) {
  return in_range(addr, kSecureRamStart, kSecureRamEnd);
}
inline bool is_rom(uint16_t addr) { return in_range(addr, kRomStart, kRomEnd); }
inline bool is_pmem(uint16_t addr) { return addr >= kPmemStart; }
inline bool is_periph(uint16_t addr) { return addr <= kPeriphEnd; }

}  // namespace eilid::sim

#endif  // EILID_SIM_MEMORY_MAP_H
