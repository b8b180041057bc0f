// The simulated device: CPU + bus + peripherals + attached hardware
// monitors, with the reset behaviour CASU/EILID rely on (violation ->
// wipe volatile state -> restart from the reset vector).
#ifndef EILID_SIM_MACHINE_H
#define EILID_SIM_MACHINE_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/bus.h"
#include "sim/cpu.h"
#include "sim/monitor.h"
#include "sim/peripherals.h"
#include "sim/reset.h"

namespace eilid::sim {

enum class StopCause : uint8_t {
  kCycleBudget,   // ran out of max_cycles
  kBreakpoint,    // reached a host breakpoint address
  kDeviceReset,   // a reset occurred and halt_on_reset is set
  kIdle,          // CPU is off with no enabled interrupt source
};

struct RunResult {
  StopCause cause = StopCause::kCycleBudget;
  uint64_t cycles = 0;        // cycles consumed by this run() call
  uint16_t stop_pc = 0;
};

class Machine {
 public:
  explicit Machine(double clock_hz = 8e6);

  Bus& bus() { return bus_; }
  const Bus& bus() const { return bus_; }
  Cpu& cpu() { return cpu_; }
  TimerA& timer() { return timer_; }
  Adc& adc() { return adc_; }
  GpioPort& port1() { return port1_; }
  GpioPort& port2() { return port2_; }
  Uart& uart() { return uart_; }
  Ultrasonic& ranger() { return ranger_; }
  Lcd& lcd() { return lcd_; }

  // Monitors are owned by the caller (they usually outlive the run and
  // are inspected afterwards). Order of attachment = order of checks.
  void add_monitor(Monitor* monitor);

  // Copy raw bytes into backing memory (image loading).
  void load(uint16_t addr, std::span<const uint8_t> bytes);

  // Attach a predecoded image matching the bytes currently flashed
  // (call after every load). The CPU skips interpretive decode for PCs
  // the image covers until a store lands in the code range (see
  // Bus::code_generation()), and the run loop dispatches whole
  // straight-line runs from the image's block suffixes whenever no
  // attached monitor wants per-step callouts and no interrupt could
  // become deliverable mid-run. Shared fleet-wide: all devices flashed
  // from one build point at one immutable table.
  void attach_decoded_image(std::shared_ptr<const isa::DecodedImage> image);

  // Power-on: reset CPU from the vector table, notify monitors.
  void power_on();

  // Execute until a stop condition. Breakpoints pause *before* the
  // instruction at the breakpoint address executes.
  RunResult run(uint64_t max_cycles);
  RunResult run_until(uint16_t breakpoint_pc, uint64_t max_cycles);

  // When true (default false) run() returns at the first device reset
  // instead of letting the device reboot and continue.
  void set_halt_on_reset(bool halt) { halt_on_reset_ = halt; }

  uint64_t cycles() const { return cycles_; }
  double clock_hz() const { return clock_hz_; }
  double micros(uint64_t cycles) const { return 1e6 * static_cast<double>(cycles) / clock_hz_; }

  const std::vector<ResetEvent>& resets() const { return resets_; }
  // Resets excluding the initial power-on, i.e. enforcement actions.
  size_t violation_count() const {
    return resets_.empty() ? 0 : resets_.size() - 1;
  }

  // How many superblocks the block core executed, chained or not
  // (fast-path engagement telemetry; the differential tests assert this
  // is nonzero under the superblock engine and zero when it is pinned
  // per-step or absent).
  uint64_t blocks_executed() const { return cpu_.blocks_executed(); }

  // How many times the run loop dispatched: block-core entries (each
  // may chain many blocks) plus per-step fallbacks (one instruction,
  // interrupt entry or idle chunk each). Every policy runs the same
  // chained core, so monitors that veto nothing leave it unchanged.
  uint64_t dispatches() const { return dispatches_; }

 private:
  // Steps one instruction or services one interrupt; returns false when
  // the device is idle (CPU off, nothing pending).
  bool step_once();
  // Attempts one block-core dispatch (Cpu::run_block, which chains
  // blocks until an observation point) at the current PC. Returns false
  // (nothing happened; caller must step_once) when block dispatch is
  // unavailable: no valid decoded table, a monitor wants per-step
  // callouts, an interrupt is pending and deliverable, the CPU is off,
  // or a violation latched outside stepping (update-engine paths).
  bool try_run_block(uint16_t breakpoint_pc, uint64_t cycle_budget);
  // Retire notification shared by both execution paths: per-step
  // callouts go only to monitors that want them; the control-transfer
  // callout fires for every transfer consumer whenever
  // to_pc != fallthrough.
  void notify_retire(uint16_t from_pc, uint16_t to_pc, uint16_t fallthrough);
  void do_reset(ResetReason reason, uint16_t pc);
  bool interrupts_allowed(uint16_t pc) const;
  std::optional<ResetReason> first_pending_violation() const;

  double clock_hz_;
  Bus bus_;
  Cpu cpu_;
  TimerA timer_;
  Adc adc_;
  GpioPort port1_;
  GpioPort port2_;
  Uart uart_;
  Ultrasonic ranger_;
  Lcd lcd_;
  std::vector<Monitor*> monitors_;
  std::vector<Monitor*> step_monitors_;      // subset with wants_step()
  std::vector<Monitor*> transfer_monitors_;  // subset with wants_transfers()
  std::vector<ResetEvent> resets_;
  uint64_t cycles_ = 0;
  uint64_t dispatches_ = 0;
  bool halt_on_reset_ = false;
  bool reset_this_step_ = false;
};

}  // namespace eilid::sim

#endif  // EILID_SIM_MACHINE_H
