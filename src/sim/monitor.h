// Hardware-monitor interface: bus snooping (inherited from BusWatcher)
// plus PC-transition and interrupt visibility. CASU and EILID hardware
// are implemented against this interface; so is the test tracer.
//
// Two granularities of PC visibility exist since the superblock core:
//
//   - on_control_transfer: fired for every *non-sequential* transfer
//     (to_pc != fallthrough), at instruction granularity, under every
//     execution engine. This is the notification integrity evidence is
//     built from (CfaMonitor consumes nothing else -- LO-FAT-style
//     monitors only ever observe transfers), and the block core emits
//     it bit-identically: a straight-line run's interior instructions
//     are all sequential by construction, so only its terminator can
//     transfer.
//   - on_step: fired after *every* retired instruction, but only for
//     monitors that declare wants_step(). Any such monitor (the test
//     tracers) forces the machine onto the per-instruction path --
//     full-rate visibility and superblock dispatch are mutually
//     exclusive by design, which is exactly why enforcement monitors
//     must not claim it (CasuMonitor and CfaMonitor return false; all
//     their enforcement lives in bus hooks and transfer events).
#ifndef EILID_SIM_MONITOR_H
#define EILID_SIM_MONITOR_H

#include <optional>

#include "sim/bus.h"
#include "sim/reset.h"

namespace eilid::sim {

class Monitor : public BusWatcher {
 public:
  // A violation latched by this monitor; the machine resets the device
  // and records the reason.
  virtual std::optional<ResetReason> pending_violation() const {
    return std::nullopt;
  }
  virtual void clear_violation() {}

  // Notification that the device reset (monitors re-arm their state).
  virtual void on_device_reset() {}

  // Interrupt gating: EILID masks interrupts while the PC is inside the
  // secure ROM (atomicity of S_EILID functions).
  virtual bool allow_interrupt(uint16_t current_pc) {
    (void)current_pc;
    return true;
  }

  // Fired when the CPU vectors to an ISR.
  virtual void on_interrupt(int vector_index, uint16_t from_pc, uint16_t to_pc) {
    (void)vector_index;
    (void)from_pc;
    (void)to_pc;
  }

  // Whether this monitor needs on_step after every retired instruction.
  // True (the compatible default) pins the machine to per-instruction
  // execution; monitors that only consume transfers must return false
  // or they silently veto superblock dispatch for the whole device. A
  // plain sim::Monitor observes nothing and keeps this default, so the
  // differential oracles attach one to pin a superblock session to
  // per-instruction dispatch from the same decoded table.
  virtual bool wants_step() const { return true; }

  // Fired after each retired instruction with the PC transition --
  // only for monitors whose wants_step() is true. `fallthrough` is the
  // already-decoded fall-through address of the instruction at from_pc
  // (== from_pc when nothing decoded): a step with to_pc != fallthrough
  // is a control transfer, so monitors spot transfers by comparing two
  // integers instead of re-decoding the instruction stream.
  virtual void on_step(uint16_t from_pc, uint16_t to_pc, uint16_t fallthrough) {
    (void)from_pc;
    (void)to_pc;
    (void)fallthrough;
  }

  // Fired for every non-sequential transfer (to_pc != fallthrough),
  // under every engine, for every monitor. Same arguments as on_step;
  // sequential steps are never reported here.
  virtual void on_control_transfer(uint16_t from_pc, uint16_t to_pc,
                                   uint16_t fallthrough) {
    (void)from_pc;
    (void)to_pc;
    (void)fallthrough;
  }
};

}  // namespace eilid::sim

#endif  // EILID_SIM_MONITOR_H
