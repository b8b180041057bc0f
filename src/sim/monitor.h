// Hardware-monitor interface: bus snooping (inherited from BusWatcher)
// plus PC-transition and interrupt visibility. CASU and EILID hardware
// are implemented against this interface; so is the test tracer.
//
// Block-dispatch contract. The paper's monitors snoop CPU signals in
// parallel with the core; the simulator charges them only where their
// rules can fire. Under the superblock engine every policy runs the
// same chained block core (Cpu::run_block), and a monitor sees:
//
//   - bus hooks (on_read / on_write) on every data access, inside the
//     block loop. A denial ends the run at that instruction, exactly
//     where the per-instruction core would stop.
//   - on_fetch at a run's first fetch and at every crossing between
//     predecoded ranges (secure ROM, PMEM) -- see BusWatcher::on_fetch
//     for why region rules cannot trip in between.
//   - on_control_transfer for every *non-sequential* transfer
//     (to_pc != fallthrough), under every engine, but only on monitors
//     whose wants_transfers() is true. Interior instructions of a
//     straight-line run are sequential by construction, so only block
//     terminators can transfer: the chain loop fires it for each
//     terminator it chains past, and Machine::notify_retire for the
//     final one. The edge stream is therefore the one per-instruction
//     execution reports. It is an observation: a monitor must not deny
//     or latch a violation from it (enforcement goes through the bus
//     hooks), because the chain does not stop to ask.
//   - on_repeated_transfer(from, to, fallthrough, k) in place of k
//     identical on_control_transfer calls, to the same monitors. The
//     chain fires it when it commits to a counted delay loop
//     (`dec rN; jnz self`, isa::DecodedImage::Entry::counted_loop) and
//     retires k of its iterations at once: a skip is a case of
//     chaining, k times past the loop's own `jnz`, taken only as far as
//     every chain check (run budget, interrupt horizon, breakpoint)
//     would have let the chain run anyway. The loop touches no memory,
//     so no bus hook is owed in between. The default replays the k
//     calls; a monitor that logs edges appends them in bulk.
//   - on_step after *every* retired instruction, only on monitors that
//     declare wants_step(). Any such monitor (tracers, AttackEngine's
//     PC triggers, which need every fetch) pins the machine to
//     per-instruction execution -- full-rate visibility and block
//     dispatch are mutually exclusive by design, which is why the
//     enforcement monitors do not claim it.
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
  // or they silently veto block dispatch for the whole device. A plain
  // sim::Monitor observes nothing and keeps this default, so the
  // differential oracles attach one to pin a superblock session to
  // per-instruction dispatch from the same decoded table.
  virtual bool wants_step() const { return true; }

  // Whether this monitor consumes on_control_transfer. Monitors that
  // return false (CASU: its rules live in the bus hooks) are skipped
  // on every transfer, inside the block chain and per step alike.
  virtual bool wants_transfers() const { return true; }

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
  // under every engine, for every monitor whose wants_transfers() is
  // true. Same arguments as on_step; sequential steps are never
  // reported here. Must not latch a violation (see the contract above).
  virtual void on_control_transfer(uint16_t from_pc, uint16_t to_pc,
                                   uint16_t fallthrough) {
    (void)from_pc;
    (void)to_pc;
    (void)fallthrough;
  }

  // `count` back-to-back on_control_transfer calls with identical
  // arguments (see the contract above). Override only to do them in
  // bulk: the result must equal the replay.
  virtual void on_repeated_transfer(uint16_t from_pc, uint16_t to_pc,
                                    uint16_t fallthrough, uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      on_control_transfer(from_pc, to_pc, fallthrough);
    }
  }
};

}  // namespace eilid::sim

#endif  // EILID_SIM_MONITOR_H
