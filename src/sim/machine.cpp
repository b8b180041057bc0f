#include "sim/machine.h"

namespace eilid::sim {

Machine::Machine(double clock_hz)
    : clock_hz_(clock_hz),
      cpu_(bus_),
      port1_(mmio::kP1In, mmio::kP1Out, mmio::kP1Dir),
      port2_(mmio::kP2In, mmio::kP2Out, mmio::kP2Dir) {
  bus_.add_peripheral(&timer_);
  bus_.add_peripheral(&adc_);
  bus_.add_peripheral(&port1_);
  bus_.add_peripheral(&port2_);
  bus_.add_peripheral(&uart_);
  bus_.add_peripheral(&ranger_);
  bus_.add_peripheral(&lcd_);
}

void Machine::add_monitor(Monitor* monitor) {
  monitors_.push_back(monitor);
  bus_.add_watcher(monitor);
  // Tracers and other per-step consumers can attach mid-life (the
  // bench bolts a trace fingerprint onto an already-deployed device);
  // recompute the subsets so block dispatch stands down for them.
  step_monitors_.clear();
  transfer_monitors_.clear();
  for (auto* m : monitors_) {
    if (m->wants_step()) step_monitors_.push_back(m);
    if (m->wants_transfers()) transfer_monitors_.push_back(m);
  }
}

void Machine::load(uint16_t addr, std::span<const uint8_t> bytes) {
  bus_.raw_store_bytes(addr, bytes);
}

void Machine::attach_decoded_image(
    std::shared_ptr<const isa::DecodedImage> image) {
  cpu_.set_decoded_image(std::move(image));
}

void Machine::power_on() {
  cpu_.power_on_reset();
  resets_.push_back({cycles_, 0, ResetReason::kPowerOn});
  for (auto* m : monitors_) m->on_device_reset();
}

bool Machine::interrupts_allowed(uint16_t pc) const {
  for (auto* m : monitors_) {
    if (!m->allow_interrupt(pc)) return false;
  }
  return true;
}

std::optional<ResetReason> Machine::first_pending_violation() const {
  for (auto* m : monitors_) {
    if (auto v = m->pending_violation()) return v;
  }
  return std::nullopt;
}

void Machine::do_reset(ResetReason reason, uint16_t pc) {
  // Pre-violation time already passed; deliver it before the wipe.
  bus_.flush_ticks();
  resets_.push_back({cycles_, pc, reason});
  bus_.wipe_volatile();
  bus_.reset_peripherals();
  bus_.clear_access_denied();
  for (auto* m : monitors_) {
    m->clear_violation();
    m->on_device_reset();
  }
  cpu_.power_on_reset();
  cycles_ += 4;  // brown-out / reset latency
  reset_this_step_ = true;
}

bool Machine::step_once() {
  reset_this_step_ = false;
  ++dispatches_;
  // Settle any tick debt left by preceding superblocks: the IRQ check
  // below and this step's own tick must observe exact peripheral time.
  bus_.flush_ticks();

  // Interrupt dispatch (level-triggered, priority = vector index).
  int line = bus_.pending_irq();
  if (line >= 0 && cpu_.gie() && interrupts_allowed(cpu_.pc())) {
    uint16_t from = cpu_.pc();
    unsigned cycles = cpu_.service_interrupt(line);
    bus_.ack_irq(line);
    cycles_ += cycles;
    bus_.tick_peripherals(cycles);
    for (auto* m : monitors_) m->on_interrupt(line, from, cpu_.pc());
    if (auto v = first_pending_violation()) {
      do_reset(*v, from);
    }
    return true;
  }

  if (cpu_.cpu_off()) {
    // Low-power mode: burn time until a *deliverable* interrupt wakes
    // the core. The wake test must match the dispatch test above
    // exactly: a line that is pending but cannot be dispatched (GIE
    // clear, or a monitor defers it) is a terminal sleep on real
    // hardware, and only the caller's cycle budget bounds it here.
    // Found by the scenario fuzzer (mutation seed 53): a diverted jump
    // landed on bytes decoding to an SR write with CPUOFF set and GIE
    // clear while the timer line was pending, and the old early-return
    // (`pending_irq() >= 0` alone) spun forever without advancing
    // cycles -- a host livelock no budget could end.
    if (bus_.pending_irq() >= 0 && cpu_.gie() &&
        interrupts_allowed(cpu_.pc())) {
      return true;  // will dispatch next step
    }
    uint64_t idle_chunk = 16;
    cycles_ += idle_chunk;
    bus_.tick_peripherals(idle_chunk);
    return true;
  }

  StepOutcome outcome = cpu_.step();
  cycles_ += outcome.cycles;
  bus_.tick_peripherals(outcome.cycles);
  notify_retire(outcome.pc, cpu_.pc(), outcome.next_pc);

  if (outcome.status == StepStatus::kIllegal) {
    do_reset(ResetReason::kIllegalInstruction, outcome.pc);
    return true;
  }
  if (auto v = first_pending_violation()) {
    do_reset(*v, outcome.pc);
    return true;
  }
  if (outcome.status == StepStatus::kDenied) {
    // A watcher denied an access but latched no specific reason
    // (defensive default -- monitors normally always latch one).
    do_reset(ResetReason::kIllegalInstruction, outcome.pc);
    return true;
  }
  return true;
}

void Machine::notify_retire(uint16_t from_pc, uint16_t to_pc,
                            uint16_t fallthrough) {
  for (auto* m : step_monitors_) m->on_step(from_pc, to_pc, fallthrough);
  if (to_pc != fallthrough) {
    // Non-sequential transfer (or a faulted fetch, where to == from !=
    // fallthrough). Fires under every engine: the block core reports
    // the terminators it chains past itself, and interior instructions
    // are sequential by construction, so only a run's final
    // instruction reaches here -- the same edges per-step execution
    // reports.
    for (auto* m : transfer_monitors_) {
      m->on_control_transfer(from_pc, to_pc, fallthrough);
    }
  }
}

bool Machine::try_run_block(uint16_t breakpoint_pc, uint64_t cycle_budget) {
  if (!step_monitors_.empty()) return false;
  if (cpu_.cpu_off()) return false;
  // A deliverable (or monitor-deferred) pending interrupt must go
  // through step_once's dispatch logic before any instruction retires.
  // Outstanding tick debt could be hiding one -- but only if it reaches
  // the tick-assertion horizon; below it, the cached pending state is
  // authoritative and the flush (a virtual sweep of every peripheral)
  // can wait for a real observation point.
  if (cpu_.gie()) {
    if (bus_.tick_debt() >= bus_.cycles_until_irq()) bus_.flush_ticks();
    if (bus_.pending_irq() >= 0) return false;
  }
  // Violations latched outside stepping (update-engine auth failures /
  // rollback) reset after exactly one more instruction interpretively;
  // keep that timing.
  if (first_pending_violation()) return false;

  BlockRun run =
      cpu_.run_block(breakpoint_pc, cycle_budget, transfer_monitors_);
  if (!run.executed) return false;
  ++dispatches_;
  reset_this_step_ = false;
  cycles_ += run.cycles;
  if (run.steps > 0 || run.status == StepStatus::kDenied) {
    notify_retire(run.last_pc, cpu_.pc(), run.last_next);
  }
  if (run.status == StepStatus::kDenied) {
    if (auto v = first_pending_violation()) {
      do_reset(*v, run.last_pc);
    } else {
      do_reset(ResetReason::kIllegalInstruction, run.last_pc);
    }
  }
  return true;
}

RunResult Machine::run(uint64_t max_cycles) {
  return run_until(0xFFFF, max_cycles);  // 0xFFFF is never a fetch address
}

RunResult Machine::run_until(uint16_t breakpoint_pc, uint64_t max_cycles) {
  RunResult result;
  // Host stimulus injected since the last run (Uart::feed, ADC series,
  // GPIO inputs) bypasses the bus; make the irq cache observe it.
  bus_.invalidate_irq_cache();
  uint64_t start = cycles_;
  while (cycles_ - start < max_cycles) {
    if (cpu_.pc() == breakpoint_pc && !cpu_.cpu_off()) {
      result.cause = StopCause::kBreakpoint;
      break;
    }
    if (!try_run_block(breakpoint_pc, max_cycles - (cycles_ - start))) {
      step_once();
    }
    if (reset_this_step_ && halt_on_reset_) {
      result.cause = StopCause::kDeviceReset;
      break;
    }
  }
  // Settle superblock tick debt before handing control back: the host
  // (tests, verifier sweeps, stimulus injection) must observe exact
  // peripheral time between runs.
  bus_.flush_ticks();
  result.cycles = cycles_ - start;
  result.stop_pc = cpu_.pc();
  return result;
}

}  // namespace eilid::sim
