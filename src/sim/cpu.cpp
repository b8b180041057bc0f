#include "sim/cpu.h"

#include <algorithm>

#include "isa/cycles.h"

namespace eilid::sim {

using isa::AddrMode;
using isa::Opcode;
using isa::Operand;
namespace sr = isa::sr;

void Cpu::power_on_reset() {
  regs_.fill(0);
  regs_[isa::kPC] = bus_.raw_word(kResetVectorAddr);
  prev_fetch_pc_ = regs_[isa::kPC];
}

void Cpu::set_reg(int i, uint16_t v) {
  if (i == isa::kPC) v &= 0xFFFE;
  regs_[static_cast<size_t>(i)] = v;
}

void Cpu::set_flag(uint16_t bit, bool on) {
  if (on) {
    regs_[isa::kSR] |= bit;
  } else {
    regs_[isa::kSR] &= static_cast<uint16_t>(~bit);
  }
}

void Cpu::set_nzcv(bool n, bool z, bool c, bool v) {
  constexpr uint16_t kMask = sr::kN | sr::kZ | sr::kC | sr::kV;
  regs_[isa::kSR] = static_cast<uint16_t>(
      (regs_[isa::kSR] & static_cast<uint16_t>(~kMask)) | (n ? sr::kN : 0) |
      (z ? sr::kZ : 0) | (c ? sr::kC : 0) | (v ? sr::kV : 0));
}

uint16_t Cpu::read_src(const Operand& op, bool byte) {
  const uint16_t mask = byte ? 0x00FF : 0xFFFF;
  switch (op.mode) {
    case AddrMode::kRegister:
      return regs_[op.reg] & mask;
    case AddrMode::kImmediate:
      return static_cast<uint16_t>(op.value) & mask;
    case AddrMode::kIndexed: {
      uint16_t ea = static_cast<uint16_t>(regs_[op.reg] + op.value);
      return byte ? bus_.read_byte(ea, cur_pc_) : bus_.read_word(ea, cur_pc_);
    }
    case AddrMode::kSymbolic:
    case AddrMode::kAbsolute: {
      uint16_t ea = static_cast<uint16_t>(op.value);
      return byte ? bus_.read_byte(ea, cur_pc_) : bus_.read_word(ea, cur_pc_);
    }
    case AddrMode::kIndirect: {
      uint16_t ea = regs_[op.reg];
      return byte ? bus_.read_byte(ea, cur_pc_) : bus_.read_word(ea, cur_pc_);
    }
    case AddrMode::kIndirectInc: {
      uint16_t ea = regs_[op.reg];
      uint16_t v = byte ? bus_.read_byte(ea, cur_pc_) : bus_.read_word(ea, cur_pc_);
      // SP always steps by 2 to stay word-aligned; others by access size.
      uint16_t inc = (!byte || op.reg == isa::kSP) ? 2 : 1;
      regs_[op.reg] = static_cast<uint16_t>(regs_[op.reg] + inc);
      return v;
    }
  }
  return 0;
}

Cpu::DstRef Cpu::resolve_dst(const Operand& op) {
  DstRef ref;
  switch (op.mode) {
    case AddrMode::kRegister:
      ref.is_reg = true;
      ref.reg = op.reg;
      return ref;
    case AddrMode::kIndexed:
      ref.is_reg = false;
      ref.ea = static_cast<uint16_t>(regs_[op.reg] + op.value);
      return ref;
    case AddrMode::kSymbolic:
    case AddrMode::kAbsolute:
      ref.is_reg = false;
      ref.ea = static_cast<uint16_t>(op.value);
      return ref;
    default:
      // Indirect modes are source-only; the decoder guarantees this.
      ref.is_reg = false;
      ref.ea = regs_[op.reg];
      return ref;
  }
}

uint16_t Cpu::read_at(const DstRef& ref, bool byte) {
  const uint16_t mask = byte ? 0x00FF : 0xFFFF;
  if (ref.is_reg) return regs_[ref.reg] & mask;
  return byte ? bus_.read_byte(ref.ea, cur_pc_) : bus_.read_word(ref.ea, cur_pc_);
}

void Cpu::write_at(const DstRef& ref, bool byte, uint16_t value) {
  if (ref.is_reg) {
    if (ref.reg == isa::kCG2) return;  // r3 destination: result discarded
    if (ref.reg == isa::kPC) value &= 0xFFFE;
    // Byte writes to a register clear the upper byte (architectural).
    regs_[ref.reg] = byte ? static_cast<uint16_t>(value & 0xFF) : value;
    return;
  }
  if (byte) {
    bus_.write_byte(ref.ea, static_cast<uint8_t>(value), cur_pc_);
  } else {
    bus_.write_word(ref.ea, value, cur_pc_);
  }
}

void Cpu::push_word(uint16_t value) {
  regs_[isa::kSP] = static_cast<uint16_t>(regs_[isa::kSP] - 2);
  bus_.write_word(regs_[isa::kSP], value, cur_pc_);
}

uint16_t Cpu::pop_word() {
  uint16_t v = bus_.read_word(regs_[isa::kSP], cur_pc_);
  regs_[isa::kSP] = static_cast<uint16_t>(regs_[isa::kSP] + 2);
  return v;
}

uint16_t Cpu::add_and_flags(uint16_t a, uint16_t b, unsigned carry_in, bool byte) {
  const unsigned width = byte ? 8 : 16;
  const uint16_t mask = byte ? 0x00FF : 0xFFFF;
  const uint16_t msb = byte ? 0x0080 : 0x8000;
  uint32_t sum = static_cast<uint32_t>(a & mask) + (b & mask) + carry_in;
  uint16_t result = static_cast<uint16_t>(sum & mask);
  // Signed overflow: both inputs same sign, result differs.
  bool v = ((~(a ^ b)) & (a ^ result) & msb) != 0;
  set_nzcv((result & msb) != 0, result == 0, (sum >> width) != 0, v);
  return result;
}

void Cpu::exec_double(const isa::Instruction& insn) {
  const bool byte = insn.byte_mode;
  const uint16_t mask = byte ? 0x00FF : 0xFFFF;
  const uint16_t msb = byte ? 0x0080 : 0x8000;

  uint16_t src = read_src(insn.src, byte);
  DstRef dst_ref = resolve_dst(insn.dst);

  switch (insn.op) {
    case Opcode::kMov:
      write_at(dst_ref, byte, src);
      return;
    case Opcode::kAdd: {
      uint16_t dst = read_at(dst_ref, byte);
      write_at(dst_ref, byte, add_and_flags(dst, src, 0, byte));
      return;
    }
    case Opcode::kAddc: {
      uint16_t dst = read_at(dst_ref, byte);
      write_at(dst_ref, byte, add_and_flags(dst, src, flag(sr::kC) ? 1 : 0, byte));
      return;
    }
    case Opcode::kSub: {
      uint16_t dst = read_at(dst_ref, byte);
      write_at(dst_ref, byte, add_and_flags(dst, (~src) & mask, 1, byte));
      return;
    }
    case Opcode::kSubc: {
      uint16_t dst = read_at(dst_ref, byte);
      write_at(dst_ref, byte,
               add_and_flags(dst, (~src) & mask, flag(sr::kC) ? 1 : 0, byte));
      return;
    }
    case Opcode::kCmp: {
      uint16_t dst = read_at(dst_ref, byte);
      add_and_flags(dst, (~src) & mask, 1, byte);
      return;
    }
    case Opcode::kDadd: {
      uint16_t dst = read_at(dst_ref, byte);
      unsigned carry = flag(sr::kC) ? 1 : 0;
      const int digits = byte ? 2 : 4;
      uint16_t result = 0;
      for (int d = 0; d < digits; ++d) {
        unsigned nibble = ((dst >> (4 * d)) & 0xF) + ((src >> (4 * d)) & 0xF) + carry;
        if (nibble > 9) {
          nibble = (nibble + 6) & 0xF;
          carry = 1;
        } else {
          carry = 0;
        }
        result |= static_cast<uint16_t>(nibble << (4 * d));
      }
      // V is architecturally undefined after DADD; we clear it.
      set_nzcv((result & msb) != 0, result == 0, carry != 0, false);
      write_at(dst_ref, byte, result);
      return;
    }
    case Opcode::kBit: {
      uint16_t dst = read_at(dst_ref, byte);
      uint16_t r = dst & src & mask;
      set_nzcv((r & msb) != 0, r == 0, r != 0, false);
      return;
    }
    case Opcode::kBic: {
      uint16_t dst = read_at(dst_ref, byte);
      write_at(dst_ref, byte, dst & static_cast<uint16_t>(~src) & mask);
      return;
    }
    case Opcode::kBis: {
      uint16_t dst = read_at(dst_ref, byte);
      write_at(dst_ref, byte, (dst | src) & mask);
      return;
    }
    case Opcode::kXor: {
      uint16_t dst = read_at(dst_ref, byte);
      uint16_t r = (dst ^ src) & mask;
      set_nzcv((r & msb) != 0, r == 0, r != 0,
               ((dst & msb) != 0) && ((src & msb) != 0));
      write_at(dst_ref, byte, r);
      return;
    }
    case Opcode::kAnd: {
      uint16_t dst = read_at(dst_ref, byte);
      uint16_t r = dst & src & mask;
      set_nzcv((r & msb) != 0, r == 0, r != 0, false);
      write_at(dst_ref, byte, r);
      return;
    }
    default:
      return;
  }
}

void Cpu::exec_single(const isa::Instruction& insn, uint16_t insn_pc) {
  (void)insn_pc;
  const bool byte = insn.byte_mode;
  const uint16_t mask = byte ? 0x00FF : 0xFFFF;
  const uint16_t msb = byte ? 0x0080 : 0x8000;

  switch (insn.op) {
    case Opcode::kPush: {
      uint16_t v = read_src(insn.src, byte);
      push_word(v & mask);
      return;
    }
    case Opcode::kCall: {
      uint16_t target = read_src(insn.src, /*byte=*/false);
      push_word(regs_[isa::kPC]);  // PC already points past the call
      regs_[isa::kPC] = target & 0xFFFE;
      return;
    }
    case Opcode::kReti: {
      regs_[isa::kSR] = pop_word();
      regs_[isa::kPC] = pop_word() & 0xFFFE;
      return;
    }
    default:
      break;
  }

  // rrc/rra/swpb/sxt: read-modify-write on a single operand.
  DstRef ref = resolve_dst(insn.src);
  uint16_t v = read_at(ref, byte);
  uint16_t result = 0;
  switch (insn.op) {
    case Opcode::kRrc: {
      unsigned c_old = flag(sr::kC) ? 1 : 0;
      result = static_cast<uint16_t>((v >> 1) | (c_old ? msb : 0));
      set_nzcv((result & msb) != 0, result == 0, (v & 1) != 0, false);
      break;
    }
    case Opcode::kRra: {
      result = static_cast<uint16_t>((v >> 1) | (v & msb));
      set_nzcv((result & msb) != 0, result == 0, (v & 1) != 0, false);
      break;
    }
    case Opcode::kSwpb:
      result = static_cast<uint16_t>((v >> 8) | (v << 8));
      break;
    case Opcode::kSxt: {
      result = (v & 0x80) ? static_cast<uint16_t>(v | 0xFF00)
                          : static_cast<uint16_t>(v & 0x00FF);
      set_nzcv((result & 0x8000) != 0, result == 0, result != 0, false);
      break;
    }
    default:
      return;
  }
  write_at(ref, byte && insn.op != Opcode::kSxt, result);
}

bool Cpu::jump_taken(Opcode op) const {
  switch (op) {
    case Opcode::kJnz: return !flag(sr::kZ);
    case Opcode::kJz: return flag(sr::kZ);
    case Opcode::kJnc: return !flag(sr::kC);
    case Opcode::kJc: return flag(sr::kC);
    case Opcode::kJn: return flag(sr::kN);
    case Opcode::kJge: return flag(sr::kN) == flag(sr::kV);
    case Opcode::kJl: return flag(sr::kN) != flag(sr::kV);
    case Opcode::kJmp: return true;
    default: return false;
  }
}

std::optional<isa::Decoded> Cpu::interpret_decode(uint16_t pc) const {
  // Raw reads for decode: extension words are part of the instruction
  // stream, already vetted by the fetch check in step().
  std::array<uint16_t, 3> words = {
      bus_.raw_word(pc), bus_.raw_word(static_cast<uint16_t>(pc + 2)),
      bus_.raw_word(static_cast<uint16_t>(pc + 4))};
  return isa::decode(words, pc);
}

StepOutcome Cpu::step() {
  StepOutcome out;
  cur_pc_ = regs_[isa::kPC];
  out.pc = cur_pc_;
  out.next_pc = cur_pc_;

  bus_.clear_access_denied();

  // Predecoded fast path: valid while no store has landed in the code
  // range since the image was attached (CASU-enforced devices never
  // invalidate; a kNone device that rewrites its code falls back to
  // interpretive decode below and stays architecturally correct).
  const isa::DecodedImage::Entry* entry = nullptr;
  if (image_ != nullptr && bus_.code_generation() == image_generation_) {
    entry = image_->lookup(cur_pc_);
  }

  const bool fetched = bus_.notify_fetch(cur_pc_, prev_fetch_pc_);
  prev_fetch_pc_ = cur_pc_;
  if (!fetched) {
    out.status = StepStatus::kDenied;
    // Monitors still receive the fall-through of the instruction that
    // *would* have executed (matches the pre-refactor monitors, which
    // re-decoded from memory regardless of the deny).
    if (entry != nullptr) {
      if (entry->size_words != 0) out.next_pc = entry->next_address;
    } else if (auto d = interpret_decode(cur_pc_)) {
      out.next_pc = d->next_address();
    }
    return out;
  }

  isa::Decoded decoded;
  unsigned cycles;
  if (entry != nullptr) {
    if (entry->size_words == 0) {  // authoritative illegal encoding
      out.status = StepStatus::kIllegal;
      out.cycles = 1;
      return out;
    }
    decoded.insn = entry->insn;
    decoded.address = cur_pc_;
    decoded.size_words = entry->size_words;
    cycles = entry->cycles;
    ++decode_cache_hits_;
  } else {
    auto d = interpret_decode(cur_pc_);
    if (!d) {
      out.status = StepStatus::kIllegal;
      out.cycles = 1;
      return out;
    }
    decoded = *d;
    cycles = isa::instruction_cycles(decoded.insn);
    ++decode_cache_misses_;
  }

  // PC advances past the full instruction before execution (so that
  // pushes/branches observe the return/next address).
  regs_[isa::kPC] = out.next_pc = decoded.next_address();

  const auto& info = isa::opcode_info(decoded.insn.op);
  switch (info.format) {
    case isa::Format::kDouble:
      exec_double(decoded.insn);
      break;
    case isa::Format::kSingle:
      exec_single(decoded.insn, cur_pc_);
      break;
    case isa::Format::kJump:
      if (jump_taken(decoded.insn.op)) regs_[isa::kPC] = decoded.jump_target();
      break;
  }

  out.cycles = cycles;
  ++instructions_retired_;
  if (bus_.access_denied()) {
    out.status = StepStatus::kDenied;
  }
  return out;
}

BlockRun Cpu::run_block(uint16_t breakpoint_pc, uint64_t cycle_budget,
                        std::span<Monitor* const> transfer_monitors) {
  BlockRun out;
  // One validity check for the whole run, where step() pays one per
  // instruction.
  if (image_ == nullptr || bus_.code_generation() != image_generation_) {
    return out;
  }
  uint16_t pc = regs_[isa::kPC];
  const isa::DecodedImage::RangeTable* range = image_->range_of(pc);
  if (range == nullptr) return out;
  // The dispatch entry's suffix fields describe the whole block;
  // `entry` then walks the block's instructions.
  const isa::DecodedImage::Entry* entry = &range->at(pc);
  if (entry->span == 0) return out;
  // Interrupt horizon: if a tick-driven source could assert within this
  // block's cycle count, an enabled CPU must take it at the exact
  // instruction boundary the interpretive engine would -- refuse and
  // let step_once walk up to it. The horizon is measured from the last
  // tick flush, so outstanding debt counts against it. (All other IRQ
  // movement comes from peripheral register access, which ends the run
  // below.)
  if (gie() &&
      bus_.cycles_until_irq() <= entry->block_cycles + bus_.tick_debt()) {
    return out;
  }

  out.executed = true;
  ++blocks_executed_;
  bus_.clear_access_denied();
  bus_.clear_periph_touched();
  const uint64_t generation = bus_.code_generation();

  uint64_t spent = 0;
  unsigned steps = 0;
  // Kept in locals across the loop (the out-struct stores happen once
  // at exit); both always describe the final instruction attempted.
  uint16_t last_pc = pc;
  uint16_t last_next = entry->next_address;
  uint16_t remaining = entry->span;
  // Fetch checks: the run's first fetch against the last fetch before
  // it, later ones only where the chain crosses into another range
  // (against the terminator that crossed). Within a range no region
  // rule can trip -- see BusWatcher::on_fetch.
  bool fetched = bus_.notify_fetch(pc, prev_fetch_pc_);
  // A counted loop's skipped iterations are steps of this run (decode
  // hits, BlockRun::steps) and spend its budget like chained ones.
  auto skip_loop = [&] {
    const uint32_t k = skip_counted_loop(*entry, pc, breakpoint_pc, spent,
                                         cycle_budget, transfer_monitors);
    spent += uint64_t{k} * entry->block_cycles;
    steps += 2 * k;
  };
  if (fetched && entry->loop == isa::LoopKind::kCounted) skip_loop();
  for (;;) {
    if (!fetched) {
      // Same contract as step(): nothing retires, no cycles, monitors
      // get the fall-through of the instruction that would have run.
      out.status = StepStatus::kDenied;
      last_pc = pc;
      last_next = entry->next_address;
      break;
    }
    cur_pc_ = pc;
    regs_[isa::kPC] = entry->next_address;
    switch (entry->format) {
      case isa::Format::kDouble:
        exec_double(entry->insn);
        break;
      case isa::Format::kSingle:
        exec_single(entry->insn, pc);
        break;
      case isa::Format::kJump:
        if (jump_taken(entry->insn.op)) regs_[isa::kPC] = entry->target;
        break;
    }
    // Accrue after exec: a peripheral access *inside* this instruction
    // observes the debt of prior instructions only, exactly the state
    // per-step ticking (which ticks after each full instruction) shows.
    spent += entry->cycles;
    bus_.accrue_ticks(entry->cycles);
    ++instructions_retired_;
    ++steps;
    last_pc = pc;
    last_next = entry->next_address;
    if (bus_.access_denied()) {
      out.status = StepStatus::kDenied;  // retired, then denied mid-exec
      break;
    }
    if (--remaining == 0) {
      // Terminator retired; PC is wherever it put it. Re-dispatch here
      // after the same checks a fresh dispatch would make -- reti and
      // SR-writing terminators may have flipped GIE or CPUOFF, so both
      // are re-read from the live SR. Any break leaves the terminator
      // as the run's final instruction, for the machine to report.
      if (bus_.code_generation() != generation) break;
      if (bus_.periph_touched()) break;
      if (spent >= cycle_budget) break;
      pc = regs_[isa::kPC];
      if (pc == breakpoint_pc) break;
      if (cpu_off()) break;
      // Chained transfers overwhelmingly land in the range they left,
      // so re-probe the current range first and fall back to the range
      // scan only on a genuine crossing.
      const bool crossed = !range->contains(pc);
      if (crossed) {
        range = image_->range_of(pc);
        if (range == nullptr) break;
      }
      entry = &range->at(pc);
      if (entry->span == 0) break;
      // A line already pending (one that only register access or host
      // stimulus raises has no tick horizon) must be delivered before
      // the next instruction, as step_once would.
      if (gie() && (bus_.pending_irq() >= 0 ||
                    bus_.cycles_until_irq() <=
                        entry->block_cycles + bus_.tick_debt())) {
        break;
      }
      // Committed to the next block: the terminator is not the final
      // instruction after all, so its transfer is reported here.
      if (pc != last_next) {
        for (Monitor* m : transfer_monitors) {
          m->on_control_transfer(last_pc, pc, last_next);
        }
      }
      ++blocks_executed_;
      remaining = entry->span;
      if (crossed) fetched = bus_.notify_fetch(pc, last_pc);
      if (fetched && entry->loop == isa::LoopKind::kCounted) skip_loop();
      continue;
    }
    // Interior instructions are sequential by construction (no control
    // transfer, no PC write), so the next pc is the fall-through and
    // the next decoded entry sits size_words slots ahead in the table.
    const isa::DecodedImage::Entry& retired = *entry;
    pc = entry->next_address;
    entry += entry->size_words;
    if (bus_.code_generation() != generation) break;  // self-modifying store
    if (bus_.periph_touched()) {  // IRQ state may have moved
      // A poll loop's test just read its register for real (the run
      // ends here as after any register access): the iterations whose
      // reads would see the same value retire at once.
      if (retired.loop == isa::LoopKind::kPoll) {
        const uint32_t k =
            skip_poll_loop(retired, last_pc, breakpoint_pc, spent,
                           cycle_budget, transfer_monitors);
        spent += uint64_t{k} * retired.block_cycles;
        steps += 2 * k;
      }
      break;
    }
    if (pc == breakpoint_pc) break;    // host breakpoint pauses before it
    if (spent >= cycle_budget) break;  // run() budget exhausted
  }
  prev_fetch_pc_ = last_pc;
  out.cycles = spent;
  out.steps = steps;
  out.last_pc = last_pc;
  out.last_next = last_next;
  decode_cache_hits_ += steps;
  // Tick debt deliberately stays accrued across blocks: the machine
  // flushes it at every point peripheral time becomes observable
  // (register access, IRQ-deliverability checks, per-step fallback,
  // reset, run exit), so back-to-back blocks pay zero virtual tick
  // calls in between.
  return out;
}

uint64_t Cpu::skip_limit(uint64_t per_iteration, uint64_t spent,
                         uint64_t cycle_budget) const {
  // The chain stops at the first instruction that brings spent up to
  // the budget, so every skipped one must end below it.
  if (spent >= cycle_budget) return 0;
  uint64_t k = (cycle_budget - spent - 1) / per_iteration;
  if (gie()) {
    // A pending line is delivered before the next instruction. Else
    // the line that ticking asserts first does so on the tick that
    // reaches the horizon, measured from the last flush, so the debt
    // counts against it: the skipped iterations and the real one after
    // them must all end below it, as the chain's commit check demands
    // of every block.
    if (bus_.pending_irq() >= 0) return 0;
    const uint64_t horizon = bus_.cycles_until_irq();
    const uint64_t debt = bus_.tick_debt();
    if (horizon <= debt + per_iteration) return 0;
    k = std::min(k, (horizon - debt - 1) / per_iteration - 1);
  }
  return k;
}

uint32_t Cpu::skip_counted_loop(const isa::DecodedImage::Entry& loop,
                                uint16_t pc, uint16_t breakpoint_pc,
                                uint64_t spent, uint64_t cycle_budget,
                                std::span<Monitor* const> transfer_monitors) {
  const isa::DecodedImage::Entry& jnz = (&loop)[loop.size_words];
  const uint16_t jnz_pc = loop.next_address;
  // A breakpoint on the head already stopped the run before this
  // commit; one on the `jnz` must stop it inside the first iteration.
  if (breakpoint_pc == jnz_pc) return 0;
  const uint64_t per_iteration = loop.block_cycles;
  uint16_t& counter = regs_[loop.insn.dst.reg];
  // Iterations left, this one included, are the counter's value (65536
  // when it is 0: the decrement wraps); the last one runs for real.
  const uint64_t k =
      std::min<uint64_t>(counter == 0 ? 0xFFFF : counter - 1u,
                         skip_limit(per_iteration, spent, cycle_budget));
  if (k == 0) return 0;
  counter = static_cast<uint16_t>(counter - k);
  instructions_retired_ += 2 * k;
  bus_.accrue_ticks(k * per_iteration);
  for (Monitor* m : transfer_monitors) {
    m->on_repeated_transfer(jnz_pc, pc, jnz.next_address,
                            static_cast<uint32_t>(k));
  }
  return static_cast<uint32_t>(k);
}

uint32_t Cpu::skip_poll_loop(const isa::DecodedImage::Entry& test,
                             uint16_t head, uint16_t breakpoint_pc,
                             uint64_t spent, uint64_t cycle_budget,
                             std::span<Monitor* const> transfer_monitors) {
  const isa::DecodedImage::Entry& jcc = (&test)[test.size_words];
  const uint16_t jcc_pc = test.next_address;
  // The chain would stop before a breakpoint on either instruction.
  if (breakpoint_pc == head || breakpoint_pc == jcc_pc) return 0;
  if (!jump_taken(jcc.insn.op)) return 0;  // the wait is over
  const isa::Operand& reg_op =
      test.insn.src.mode == AddrMode::kAbsolute ||
              test.insn.src.mode == AddrMode::kSymbolic
          ? test.insn.src
          : test.insn.dst;
  // The read just flushed the tick debt, so the horizon counts from
  // its own moment: iteration j re-reads j * block_cycles later.
  const uint64_t horizon =
      bus_.cycles_until_change(static_cast<uint16_t>(reg_op.value));
  if (horizon == 0) return 0;
  const uint64_t per_iteration = test.block_cycles;
  // A wait that never ends is retired a bounded stretch at a time, so
  // the run's instruction counts stay in range.
  constexpr uint64_t kMaxSkip = 1u << 28;
  const uint64_t k = std::min({(horizon - 1) / per_iteration, kMaxSkip,
                               skip_limit(per_iteration, spent, cycle_budget)});
  if (k == 0) return 0;
  // The same value gives the same flags, so every skipped test is
  // followed by the same taken jump back.
  instructions_retired_ += 2 * k;
  bus_.accrue_ticks(k * per_iteration);
  for (Monitor* m : transfer_monitors) {
    m->on_repeated_transfer(jcc_pc, head, jcc.next_address,
                            static_cast<uint32_t>(k));
  }
  return static_cast<uint32_t>(k);
}

unsigned Cpu::service_interrupt(int vector_index) {
  cur_pc_ = regs_[isa::kPC];
  push_word(regs_[isa::kPC]);
  push_word(regs_[isa::kSR]);
  regs_[isa::kSR] &= sr::kScg0;  // all flags cleared except SCG0
  regs_[isa::kPC] =
      bus_.raw_word(static_cast<uint16_t>(kVectorBase + 2 * vector_index)) & 0xFFFE;
  return isa::kInterruptAcceptCycles;
}

}  // namespace eilid::sim
