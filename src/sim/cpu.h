// MSP430 CPU core: 16 registers, fetch/decode/execute, status flags,
// interrupt entry. Timing follows src/isa/cycles.h.
//
// The CPU is deliberately unaware of CASU/EILID: all enforcement
// happens in bus watchers, exactly as the paper's hardware monitors
// snoop CPU signals without modifying the core.
#ifndef EILID_SIM_CPU_H
#define EILID_SIM_CPU_H

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "isa/decoded_image.h"
#include "isa/decoder.h"
#include "isa/registers.h"
#include "sim/bus.h"
#include "sim/monitor.h"

namespace eilid::sim {

enum class StepStatus : uint8_t {
  kOk,
  kIllegal,  // undecodable instruction word
  kDenied,   // a bus watcher denied an access mid-instruction
};

struct StepOutcome {
  StepStatus status = StepStatus::kOk;
  unsigned cycles = 0;
  uint16_t pc = 0;  // address of the instruction that executed (or faulted)
  // Fall-through address of the decoded instruction (pc when nothing
  // decoded). Monitors compare this against the PC after the step to
  // spot control transfers without re-decoding.
  uint16_t next_pc = 0;
};

// Result of one block-core dispatch (Cpu::run_block): a chain of one
// or more superblocks.
struct BlockRun {
  // False when the block core could not start at the current PC (no
  // valid decoded table there, or an IRQ could assert within the first
  // block): nothing executed, the caller must take the per-instruction
  // path. All other fields are meaningless.
  bool executed = false;
  StepStatus status = StepStatus::kOk;
  uint64_t cycles = 0;  // total cycles retired by the run
  unsigned steps = 0;   // instructions retired
  uint16_t last_pc = 0;  // pc of the final instruction attempted
  uint16_t last_next = 0;  // its fall-through (monitor notification)
};

class Cpu {
 public:
  explicit Cpu(Bus& bus) : bus_(bus) {}

  // Load PC from the reset vector and clear registers.
  void power_on_reset();

  // Execute a single instruction.
  StepOutcome step();

  // Execute a chain of straight-line runs (superblocks) starting at the
  // current PC: one table lookup and one generation/IRQ-budget check per
  // block, then a tight retire loop with batched cycle accounting
  // (cycles are accrued to the bus's tick debt, which is settled before
  // any peripheral register access, so mid-run accesses still observe
  // exact time). After a block's terminator retires, the run re-dispatches
  // from wherever PC landed, after the same checks a fresh dispatch
  // makes. It ends -- always at an instruction boundary, and every PC
  // is itself a valid block entry, so nothing is lost -- when:
  //   - the next instruction sits at `breakpoint_pc` (host breakpoint),
  //   - retired cycles reach `cycle_budget` (run() budget exhaustion),
  //   - a store invalidated the code generation (self-modifying code:
  //     the very next instruction must re-decode from memory),
  //   - a peripheral register was touched (interrupt state may have
  //     changed instantly),
  //   - a watcher denied a fetch or an access (status kDenied, the
  //     device will reset) -- at the same instruction as per-step,
  //   - a terminator left PC outside the table, on an undecodable
  //     slot, in low-power mode, or where an interrupt could assert or
  //     deliver within the next block.
  // Committing to a counted delay loop (`dec rN; jnz self`, see
  // isa::DecodedImage::Entry::counted_loop) retires in O(1) as many of
  // its iterations as the chain would have run anyway, then carries on
  // chaining block by block, so the run stops exactly where it would
  // have without the skip.
  // Monitor visibility is block-granular (see sim/monitor.h): the fetch
  // hook fires at run entry and on range crossings only, with the last
  // fetched PC as its predecessor, and every chained-past terminator
  // that transfers control is reported to `transfer_monitors` (a
  // skipped loop's edges in one on_repeated_transfer). The final
  // instruction is the caller's to report (BlockRun::last_pc).
  BlockRun run_block(uint16_t breakpoint_pc, uint64_t cycle_budget,
                     std::span<Monitor* const> transfer_monitors);

  uint64_t blocks_executed() const { return blocks_executed_; }

  // Attach a predecoded image built from the bytes currently flashed.
  // The CPU consults it for PCs inside its ranges (per instruction in
  // step(), per superblock in run_block()) and falls back to
  // interpretive decode elsewhere. The attachment is valid only while
  // no store lands in the code range: the bus's code-generation
  // counter is snapshotted here and checked every step and block, so a
  // device that scribbles on its own code (possible under kNone)
  // re-decodes from memory and stays architecturally correct. Null
  // detaches: every instruction decodes interpretively.
  void set_decoded_image(std::shared_ptr<const isa::DecodedImage> image) {
    image_ = std::move(image);
    image_generation_ = bus_.code_generation();
  }
  const isa::DecodedImage* decoded_image() const { return image_.get(); }
  bool decode_cache_valid() const {
    return image_ != nullptr && bus_.code_generation() == image_generation_;
  }
  uint64_t decode_cache_hits() const { return decode_cache_hits_; }
  uint64_t decode_cache_misses() const { return decode_cache_misses_; }

  // Hardware interrupt entry: push PC and SR, clear SR (except SCG0),
  // load the handler address from the vector table. Returns cycles.
  unsigned service_interrupt(int vector_index);

  uint16_t reg(int i) const { return regs_[static_cast<size_t>(i)]; }
  void set_reg(int i, uint16_t v);
  uint16_t pc() const { return regs_[isa::kPC]; }
  uint16_t sp() const { return regs_[isa::kSP]; }
  uint16_t sr() const { return regs_[isa::kSR]; }

  bool gie() const { return (sr() & isa::sr::kGIE) != 0; }
  bool cpu_off() const { return (sr() & isa::sr::kCpuOff) != 0; }

  uint64_t instructions_retired() const { return instructions_retired_; }

 private:
  struct DstRef {
    bool is_reg = true;
    uint8_t reg = 0;
    uint16_t ea = 0;
  };

  // Interpretive decode of the instruction at `pc` from backing memory.
  std::optional<isa::Decoded> interpret_decode(uint16_t pc) const;

  // Operand and flag helpers: they run inside every retired instruction
  // of the block loop, so they are forced inline there (defined in
  // cpu.cpp, their only user) instead of costing a call per operand.
  [[gnu::always_inline]] inline uint16_t read_src(const isa::Operand& op,
                                                  bool byte);
  [[gnu::always_inline]] inline DstRef resolve_dst(const isa::Operand& op);
  [[gnu::always_inline]] inline uint16_t read_at(const DstRef& ref, bool byte);
  [[gnu::always_inline]] inline void write_at(const DstRef& ref, bool byte,
                                              uint16_t value);
  void push_word(uint16_t value);
  uint16_t pop_word();

  // Retires the iterations of the counted delay loop `loop` (the
  // committed block at `pc`) that provably end in a taken `jnz` with
  // nothing observable in between, and returns how many. Its bounds:
  //   - the counter, leaving at least one real iteration, so the loop's
  //     final flags come from a real `dec`;
  //   - the run budget: spent + k * block_cycles < cycle_budget;
  //   - with GIE set, the interrupt horizon less the tick debt must
  //     still clear the real block that follows (the commit itself
  //     ruled out a pending line);
  //   - a breakpoint on the `jnz` allows no skip (one on the head
  //     stopped the run before the commit).
  // The skipped cycles are accrued as tick debt in one go.
  uint32_t skip_counted_loop(const isa::DecodedImage::Entry& loop, uint16_t pc,
                             uint16_t breakpoint_pc, uint64_t spent,
                             uint64_t cycle_budget,
                             std::span<Monitor* const> transfer_monitors);

  void exec_double(const isa::Instruction& insn);
  void exec_single(const isa::Instruction& insn, uint16_t insn_pc);
  // Condition of a jump-format instruction against the live flags.
  bool jump_taken(isa::Opcode op) const;

  void set_flag(uint16_t bit, bool on);
  // Replace all four status bits in one SR update (every ALU op writes
  // all four; doing it as four read-modify-writes was measurable in
  // the block-dispatch hot loop).
  [[gnu::always_inline]] inline void set_nzcv(bool n, bool z, bool c, bool v);
  bool flag(uint16_t bit) const { return (sr() & bit) != 0; }
  // Flag helper for add-with-carry style ops (sub is add of ~src).
  [[gnu::always_inline]] inline uint16_t add_and_flags(uint16_t a, uint16_t b,
                                                       unsigned carry_in,
                                                       bool byte);

  Bus& bus_;
  std::array<uint16_t, isa::kNumRegs> regs_{};
  uint16_t cur_pc_ = 0;  // pc of the executing instruction (bus attribution)
  // The CPU's own previous-fetch register, handed to the fetch hook so
  // region-transition rules need no per-watcher state. Reset points it
  // at the reset PC: the first fetch after a reset is no transition.
  uint16_t prev_fetch_pc_ = 0;
  uint64_t instructions_retired_ = 0;
  std::shared_ptr<const isa::DecodedImage> image_;
  uint64_t image_generation_ = 0;
  uint64_t decode_cache_hits_ = 0;
  uint64_t decode_cache_misses_ = 0;
  uint64_t blocks_executed_ = 0;
};

}  // namespace eilid::sim

#endif  // EILID_SIM_CPU_H
