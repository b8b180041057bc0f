// Predecoded ROM image: a PC-indexed table of fully decoded
// instructions, built once per build and shared (read-only) by every
// simulated device flashed with that image.
//
// Rationale: CASU guarantees ROM/PMEM immutability at run time, so the
// per-step `isa::decode()` the interpretive core pays on every retired
// instruction can be hoisted to build time -- the same offline/online
// split CFI CaRE and OAT use to keep their runtime monitors cheap. The
// simulator consults the table for PCs inside the predecoded ranges and
// falls back to interpretive decode elsewhere (or after a write lands
// in the code range -- see Bus::code_generation()).
//
// Every entry also carries its *superblock suffix*: the straight-line
// run (basic block) that starts at that PC -- instruction span, summed
// cycles, and how the run terminates. Every even address is a valid
// block entry whose run extends to the first hazard at or after it, so
// a jump or indirect branch into the *middle* of some other entry's run
// simply dispatches the suffix at the landing PC: block splitting needs
// no runtime bookkeeping and no CFG lookup (the suffix form is closed
// over every PC the hardware could ever reach, including ones static
// analysis never names).
//
// A block that is exactly `dec rN; jnz <itself>` is additionally
// marked Entry::counted_loop, so the block core can retire many of its
// iterations at once instead of dispatching each one.
//
// Hazards that end a block (BlockEnd):
//   - kTransfer: the terminator may set PC non-sequentially (jumps,
//     call/reti, PC-destination ALU ops). Executed as part of the
//     block; the machine re-dispatches from wherever PC landed.
//   - kSrWrite: the terminator writes the status register, so GIE or
//     CPUOFF may flip mid-run; the machine must re-check interrupt
//     deliverability before the next instruction.
//   - kRangeEnd: the run hit the end of a predecoded range (top of the
//     secure ROM, top of memory). Execution falls through into
//     territory the table does not cover; the per-instruction core
//     takes over there.
//   - kLeadsIllegal: the next slot does not decode. The block stops
//     *before* it so the illegal-instruction trap is raised by the
//     per-instruction path with exactly the interpretive semantics.
//   - kNone (span == 0): this PC itself does not decode.
#ifndef EILID_ISA_DECODED_IMAGE_H
#define EILID_ISA_DECODED_IMAGE_H

#include <cstdint>
#include <span>
#include <vector>

#include "isa/decoder.h"

namespace eilid::isa {

// True when executing `insn` can set PC to anything other than the
// fall-through address: jumps, call/reti, and PC-destination ALU ops
// (br/ret are mov-to-PC after emulated-mnemonic expansion).
bool is_control_transfer(const Instruction& insn);

// True when executing `insn` can change the status register as a side
// effect visible to the interrupt logic: any register-mode write whose
// destination is SR (mov/bis/bic/... to r2, single-op RMW on r2).
// Flag updates from ALU ops do not count -- C/Z/N/V cannot mask an
// interrupt; GIE and CPUOFF can only be set through an SR-destination
// write (or reti, which is a control transfer already).
bool writes_status_register(const Instruction& insn);

enum class BlockEnd : uint8_t {
  kNone,          // entry PC does not decode (span == 0)
  kTransfer,      // control-transfer terminator
  kSrWrite,       // status-register-writing terminator
  kRangeEnd,      // predecoded range ends after the terminator
  kLeadsIllegal,  // the slot after the terminator does not decode
};

class DecodedImage {
 public:
  struct Entry {
    Instruction insn;
    uint16_t next_address = 0;  // fall-through (address + 2 * size_words)
    uint8_t size_words = 0;     // 0: bytes at this pc are not a legal
                                // instruction (authoritative illegal)
    uint8_t cycles = 0;         // isa::instruction_cycles(insn)
    Format format = Format::kDouble;  // opcode_info(insn.op).format
    bool control_transfer = false;
    // Superblock suffix starting here.
    uint16_t span = 0;          // instructions through the terminator
    uint16_t block_cycles = 0;  // summed cycles over the span
    // Static branch target of a kTransfer terminator: the jump target
    // for jump-format instructions, the immediate callee for
    // `call #addr`; 0 for indirect transfers (and for every other
    // terminator kind, whose successor is the fall-through).
    uint16_t target = 0;
    BlockEnd end = BlockEnd::kNone;
    // This slot's block is a counted delay loop: a word-mode
    // `sub #1, rN` (`dec rN`, rN in r4-r15) followed by a `jnz` back
    // to it, and nothing else. The block core retires such a loop's
    // iterations in bulk (Cpu::run_block); the flag only names the
    // shape, every bound on the skip is checked at run time.
    bool counted_loop = false;
  };

  // Inclusive code region to predecode; `first`/`last` must be even.
  // Block dispatch runs the bus's fetch rules only where execution
  // crosses from one range into another (sim::BusWatcher::on_fetch),
  // so a range must not straddle a memory-region boundary: the build
  // predecodes secure ROM and PMEM as two ranges.
  struct Range {
    uint16_t first;
    uint16_t last;
  };

  // One predecoded range's contiguous entries: entry i is the slot at
  // address first + 2*i.
  struct RangeTable {
    uint16_t first;
    uint16_t last;
    std::vector<Entry> entries;  // one per even address in [first, last]

    bool contains(uint16_t pc) const { return pc >= first && pc <= last; }
    const Entry& at(uint16_t pc) const {
      return entries[static_cast<size_t>(pc - first) >> 1];
    }
  };

  // `memory` is a full 64 KiB address-space snapshot (the flashed image
  // over zero-filled backing store, exactly what a freshly loaded
  // device's memory holds). Every even address in every range is
  // decoded; extension words are read from the snapshot wherever they
  // land. One backward pass per range then fills the block suffixes.
  DecodedImage(std::span<const uint8_t> memory, std::span<const Range> ranges);

  // The range holding `pc`, or nullptr when pc is outside every
  // predecoded range.
  const RangeTable* range_of(uint16_t pc) const {
    for (const RangeTable& t : tables_) {
      if (t.contains(pc)) return &t;
    }
    return nullptr;
  }

  // Entry for the instruction starting at `pc`, or nullptr when pc is
  // outside every predecoded range (the caller must decode
  // interpretively). A non-null entry with size_words == 0 means the
  // bytes at pc do not decode -- an illegal-instruction trap, no
  // interpretive retry needed.
  const Entry* lookup(uint16_t pc) const {
    const RangeTable* t = range_of(pc);
    return t != nullptr ? &t->at(pc) : nullptr;
  }

  // Number of addresses that decoded to a legal instruction.
  size_t decoded_count() const { return decoded_count_; }

 private:
  std::vector<RangeTable> tables_;
  size_t decoded_count_ = 0;
};

// One table per build holds both the per-instruction and the per-block
// facts; folding them must not grow the per-slot footprint past the two
// separate tables it replaced (32 + 8 bytes).
static_assert(sizeof(DecodedImage::Entry) <= 40);

}  // namespace eilid::isa

#endif  // EILID_ISA_DECODED_IMAGE_H
