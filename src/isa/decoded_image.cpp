#include "isa/decoded_image.h"

#include "isa/cycles.h"
#include "isa/registers.h"

namespace eilid::isa {

bool is_control_transfer(const Instruction& insn) {
  const OpcodeInfo& info = opcode_info(insn.op);
  switch (info.format) {
    case Format::kJump:
      return true;
    case Format::kDouble:
      return insn.dst.mode == AddrMode::kRegister && insn.dst.reg == kPC;
    case Format::kSingle:
      if (insn.op == Opcode::kCall || insn.op == Opcode::kReti) return true;
      // rrc/rra/swpb/sxt with PC as the read-modify-write operand.
      return insn.op != Opcode::kPush &&
             insn.src.mode == AddrMode::kRegister && insn.src.reg == kPC;
  }
  return false;
}

bool writes_status_register(const Instruction& insn) {
  const OpcodeInfo& info = opcode_info(insn.op);
  switch (info.format) {
    case Format::kJump:
      return false;
    case Format::kDouble:
      return insn.dst.mode == AddrMode::kRegister && insn.dst.reg == kSR;
    case Format::kSingle:
      // rrc/rra/swpb/sxt with SR as the read-modify-write operand.
      // push reads only; call/reti are control transfers.
      return insn.op != Opcode::kPush && insn.op != Opcode::kCall &&
             insn.op != Opcode::kReti &&
             insn.src.mode == AddrMode::kRegister && insn.src.reg == kSR;
  }
  return false;
}

namespace {

// `dec rN` on a general-purpose register: word-mode `sub #1, rN` with
// rN in r4-r15 (r0-r3 are PC, SP, SR and the constant generator).
bool is_register_decrement(const Instruction& insn) {
  return insn.op == Opcode::kSub && !insn.byte_mode &&
         insn.src.mode == AddrMode::kImmediate && insn.src.value == 1 &&
         insn.dst.mode == AddrMode::kRegister && insn.dst.reg >= 4;
}

// Backward pass over one decoded range: each slot's run is its own
// instruction plus the run of its fall-through slot, unless the
// instruction is itself a hazard or the fall-through leaves the range.
void fill_block_suffixes(DecodedImage::RangeTable& table) {
  for (size_t i = table.entries.size(); i-- > 0;) {
    DecodedImage::Entry& e = table.entries[i];
    if (e.size_words == 0) continue;  // span stays 0: undecodable slot
    const uint16_t pc = static_cast<uint16_t>(table.first + 2 * i);
    e.span = 1;
    e.block_cycles = e.cycles;
    if (e.control_transfer) {
      e.end = BlockEnd::kTransfer;
      if (e.format == Format::kJump) {
        e.target = Decoded{e.insn, pc, e.size_words}.jump_target();
      } else if (e.insn.op == Opcode::kCall &&
                 e.insn.src.mode == AddrMode::kImmediate) {
        e.target = static_cast<uint16_t>(e.insn.src.value) & 0xFFFE;
      }
      continue;
    }
    if (writes_status_register(e.insn)) {
      e.end = BlockEnd::kSrWrite;
      continue;
    }
    if (static_cast<uint32_t>(pc) + 2u * e.size_words > table.last) {
      e.end = BlockEnd::kRangeEnd;
      continue;
    }
    const DecodedImage::Entry& succ = table.entries[i + e.size_words];
    if (succ.span == 0) {
      // The successor slot does not decode. Stop before it so the
      // illegal trap fires from the per-instruction path.
      e.end = BlockEnd::kLeadsIllegal;
      continue;
    }
    e.span = static_cast<uint16_t>(1 + succ.span);
    e.block_cycles = static_cast<uint16_t>(e.cycles + succ.block_cycles);
    e.target = succ.target;
    e.end = succ.end;
    // A jnz successor is the block's terminator, so its target is ours.
    e.counted_loop = succ.insn.op == Opcode::kJnz && e.target == pc &&
                     is_register_decrement(e.insn);
  }
}

}  // namespace

DecodedImage::DecodedImage(std::span<const uint8_t> memory,
                           std::span<const Range> ranges) {
  auto word_at = [&memory](uint32_t addr) {
    // Word reads wrap within the 16-bit space, mirroring Bus::raw_word;
    // the decoder rejects instructions extending past 0xFFFF anyway, so
    // wrapped values never reach an executed instruction.
    return static_cast<uint16_t>(
        memory[addr & 0xFFFF] |
        (static_cast<uint16_t>(memory[(addr + 1) & 0xFFFF]) << 8));
  };

  tables_.reserve(ranges.size());
  for (const Range& range : ranges) {
    RangeTable table;
    table.first = range.first & 0xFFFE;
    table.last = range.last;
    table.entries.resize((static_cast<size_t>(table.last - table.first) >> 1) + 1);
    for (uint32_t pc = table.first; pc <= table.last; pc += 2) {
      std::array<uint16_t, 3> words = {word_at(pc), word_at(pc + 2),
                                       word_at(pc + 4)};
      auto decoded = decode(words, static_cast<uint16_t>(pc));
      if (!decoded) continue;  // entry stays size_words == 0 (illegal)
      Entry& entry = table.entries[(pc - table.first) >> 1];
      entry.insn = decoded->insn;
      entry.next_address = decoded->next_address();
      entry.size_words = decoded->size_words;
      entry.cycles = static_cast<uint8_t>(instruction_cycles(decoded->insn));
      entry.format = opcode_info(decoded->insn.op).format;
      entry.control_transfer = is_control_transfer(decoded->insn);
      ++decoded_count_;
    }
    fill_block_suffixes(table);
    tables_.push_back(std::move(table));
  }
}

}  // namespace eilid::isa
