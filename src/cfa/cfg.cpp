#include "cfa/cfg.h"

#include <algorithm>
#include <stdexcept>

#include "isa/decoder.h"
#include "isa/registers.h"
#include "sim/memory_map.h"

namespace eilid::cfa {
namespace {

bool is_ret(const isa::Instruction& insn) {
  return insn.op == isa::Opcode::kMov &&
         insn.src.mode == isa::AddrMode::kIndirectInc &&
         insn.src.reg == isa::kSP &&
         insn.dst.mode == isa::AddrMode::kRegister && insn.dst.reg == isa::kPC;
}

bool is_br_imm(const isa::Instruction& insn) {
  return insn.op == isa::Opcode::kMov &&
         insn.src.mode == isa::AddrMode::kImmediate &&
         insn.dst.mode == isa::AddrMode::kRegister && insn.dst.reg == isa::kPC;
}

void sort_unique(std::vector<uint16_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

Cfg::Cfg(std::vector<Site> sites, std::vector<uint16_t> call_targets,
         std::vector<uint16_t> isr_entries, uint16_t reset_entry)
    : sites_(std::move(sites)),
      call_targets_(std::move(call_targets)),
      isr_entries_(std::move(isr_entries)),
      reset_entry_(reset_entry) {
  std::sort(sites_.begin(), sites_.end(),
            [](const Site& a, const Site& b) { return a.pc < b.pc; });
  for (size_t i = 1; i < sites_.size(); ++i) {
    if (sites_[i].pc == sites_[i - 1].pc) {
      throw std::invalid_argument("cfg: two sites at one address");
    }
  }
  sort_unique(call_targets_);
  sort_unique(isr_entries_);
  if (sites_.empty()) return;
  base_ = sites_.front().pc;
  index_.assign(static_cast<size_t>(sites_.back().pc - base_) + 1, 0);
  for (size_t i = 0; i < sites_.size(); ++i) {
    index_[sites_[i].pc - base_] = static_cast<uint16_t>(i + 1);
  }
}

bool Cfg::is_call_target(uint16_t addr) const {
  return std::binary_search(call_targets_.begin(), call_targets_.end(), addr);
}

bool Cfg::is_isr_entry(uint16_t addr) const {
  return std::binary_search(isr_entries_.begin(), isr_entries_.end(), addr);
}

Cfg extract_cfg(const masm::AssembledUnit& unit) {
  std::vector<Site> sites;
  std::vector<uint16_t> call_targets;
  std::vector<uint16_t> isr_entries;
  uint16_t reset_entry = 0;

  for (size_t i = 0; i < unit.listing.lines.size(); ++i) {
    const auto& line = unit.listing.lines[i];
    if (!line.is_instruction || line.bytes.size() < 2) continue;
    std::array<uint16_t, 3> words{};
    for (size_t w = 0; w < 3 && 2 * w + 1 < line.bytes.size(); ++w) {
      words[w] = static_cast<uint16_t>(line.bytes[2 * w] |
                                       (line.bytes[2 * w + 1] << 8));
    }
    auto decoded = isa::decode(words, line.address);
    if (!decoded) continue;
    const auto& insn = decoded->insn;
    Site site{line.address};

    if (isa::opcode_info(insn.op).format == isa::Format::kJump) {
      site.kind = SiteKind::kJump;
      site.target = decoded->jump_target();
    } else if (insn.op == isa::Opcode::kCall) {
      site.return_addr = decoded->next_address();
      if (insn.src.mode == isa::AddrMode::kImmediate) {
        site.kind = SiteKind::kCall;
        site.target = static_cast<uint16_t>(insn.src.value);
        call_targets.push_back(site.target);
      } else {
        site.kind = SiteKind::kIndirectCall;
      }
    } else if (is_ret(insn)) {
      site.kind = SiteKind::kRet;
    } else if (insn.op == isa::Opcode::kReti) {
      site.kind = SiteKind::kReti;
    } else if (is_br_imm(insn)) {
      site.kind = SiteKind::kJump;
      site.target = static_cast<uint16_t>(insn.src.value);
    }
    sites.push_back(site);
  }

  for (const auto& f : unit.func_symbols) {
    auto it = unit.symbols.find(f);
    if (it != unit.symbols.end()) call_targets.push_back(it->second);
  }
  for (const auto& [slot, handler] : unit.vectors) {
    auto it = unit.symbols.find(handler);
    if (it == unit.symbols.end()) continue;
    if (slot == sim::kResetVectorIndex) {
      reset_entry = it->second;
    } else {
      isr_entries.push_back(it->second);
    }
  }
  return Cfg(std::move(sites), std::move(call_targets),
             std::move(isr_entries), reset_entry);
}

}  // namespace eilid::cfa
