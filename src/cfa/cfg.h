// Static control-flow graph extraction from an assembled unit. The CFA
// verifier replays logged edges against this CFG; the same structures
// back the attack demos' ground truth.
//
// Layout: one flat site table, one entry per instruction start, sorted
// by address. An entry carries everything replay needs to judge an
// edge leaving that instruction -- its kind, its direct target and (for
// calls) the return address -- so replay_edge does one lookup per edge.
// Lookups go through a dense index over the build's code range (the
// span from the lowest to the highest instruction address, two bytes
// per address), which for the contiguous code these units assemble to
// is a small multiple of the site count, not the 64 KiB address space.
// Legal indirect-call targets and ISR entry points are sorted vectors.
#ifndef EILID_CFA_CFG_H
#define EILID_CFA_CFG_H

#include <cstdint>
#include <span>
#include <vector>

#include "masm/assembler.h"

namespace eilid::cfa {

enum class SiteKind : uint8_t {
  kOther,         // transfers no control by itself (falls through)
  kJump,          // jump-format branch or `br #imm`: one legal target
  kCall,          // direct call: one legal target
  kIndirectCall,  // call through a register/memory: any call target
  kRet,           // mov @sp+, pc
  kReti,          // return from interrupt
};

struct Site {
  uint16_t pc = 0;
  SiteKind kind = SiteKind::kOther;
  uint16_t target = 0;       // kJump / kCall
  uint16_t return_addr = 0;  // kCall / kIndirectCall: next instruction

  bool operator==(const Site&) const = default;
};

class Cfg {
 public:
  Cfg() = default;
  // `sites` in any order, at most one per pc; `call_targets` and
  // `isr_entries` may repeat. Builds the lookup index once.
  explicit Cfg(std::vector<Site> sites, std::vector<uint16_t> call_targets = {},
               std::vector<uint16_t> isr_entries = {},
               uint16_t reset_entry = 0);

  // The site starting at `pc`, or null when no instruction starts there.
  const Site* site(uint16_t pc) const {
    const uint32_t offset = static_cast<uint32_t>(pc - base_) & 0xFFFF;
    if (offset >= index_.size() || index_[offset] == 0) return nullptr;
    return &sites_[index_[offset] - 1];
  }
  // Every instruction start, ascending.
  std::span<const Site> sites() const { return sites_; }

  bool has_jump_edge(uint16_t from, uint16_t to) const {
    const Site* s = site(from);
    return s != nullptr && s->kind == SiteKind::kJump && s->target == to;
  }

  // Legal indirect-call targets (declared functions + direct targets)
  // and ISR entry points (vector table handlers except reset), each
  // ascending and unique.
  std::span<const uint16_t> call_targets() const { return call_targets_; }
  std::span<const uint16_t> isr_entries() const { return isr_entries_; }
  bool is_call_target(uint16_t addr) const;
  bool is_isr_entry(uint16_t addr) const;
  uint16_t reset_entry() const { return reset_entry_; }

 private:
  std::vector<Site> sites_;       // ascending pc
  std::vector<uint16_t> index_;   // pc - base_ -> 1 + slot in sites_ (0: none)
  uint16_t base_ = 0;             // lowest site pc
  std::vector<uint16_t> call_targets_;
  std::vector<uint16_t> isr_entries_;
  uint16_t reset_entry_ = 0;
};

Cfg extract_cfg(const masm::AssembledUnit& unit);

}  // namespace eilid::cfa

#endif  // EILID_CFA_CFG_H
