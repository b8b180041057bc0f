// Host-side inspector for EILID's secure DMEM (tests and examples
// peek at the shadow stack / indirect-call table via raw bus access --
// something the simulated CPU itself is forbidden to do).
#ifndef EILID_EILID_INSPECT_H
#define EILID_EILID_INSPECT_H

#include <cstdint>
#include <vector>

#include "eilid/config.h"
#include "eilid/session.h"

namespace eilid::core {

class ShadowInspector {
 public:
  explicit ShadowInspector(DeviceSession& session)
      : machine_(session.machine()), cfg_(session.build().rom.config) {}

  // Number of live shadow entries (r5, or the memory-backed index).
  uint16_t depth() const {
    if (cfg_.memory_backed_index) {
      return machine_.bus().raw_word(cfg_.idx_addr());
    }
    return machine_.cpu().reg(kIndexReg);
  }

  uint16_t entry(uint16_t i) const {
    return machine_.bus().raw_word(
        static_cast<uint16_t>(cfg_.shadow_base_addr() + 2 * i));
  }

  std::vector<uint16_t> entries() const {
    std::vector<uint16_t> out;
    for (uint16_t i = 0; i < depth(); ++i) out.push_back(entry(i));
    return out;
  }

  uint16_t table_count() const {
    return machine_.bus().raw_word(cfg_.tbl_count_addr());
  }
  bool table_locked() const {
    return machine_.bus().raw_word(cfg_.tbl_lock_addr()) != 0;
  }
  uint16_t table_entry(uint16_t i) const {
    return machine_.bus().raw_word(
        static_cast<uint16_t>(cfg_.tbl_base_addr() + 2 * i));
  }

 private:
  sim::Machine& machine_;
  RomConfig cfg_;
};

}  // namespace eilid::core

#endif  // EILID_EILID_INSPECT_H
