#include "attacks/attack.h"

#include "common/error.h"
#include "common/hex.h"
#include "sim/memory_map.h"

namespace eilid::attacks {

void AttackEngine::schedule(Attack attack) {
  for (const auto& w : attack.writes) {
    if (!w.sp_relative && !sim::is_ram(w.addr)) {
      throw ConfigError(
          "attack write outside data RAM at " + hex16(w.addr) +
          ": a memory-corruption adversary cannot reach PMEM/ROM/secure DMEM");
    }
  }
  attacks_.push_back(std::move(attack));
  done_.push_back(false);
  hits_.push_back(0);
}

void AttackEngine::fire(const Attack& attack) {
  // The adversary's write happens "between" instructions: raw stores
  // model memory corruption achieved through a data-oriented exploit.
  for (const auto& w : attack.writes) {
    uint16_t addr = w.addr;
    if (w.sp_relative) {
      addr = static_cast<uint16_t>(machine_.cpu().sp() + w.addr);
      if (!sim::is_ram(addr)) continue;  // exploit window not reachable
    }
    if (w.byte) {
      machine_.bus().raw_store_byte(addr, static_cast<uint8_t>(w.value));
    } else {
      machine_.bus().raw_store_word(addr, w.value);
    }
  }
  ++fired_;
  last_fire_cycle_ = machine_.cycles();
}

bool AttackEngine::on_fetch(uint16_t pc, uint16_t prev_pc) {
  (void)prev_pc;
  for (size_t i = 0; i < attacks_.size(); ++i) {
    if (done_[i]) continue;
    const auto& a = attacks_[i];
    if (a.trigger.pc != pc) continue;
    if (a.trigger.kind == Trigger::Kind::kAtPc) {
      done_[i] = true;
      fire(a);
    } else if (++hits_[i] == a.trigger.hit) {
      done_[i] = true;
      fire(a);
    }
  }
  return true;
}

std::vector<uint8_t> overflow_ret_payload(uint16_t target) {
  // recv_packet: buf[8] at SP, saved return address at SP+8.
  std::vector<uint8_t> p;
  p.push_back(10);  // len: 8 filler + 2 bytes of return address
  for (int i = 0; i < 8; ++i) p.push_back(0x41);
  p.push_back(static_cast<uint8_t>(target));  // little endian
  p.push_back(static_cast<uint8_t>(target >> 8));
  return p;
}

std::vector<uint8_t> benign_payload() { return {4, 'p', 'i', 'n', 'g'}; }

}  // namespace eilid::attacks
