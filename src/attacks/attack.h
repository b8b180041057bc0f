// Attack-injection engine modeling the paper's adversary (§III-B):
// full knowledge of the software, arbitrary *data-memory* tampering at
// run time (stack/heap/globals), no physical attacks. The engine
// attaches as a monitor and performs scheduled writes -- but only to
// regular RAM: secure DMEM, ROM and PMEM writes are architecturally
// impossible for a memory-corruption adversary on an EILID device
// (the engine refuses to model them).
#ifndef EILID_ATTACKS_ATTACK_H
#define EILID_ATTACKS_ATTACK_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "sim/monitor.h"

namespace eilid::attacks {

struct MemWrite {
  uint16_t addr = 0;       // absolute, or offset when sp_relative
  uint16_t value = 0;
  bool byte = false;
  bool sp_relative = false;  // addr = SP + offset at fire time
};

// When the corruption fires.
struct Trigger {
  enum class Kind : uint8_t {
    kAtPc,     // just before the instruction at `pc` executes
    kAtPcHit,  // the n-th time `pc` is about to execute
  };
  Kind kind = Kind::kAtPc;
  uint16_t pc = 0;
  unsigned hit = 1;
};

struct Attack {
  std::string name;
  Trigger trigger;
  std::vector<MemWrite> writes;
};

class AttackEngine : public sim::Monitor {
 public:
  explicit AttackEngine(sim::Machine& machine) : machine_(machine) {
    machine.add_monitor(this);
  }

  // Schedule an attack; throws eilid::ConfigError if an absolute write
  // targets memory a data-corruption adversary cannot reach.
  void schedule(Attack attack);

  size_t fired_count() const { return fired_; }
  bool all_fired() const { return fired_ == attacks_.size(); }
  // Machine cycle at which the most recent attack fired.
  uint64_t last_fire_cycle() const { return last_fire_cycle_; }

  // sim::Monitor. Triggers fire on one exact PC, so the engine needs
  // every fetch: it keeps the default wants_step() (true), which pins
  // its machine to per-instruction execution.
  bool on_fetch(uint16_t pc, uint16_t prev_pc) override;
  void on_device_reset() override {}  // attacks do not re-arm after reset

 private:
  void fire(const Attack& attack);

  sim::Machine& machine_;
  std::vector<Attack> attacks_;
  std::vector<bool> done_;
  std::vector<unsigned> hits_;
  size_t fired_ = 0;
  uint64_t last_fire_cycle_ = 0;
};

// --- Exploit payload builders for the vuln_gateway app. ---

// UART packet that overflows recv_packet's 8-byte stack buffer and
// overwrites the saved return address with `target`.
std::vector<uint8_t> overflow_ret_payload(uint16_t target);

// Benign packet (fits the buffer).
std::vector<uint8_t> benign_payload();

}  // namespace eilid::attacks

#endif  // EILID_ATTACKS_ATTACK_H
