// Property-based tests over randomly generated programs:
//   1. No false positives: any legal program (random acyclic call
//      graphs, random arithmetic, randomly timed timer interrupts)
//      runs to completion on the EILID device with zero resets.
//   2. No false negatives: corrupting a live return address at a
//      random call site is always caught before the return executes.
// Every case is reproducible from its printed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "attacks/attack.h"
#include "common/rng.h"
#include "eilid/inspect.h"
#include "eilid/pipeline.h"
#include "standalone_session.h"

namespace eilid {
namespace {

struct GeneratedProgram {
  std::string source;
  int num_functions;
  bool has_isr;
};

// Random program: functions f0..fN-1 where fi only calls fj (j > i),
// ensuring termination without recursion (which EILID excludes, §VII).
GeneratedProgram generate(uint64_t seed) {
  common::SeededRng rng(seed);
  GeneratedProgram prog;
  prog.num_functions = rng.range(2, 7);
  prog.has_isr = rng.chance(1, 2);

  std::string s = ".org 0xe000\nmain:\n    mov #0x1000, r1\n";
  if (prog.has_isr) {
    // Period must exceed the instrumented ISR round-trip (~170 cycles)
    // or the device livelocks servicing interrupts -- true of real
    // hardware too, but not a "legal program" for this property.
    int period = rng.range(300, 900);
    s += "    mov #" + std::to_string(period) + ", &0x0102\n";
    s += "    mov #3, &0x0100\n    eint\n";
  }
  // main calls a random non-empty subset of functions.
  bool called_any = false;
  for (int f = 0; f < prog.num_functions; ++f) {
    if (rng.chance(2, 3)) {
      s += "    call #f" + std::to_string(f) + "\n";
      called_any = true;
    }
  }
  if (!called_any) s += "    call #f0\n";
  if (prog.has_isr) s += "    dint\n";
  s += "halt:\n    jmp halt\n";

  for (int f = 0; f < prog.num_functions; ++f) {
    s += "f" + std::to_string(f) + ":\n";
    int ops = rng.range(1, 5);
    int calls_left = 2;  // bound fan-out: call trees stay polynomial
    for (int o = 0; o < ops; ++o) {
      int reg = rng.range(8, 12);
      switch (rng.range(0, 3)) {
        case 0:
          s += "    add #" + std::to_string(rng.range(1, 100)) + ", r" +
               std::to_string(reg) + "\n";
          break;
        case 1:
          s += "    xor r" + std::to_string(rng.range(8, 12)) + ", r" +
               std::to_string(reg) + "\n";
          break;
        case 2:
          s += "    mov r" + std::to_string(reg) + ", &0x0" +
               std::to_string(300 + 2 * reg) + "\n";
          break;
        case 3:
          s += "    rla r" + std::to_string(reg) + "\n";
          break;
      }
      // Calls to strictly later functions only.
      if (f + 1 < prog.num_functions && calls_left > 0 && rng.chance(1, 3)) {
        --calls_left;
        s += "    call #f" +
             std::to_string(rng.range(f + 1, prog.num_functions - 1)) + "\n";
      }
    }
    s += "    ret\n";
  }

  if (prog.has_isr) {
    s += "isr:\n    inc &0x0330\n    reti\n.vector 8, isr\n";
  }
  s += ".vector 15, main\n.end\n";
  prog.source = s;
  return prog;
}

class LegalPrograms : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LegalPrograms, NoFalsePositivesUnderEilid) {
  uint64_t seed = GetParam();
  GeneratedProgram prog = generate(seed);
  core::BuildResult build = core::build_app(prog.source, "gen", {});
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  auto r = device.run_to_symbol("halt", 2000000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint)
      << "seed " << seed << " resets="
      << device.machine().violation_count()
      << (device.machine().resets().size() > 1
              ? " reason=" + sim::reset_reason_name(
                                 device.machine().resets().back().reason)
              : "");
  EXPECT_EQ(device.machine().violation_count(), 0u) << "seed " << seed;
  // After completion the shadow stack must be empty (LIFO balance).
  core::ShadowInspector inspector(device);
  EXPECT_EQ(inspector.depth(), 0u) << "seed " << seed;
}

TEST_P(LegalPrograms, OriginalAndEilidComputeSameResult) {
  uint64_t seed = GetParam();
  GeneratedProgram prog = generate(seed);
  auto run = [&](bool eilid) {
    core::BuildOptions options;
    options.eilid = eilid;
    core::BuildResult build = core::build_app(prog.source, "gen", options);
    DeviceSession device = standalone_session(build);
    device.run_to_symbol("halt", 2000000);
    // Observable state: the RAM words the program writes.
    std::vector<uint16_t> ram;
    for (uint16_t a = 0x0300; a < 0x0340; a += 2) {
      ram.push_back(device.machine().bus().raw_word(a));
    }
    return ram;
  };
  // ISR timing shifts under instrumentation change the interleaving of
  // isr counters; restrict the equivalence check to ISR-free programs.
  if (prog.has_isr) GTEST_SKIP() << "ISR programs: timing-dependent state";
  EXPECT_EQ(run(false), run(true)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegalPrograms,
                         ::testing::Range<uint64_t>(1, 25));

// Counts how often each watched PC is about to execute -- the count
// the attack engine's kAtPcHit trigger compares against. A per-step
// monitor, so every fetch is seen.
class EntryCounter : public sim::Monitor {
 public:
  explicit EntryCounter(std::vector<uint16_t> pcs)
      : pcs_(std::move(pcs)), hits_(pcs_.size(), 0) {}
  bool on_fetch(uint16_t pc, uint16_t prev_pc) override {
    (void)prev_pc;
    for (size_t i = 0; i < pcs_.size(); ++i) hits_[i] += pcs_[i] == pc;
    return true;
  }
  unsigned hits(size_t i) const { return hits_[i]; }

 private:
  std::vector<uint16_t> pcs_;
  std::vector<unsigned> hits_;
};

class CorruptedReturns : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptedReturns, AlwaysCaughtBeforeUse) {
  uint64_t seed = GetParam();
  GeneratedProgram prog = generate(seed);
  core::BuildResult build = core::build_app(prog.source, "gen", {});

  // A benign run of the same build counts each function's entries, so
  // the victim is drawn, by construction, from the functions entered
  // at least as often as the trigger asks.
  DeviceSession benign = standalone_session(build, /*halt_on_reset=*/true);
  std::vector<uint16_t> entries;
  for (int f = 0; f < prog.num_functions; ++f) {
    entries.push_back(benign.symbol("f" + std::to_string(f)));
  }
  EntryCounter counter(entries);
  benign.machine().add_monitor(&counter);
  ASSERT_EQ(benign.run_to_symbol("halt", 2000000).cause,
            sim::StopCause::kBreakpoint)
      << "seed " << seed;
  unsigned most = 0;  // >= 1: main always calls some function
  for (size_t f = 0; f < entries.size(); ++f) {
    most = std::max(most, counter.hits(f));
  }
  common::SeededRng rng(seed * 977);
  const unsigned hit =
      static_cast<unsigned>(rng.range(1, static_cast<int>(std::min(most, 2u))));
  std::vector<size_t> candidates;
  for (size_t f = 0; f < entries.size(); ++f) {
    if (counter.hits(f) >= hit) candidates.push_back(f);
  }
  const size_t victim = candidates[rng.below(candidates.size())];

  // Corrupt the freshly pushed return address at the victim's entry
  // (at its first instruction [SP] holds the return address).
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  attacks::AttackEngine engine(device.machine());
  attacks::Attack attack;
  attack.trigger = {attacks::Trigger::Kind::kAtPcHit, entries[victim], hit};
  attacks::MemWrite w;
  w.sp_relative = true;
  w.addr = 0;
  // A target that is never a legitimate return address (the check
  // fires on the mismatch before the corrupt ret could even execute).
  w.value = 0xFFDC;
  attack.writes = {w};
  engine.schedule(attack);

  auto r = device.run_to_symbol("halt", 2000000);
  EXPECT_EQ(engine.fired_count(), 1u) << "seed " << seed;
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset) << "seed " << seed;
  EXPECT_EQ(device.machine().resets().back().reason,
            sim::ResetReason::kCfiReturnMismatch)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptedReturns,
                         ::testing::Range<uint64_t>(100, 116));

}  // namespace
}  // namespace eilid
