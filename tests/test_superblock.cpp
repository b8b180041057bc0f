// Superblock execution engine: block-granular dispatch must be
// architecturally invisible. Every case here runs the same program
// under all three oracle arms -- interpretive, superblock pinned
// per-step by a plain sim::Monitor, superblock -- and demands
// bit-identical final machine state (registers, cycles, retired
// instructions, reset log and any RAM the program wrote) -- plus proof
// the superblock run actually dispatched blocks, so the equality is
// not vacuous. The cases target the block engine's hard edges: a
// store into the currently executing block, an interrupt landing
// mid-block, the decode boundary at the top of memory, an indirect
// branch into the middle of another entry's run, counted delay loops
// and peripheral busy-waits retired in bulk, and fleet-wide sharing of
// one immutable decoded table per build.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apps/apps.h"
#include "cfa/attestation.h"
#include "common/rng.h"
#include "eilid/fleet.h"
#include "eilid/pipeline.h"
#include "isa/decoded_image.h"
#include "isa/encoder.h"
#include "sim/memory_map.h"
#include "sim/monitor.h"

namespace eilid {
namespace {

// The oracle's three arms: the interpretive reference, superblock
// pinned to per-instruction dispatch from the decoded table, and
// superblock.
struct Arm {
  ExecutionEngine engine;
  bool per_step;
  const char* name;
  bool dispatches_blocks() const {
    return engine == ExecutionEngine::kSuperblock && !per_step;
  }
};
constexpr Arm kArms[] = {
    {ExecutionEngine::kInterpretive, false, "interpretive"},
    {ExecutionEngine::kSuperblock, true, "superblock-per-step"},
    {ExecutionEngine::kSuperblock, false, "superblock"},
};

sim::Monitor step_pin;  // wants_step(): pins per-instruction dispatch

SessionOptions options_for(const Arm& arm) {
  SessionOptions options;
  options.engine = arm.engine;
  return options;
}

void pin_arm(const Arm& arm, DeviceSession& dev) {
  if (arm.per_step) dev.machine().add_monitor(&step_pin);
}

// Everything a program run can observably produce. RAM words to compare
// are listed explicitly per case (ram_from, ram_words).
struct FinalState {
  std::array<uint16_t, 16> regs{};
  uint64_t cycles = 0;
  uint64_t retired = 0;
  std::vector<std::tuple<uint64_t, uint16_t, uint8_t>> resets;
  std::vector<uint16_t> ram;

  bool operator==(const FinalState&) const = default;
};

FinalState capture(sim::Machine& m, uint16_t ram_from = 0,
                   size_t ram_words = 0) {
  FinalState out;
  for (int i = 0; i < 16; ++i) out.regs[static_cast<size_t>(i)] = m.cpu().reg(i);
  out.cycles = m.cycles();
  out.retired = m.cpu().instructions_retired();
  for (const sim::ResetEvent& e : m.resets()) {
    out.resets.emplace_back(e.cycle, e.pc, static_cast<uint8_t>(e.reason));
  }
  for (size_t i = 0; i < ram_words; ++i) {
    out.ram.push_back(m.bus().raw_word(static_cast<uint16_t>(ram_from + 2 * i)));
  }
  return out;
}

std::shared_ptr<const core::BuildResult> build_of(const char* source) {
  return std::make_shared<const core::BuildResult>(
      core::build_app(source, "superblock-case", {.eilid = false}));
}

// The CFA half of every differential: run the program under
// kCfaBaseline (CASU + logging monitor -- wants_step() false, so block
// dispatch stays engaged and on_control_transfer carries the log) on
// each engine and demand the attestation evidence is bit-identical:
// same edges in the same order, same drop count, same MAC. A block
// engine that reported transfers at wrong boundaries, merged edges or
// skipped the denied store would forge different evidence.
void expect_cfa_identical(std::shared_ptr<const core::BuildResult> build,
                          const char* tag, uint64_t budget) {
  std::vector<cfa::Report> reports;
  std::vector<FinalState> states;
  for (const Arm& arm : kArms) {
    DeviceSession dev(std::string(tag) + "-cfa-" + arm.name, build,
                      EnforcementPolicy::kCfaBaseline, options_for(arm));
    pin_arm(arm, dev);
    dev.machine().set_halt_on_reset(true);
    dev.machine().run(budget);
    states.push_back(capture(dev.machine()));
    reports.push_back(
        dev.cfa_monitor()->take_report(0xA5A5, dev.machine().cycles()));
  }
  EXPECT_EQ(states[1], states[0]) << tag;
  EXPECT_EQ(states[2], states[0]) << tag;
  EXPECT_FALSE(reports[0].edges.empty()) << tag;
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].edges, reports[0].edges) << tag;
    EXPECT_EQ(reports[i].dropped, reports[0].dropped) << tag;
    EXPECT_EQ(reports[i].cycle, reports[0].cycle) << tag;
    EXPECT_EQ(reports[i].mac, reports[0].mac) << tag;
  }
}

// ------------------------------------------------- self-modifying store

// The second instruction of main's straight-line run overwrites the
// fourth (`victim`) with the donor word (`incd r13`), while the block
// containing both is executing. The generation check must end the
// block at the patching store so the victim re-decodes from memory:
// r12 stays 0 and r13 becomes 2. A block engine that kept running its
// stale table would execute the original `inc r12`.
const char* kStoreIntoOwnBlock = R"(.equ DSTA, 0xE00A
.equ SRCA, 0xE010
.org 0xE000
main:
    mov #0x1000, r1
    mov &SRCA, &DSTA
victim:
    inc r12
halt:
    jmp halt
.org 0xE010
donor:
    incd r13
.vector 15, main
)";

TEST(Superblock, SelfModifyingStoreIntoExecutingBlock) {
  auto build = build_of(kStoreIntoOwnBlock);
  ASSERT_NE(build->decoded_image, nullptr);
  // The victim sits mid-run: the suffix at main spans the store, the
  // victim and the jmp terminator.
  const auto* entry = build->decoded_image->lookup(0xE000);
  ASSERT_NE(entry, nullptr);
  EXPECT_GE(entry->span, 4u);

  std::vector<FinalState> states;
  for (const Arm& arm : kArms) {
    DeviceSession dev(std::string("selfmod-") + arm.name, build,
                      EnforcementPolicy::kNone, options_for(arm));
    pin_arm(arm, dev);
    auto result = dev.run_to_symbol("halt", 10000);
    EXPECT_EQ(result.cause, sim::StopCause::kBreakpoint);
    EXPECT_EQ(dev.machine().cpu().reg(12), 0) << arm.name;
    EXPECT_EQ(dev.machine().cpu().reg(13), 2) << arm.name;
    if (arm.dispatches_blocks()) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
      // The patched build table is stale for good: the device fell back
      // to interpretive decode at the patch and stays there.
      EXPECT_FALSE(dev.machine().cpu().decode_cache_valid());
    } else {
      EXPECT_EQ(dev.machine().blocks_executed(), 0u);
    }
    states.push_back(capture(dev.machine()));
  }
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);

  // Under CASU the store into program memory is *denied* and the device
  // resets -- at the identical instruction, with identical evidence, on
  // every engine.
  expect_cfa_identical(build, "selfmod", 5000);
}

// ----------------------------------------------------------- IRQ timing

// The timer fires every 37 cycles while an 8-instruction straight-line
// block spins; almost every delivery lands mid-block. The ISR appends
// the *live value of r12* to a RAM log, so the exact instruction
// boundary of every delivery is frozen into memory: any engine that
// defers or advances an interrupt by even one instruction produces a
// different log.
const char* kIrqMidBlock = R"(.equ TIMER_CTL, 0x0100
.equ TIMER_CCR0, 0x0102
.equ TIMER_FLAGS, 0x0106
.org 0xE000
main:
    mov #0x1000, r1
    mov #0x0300, r15
    mov #37, &TIMER_CCR0
    mov #3, &TIMER_CTL
    eint
loop:
    inc r12
    inc r12
    inc r12
    inc r12
    inc r12
    inc r12
    inc r12
    inc r12
    cmp #40, r14
    jnz loop
    dint
halt:
    jmp halt
timer_isr:
    mov r12, 0(r15)
    incd r15
    inc r14
    clr &TIMER_FLAGS
    reti
.vector 15, main
.vector 8, timer_isr
)";

TEST(Superblock, IrqDeliversAtTheExactMidBlockBoundary) {
  auto build = build_of(kIrqMidBlock);
  std::vector<FinalState> states;
  for (const Arm& arm : kArms) {
    DeviceSession dev(std::string("irq-") + arm.name, build,
                      EnforcementPolicy::kNone, options_for(arm));
    pin_arm(arm, dev);
    auto result = dev.run_to_symbol("halt", 200000);
    EXPECT_EQ(result.cause, sim::StopCause::kBreakpoint);
    EXPECT_EQ(dev.machine().cpu().reg(14), 40) << arm.name;
    if (arm.dispatches_blocks()) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
    }
    // 40 logged r12 snapshots, one per delivery.
    states.push_back(capture(dev.machine(), 0x0300, 40));
  }
  // The log must not be trivially constant (deliveries really landed at
  // different spin counts).
  EXPECT_NE(states[0].ram.front(), states[0].ram.back());
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);

  // Interrupt entries and retis are logged edges: the CFA evidence
  // pins every delivery boundary.
  expect_cfa_identical(build, "irq", 150000);
}

// A line that ticking cannot raise -- the UART receive interrupt,
// asserted the moment its enable bit is written while a byte waits --
// pends while GIE is clear. The `eint` terminator then makes it
// deliverable, and the per-instruction core takes it before the next
// instruction. A block chain that consulted only the tick horizon ran
// on into `spin` and delivered it late (or, reaching `halt` first,
// never): the ISR's snapshot of r12 and its run flag pin the boundary.
const char* kPendingLineBeforeEint = R"(.equ UART_RX, 0x0132
.equ UART_STAT, 0x0134
.org 0xE000
main:
    mov #0x1000, r1
    mov #4, &UART_STAT
    clr r12
    eint
spin:
    inc r12
    inc r12
    cmp #20, r12
    jnz spin
    dint
halt:
    jmp halt
uart_isr:
    mov r12, &0x0300
    mov #1, &0x0302
    mov &UART_RX, r9
    mov #0, &UART_STAT
    reti
.vector 15, main
.vector 6, uart_isr
)";

TEST(Superblock, PendingLineIsDeliveredRightAfterEint) {
  auto build = build_of(kPendingLineBeforeEint);
  std::vector<FinalState> states;
  for (const Arm& arm : kArms) {
    DeviceSession dev(std::string("eint-") + arm.name, build,
                      EnforcementPolicy::kNone, options_for(arm));
    pin_arm(arm, dev);
    dev.machine().uart().feed(std::string("x"));
    auto result = dev.run_to_symbol("halt", 10000);
    EXPECT_EQ(result.cause, sim::StopCause::kBreakpoint) << arm.name;
    if (arm.dispatches_blocks()) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
    }
    states.push_back(capture(dev.machine(), 0x0300, 2));
  }
  // Delivered before the first `inc`, exactly once.
  EXPECT_EQ(states[0].ram, (std::vector<uint16_t>{0, 1}));
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);
}

// ------------------------------------------------- top-of-memory bound

TEST(Superblock, BlockEndsAtRangeBoundary) {
  // Unit-level: a range whose last slot holds a plain (non-transfer)
  // instruction. The backward pass must stop the run there with
  // kRangeEnd -- the fall-through leaves the table.
  isa::Instruction inc = isa::Instruction::double_op(
      isa::Opcode::kAdd, isa::Operand::make_imm(1),
      isa::Operand::make_reg(12));
  std::vector<uint8_t> memory(0x10000, 0);
  for (uint32_t pc = 0xFF00; pc <= 0xFF0A; pc += 2) {
    auto words = isa::encode(inc, static_cast<uint16_t>(pc));
    ASSERT_EQ(words.size(), 1u);
    memory[pc] = static_cast<uint8_t>(words[0]);
    memory[pc + 1] = static_cast<uint8_t>(words[0] >> 8);
  }
  const isa::DecodedImage::Range range[] = {{0xFF00, 0xFF0A}};
  isa::DecodedImage decoded(memory, range);
  const auto* first = decoded.lookup(0xFF00);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->span, 6u);
  EXPECT_EQ(first->end, isa::BlockEnd::kRangeEnd);
  const auto* last = decoded.lookup(0xFF0A);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->span, 1u);
  EXPECT_EQ(last->end, isa::BlockEnd::kRangeEnd);
}

// Machine-level: straight-line code high in PMEM runs off its own
// decoded tail into words that do not decode (the unused vector area).
// Every engine must fault at the same pc on the same cycle and reset
// identically.
const char* kRunsOffTheTop = R"(.org 0xE000
main:
    mov #0x1000, r1
    br #top
halt:
    jmp halt
.org 0xFFC0
top:
    inc r12
    inc r12
    inc r12
    inc r12
.vector 15, main
)";

TEST(Superblock, RunOffDecodedTailFaultsIdentically) {
  auto build = build_of(kRunsOffTheTop);
  std::vector<FinalState> states;
  for (const Arm& arm : kArms) {
    DeviceSession dev(std::string("top-") + arm.name, build,
                      EnforcementPolicy::kNone, options_for(arm));
    pin_arm(arm, dev);
    dev.machine().set_halt_on_reset(true);
    auto result = dev.machine().run(10000);
    EXPECT_EQ(result.cause, sim::StopCause::kDeviceReset) << arm.name;
    if (arm.dispatches_blocks()) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
    }
    // Power-on plus exactly one illegal-instruction trap at 0xFFC8 (the
    // first undecodable word after the inc run).
    ASSERT_EQ(dev.machine().resets().size(), 2u);
    EXPECT_EQ(dev.machine().resets()[1].pc, 0xFFC8);
    EXPECT_EQ(dev.machine().resets()[1].reason,
              sim::ResetReason::kIllegalInstruction);
    states.push_back(capture(dev.machine()));
  }
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);

  expect_cfa_identical(build, "top", 10000);
}

// ------------------------------------------- indirect branch mid-block

// `br r10` lands in the middle of the straight-line run that starts at
// `blockstart`. The suffix table needs no splitting: the landing pc is
// itself a block entry whose run is exactly the tail.
const char* kIndirectToMidBlock = R"(.org 0xE000
main:
    mov #0x1000, r1
    mov #midblock, r10
    clr r12
    br r10
blockstart:
    inc r12
midblock:
    inc r12
    inc r12
halt:
    jmp halt
.vector 15, main
)";

TEST(Superblock, IndirectBranchToMidBlockPcDispatchesTheSuffix) {
  auto build = build_of(kIndirectToMidBlock);
  ASSERT_NE(build->decoded_image, nullptr);
  // blockstart = 0xE00C, midblock = 0xE00E (mov #imm,r1 and mov #imm,r10
  // are two words each; clr and br are one). The suffix at the landing
  // pc is strictly shorter than the leader's run that contains it.
  const auto* leader = build->decoded_image->lookup(0xE00C);
  const auto* suffix = build->decoded_image->lookup(0xE00E);
  ASSERT_NE(leader, nullptr);
  ASSERT_NE(suffix, nullptr);
  EXPECT_EQ(leader->span, 4u);  // inc, inc, inc, jmp
  EXPECT_EQ(suffix->span, 3u);  // inc, inc, jmp
  EXPECT_EQ(suffix->end, isa::BlockEnd::kTransfer);

  std::vector<FinalState> states;
  for (const Arm& arm : kArms) {
    DeviceSession dev(std::string("mid-") + arm.name, build,
                      EnforcementPolicy::kNone, options_for(arm));
    pin_arm(arm, dev);
    auto result = dev.run_to_symbol("halt", 10000);
    EXPECT_EQ(result.cause, sim::StopCause::kBreakpoint);
    // The first inc (blockstart) was skipped: only the suffix ran.
    EXPECT_EQ(dev.machine().cpu().reg(12), 2) << arm.name;
    if (arm.dispatches_blocks()) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
    }
    states.push_back(capture(dev.machine()));
  }
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);

  // The indirect edge (br r10 -> midblock) must appear in the evidence
  // with the same from/to under block dispatch as interpretively.
  expect_cfa_identical(build, "mid", 10000);
}

// ---------------------------------------------- counted delay loops

// Two `dec rN; jnz self` delay loops: `delay_a` entered by falling
// through from the block that loads its counter, `delay_b` by a jump.
// With GIE on, the timer interrupts them every `period` cycles and the
// ISR sums the live counters into r12/r13, so every delivery point is
// frozen into the final registers.
std::string counted_loop_source(uint16_t count_a, uint16_t count_b,
                                unsigned period, bool gie) {
  return ".equ TIMER_CTL, 0x0100\n.equ TIMER_CCR0, 0x0102\n"
         ".equ TIMER_FLAGS, 0x0106\n.org 0xE000\nmain:\n"
         "    mov #0x1000, r1\n"
         "    mov #" + std::to_string(period) + ", &TIMER_CCR0\n"
         "    mov #3, &TIMER_CTL\n" +
         (gie ? "    eint\n" : "    nop\n") +
         "    mov #" + std::to_string(count_a) + ", r10\n"
         "delay_a:\n    dec r10\n    jnz delay_a\n"
         "    mov #" + std::to_string(count_b) + ", r11\n"
         "    jmp delay_b\n"
         "halt:\n    jmp halt\n"
         "delay_b:\n    dec r11\n    jnz delay_b\n    dint\n    jmp halt\n"
         "timer_isr:\n    add r10, r12\n    add r11, r13\n    inc r14\n"
         "    clr &TIMER_FLAGS\n    reti\n"
         ".vector 15, main\n.vector 8, timer_isr\n";
}

struct LoopCase {
  uint16_t count_a;
  uint16_t count_b;
  unsigned period;
  bool gie;
  const char* breakpoint;  // symbol, "+2" for its `jnz`; null: none
  uint64_t slice;          // run() budget per call, never a multiple of 3
};

std::string describe(const LoopCase& c) {
  return "counts " + std::to_string(c.count_a) + "/" +
         std::to_string(c.count_b) + " period " + std::to_string(c.period) +
         (c.gie ? " gie" : " no-gie") + " bp " +
         (c.breakpoint != nullptr ? c.breakpoint : "none") + " slice " +
         std::to_string(c.slice);
}

// Everything one arm of a counted-loop case produced.
struct LoopRun {
  std::vector<FinalState> breakpoint_stops;
  FinalState final_state;
  std::vector<cfa::LoggedEdge> edges;
  uint32_t dropped = 0;
  uint64_t total_edges = 0;
  crypto::Digest mac{};
  uint64_t blocks = 0;
  uint64_t decode_hits = 0;
  size_t mid_loop_stops = 0;  // slices that ended inside a loop

  bool operator==(const LoopRun& o) const {
    return breakpoint_stops == o.breakpoint_stops &&
           final_state == o.final_state && edges == o.edges &&
           dropped == o.dropped && total_edges == o.total_edges &&
           mac == o.mac && mid_loop_stops == o.mid_loop_stops;
  }
};

LoopRun run_loop_case(std::shared_ptr<const core::BuildResult> build,
                      const LoopCase& c, const Arm& arm) {
  SessionOptions options = options_for(arm);
  options.cfa.log_capacity = 1u << 18;  // never drops here
  DeviceSession dev(std::string("loop-") + arm.name, build,
                    EnforcementPolicy::kCfaBaseline, options);
  pin_arm(arm, dev);
  sim::Machine& m = dev.machine();
  const uint16_t a = dev.symbol("delay_a");
  const uint16_t b = dev.symbol("delay_b");
  const uint16_t halt = dev.symbol("halt");
  LoopRun out;
  if (c.breakpoint != nullptr) {
    const std::string name = c.breakpoint;
    const bool on_jnz = name.ends_with("+2");
    const uint16_t bp = static_cast<uint16_t>(
        dev.symbol(on_jnz ? name.substr(0, name.size() - 2) : name) +
        (on_jnz ? 2 : 0));
    // Stop at the breakpoint, retire one instruction past it, repeat.
    for (int hit = 0; hit < 3; ++hit) {
      m.run_until(bp, 5000);
      out.breakpoint_stops.push_back(capture(m));
      m.run(1);
    }
  }
  while (m.cpu().pc() != halt && m.cycles() < 2'000'000) {
    m.run_until(halt, c.slice);
    const uint16_t pc = m.cpu().pc();
    if (pc == a || pc == a + 2 || pc == b || pc == b + 2) ++out.mid_loop_stops;
  }
  out.final_state = capture(m);
  cfa::CfaMonitor& monitor = *dev.cfa_monitor();
  out.total_edges = monitor.total_edges();
  cfa::Report report = monitor.take_report(0x600D, m.cycles());
  out.edges = std::move(report.edges);
  out.dropped = report.dropped;
  out.mac = report.mac;
  out.blocks = m.blocks_executed();
  out.decode_hits = m.cpu().decode_cache_hits();
  return out;
}

// The bulk retirement of counted loops is invisible: whatever the
// counter (0 wraps through 65,536 iterations; 1-3 leave nothing or
// almost nothing to skip), the run budget (never a multiple of the
// 3-cycle iteration), a timer interrupt landing mid-loop with GIE on or
// pending behind GIE off, a breakpoint on the loop head or its `jnz`,
// or a run() resumed in the middle of a loop, all three arms end in
// the same registers, SR, cycles, retired count, resets, breakpoint
// stops and CFA evidence. And the plain superblock arm really skipped:
// fewer blocks than the loop iterations a block-per-iteration chain
// would have dispatched.
TEST(Superblock, CountedLoopAgreesAcrossArms) {
  std::vector<LoopCase> cases;
  common::SeededRng rng(0x10095EED);
  auto slice = [&rng] {
    uint64_t s = 64 + rng.below(1900);
    return s % 3 == 0 ? s + 1 : s;
  };
  const char* breakpoints[] = {nullptr, "delay_a", "delay_a+2", "delay_b",
                               "delay_b+2"};
  constexpr uint16_t kEdgeCounts[][2] = {{0, 1}, {1, 0}, {2, 3}, {3, 2}};
  for (const auto& counts : kEdgeCounts) {
    for (bool gie : {true, false}) {
      for (const char* bp : {breakpoints[0], breakpoints[1], breakpoints[2]}) {
        cases.push_back({counts[0], counts[1],
                         static_cast<unsigned>(60 + rng.below(600)), gie, bp,
                         slice()});
      }
    }
  }
  for (int i = 0; i < 24; ++i) {
    cases.push_back({static_cast<uint16_t>(4 + rng.below(3000)),
                     static_cast<uint16_t>(4 + rng.below(3000)),
                     static_cast<unsigned>(60 + rng.below(600)),
                     rng.below(2) == 0, breakpoints[rng.below(5)], slice()});
  }
  // Short slices too: budgets below one skip's worth of iterations.
  cases.push_back({500, 0, 100, true, nullptr, 7});
  cases.push_back({0, 500, 100, false, nullptr, 11});

  size_t mid_loop_stops = 0;
  size_t skip_checked = 0;
  for (const LoopCase& c : cases) {
    const std::string tag = describe(c);
    auto build = build_of(
        counted_loop_source(c.count_a, c.count_b, c.period, c.gie).c_str());
    std::vector<LoopRun> runs;
    for (const Arm& arm : kArms) runs.push_back(run_loop_case(build, c, arm));
    EXPECT_EQ(runs[1], runs[0]) << tag;
    EXPECT_EQ(runs[2], runs[0]) << tag;
    EXPECT_EQ(runs[0].dropped, 0u) << tag;
    EXPECT_EQ(runs[0].blocks, 0u) << tag;
    EXPECT_EQ(runs[1].blocks, 0u) << tag;
    // Skipped instructions were served from the table too.
    EXPECT_EQ(runs[1].decode_hits, runs[1].final_state.retired) << tag;
    EXPECT_EQ(runs[2].decode_hits, runs[2].final_state.retired) << tag;
    mid_loop_stops += runs[0].mid_loop_stops;
    size_t loop_edges = 0;
    for (const cfa::LoggedEdge& e : runs[0].edges) {
      if (e.to + 2 == e.from && !e.irq) ++loop_edges;
    }
    if (loop_edges >= 64 && c.slice >= 64) {
      EXPECT_LT(runs[2].blocks, loop_edges) << tag;
      ++skip_checked;
    }
  }
  EXPECT_GT(mid_loop_stops, 0u);
  EXPECT_GT(skip_checked, cases.size() / 2);
}

// The CFA log fills in the middle of a skip. The device is stopped at
// the loop head with 300 iterations to go and its log drained, so the
// first loop edge lands in an empty log and the bulk append must keep
// exactly `capacity` edges, drop the rest and count every one of them
// -- in one skip (one budget for the whole loop) and across several
// (a budget of 100 cycles per run()).
TEST(Superblock, CfaLogFillingMidSkipMatchesPerStep) {
  auto build = build_of(R"(.org 0xE000
main:
    mov #0x1000, r1
    mov #300, r10
delay:
    dec r10
    jnz delay
halt:
    jmp halt
.vector 15, main
)");
  for (size_t capacity : {1u, 5u, 17u}) {
    for (uint64_t slice : {10000u, 100u}) {
      const std::string tag = "capacity " + std::to_string(capacity) +
                              " slice " + std::to_string(slice);
      std::vector<LoopRun> runs;
      for (const Arm& arm : kArms) {
        SessionOptions options = options_for(arm);
        options.cfa.log_capacity = capacity;
        DeviceSession dev(std::string("fill-") + arm.name, build,
                          EnforcementPolicy::kCfaBaseline, options);
        pin_arm(arm, dev);
        sim::Machine& m = dev.machine();
        cfa::CfaMonitor& monitor = *dev.cfa_monitor();
        dev.run_to_symbol("delay", 1000);
        monitor.take_report(1, m.cycles());  // the power-on marker
        const uint64_t blocks_before = m.blocks_executed();
        while (m.cpu().pc() != dev.symbol("halt")) {
          dev.run_to_symbol("halt", slice);
        }
        LoopRun run;
        run.final_state = capture(m);
        run.total_edges = monitor.total_edges();
        cfa::Report report = monitor.take_report(2, m.cycles());
        run.edges = std::move(report.edges);
        run.dropped = report.dropped;
        run.mac = report.mac;
        run.blocks = m.blocks_executed() - blocks_before;
        runs.push_back(std::move(run));
      }
      EXPECT_EQ(runs[1], runs[0]) << tag;
      EXPECT_EQ(runs[2], runs[0]) << tag;
      // 299 taken `jnz`s after the power-on marker.
      EXPECT_EQ(runs[0].total_edges, 300u) << tag;
      EXPECT_EQ(runs[0].edges.size(), capacity) << tag;
      EXPECT_EQ(runs[0].dropped, 299u - capacity) << tag;
      // The superblock arm skipped: far fewer blocks than iterations.
      // Given the whole loop in one budget it is a single block, the
      // skip at run entry plus the one real iteration that ends it.
      EXPECT_LT(runs[2].blocks, 40u) << tag;
      if (slice == 10000) EXPECT_EQ(runs[2].blocks, 1u) << tag;
    }
  }
}

// ----------------------------------------------- peripheral poll loops

// One busy-wait: the test and the conditional jump back to it.
struct PollForm {
  const char* test;
  const char* jump;
};

// ADC waits: for the done bit, or for the busy bit (ADC_CTL bit 15,
// also read as the high byte at 0x0111) to clear.
constexpr PollForm kAdcWaits[] = {
    {"tst &ADC_STAT", "jz"},        {"tst.b &ADC_STAT", "jz"},
    {"bit #1, &ADC_STAT", "jz"},    {"bit.b #1, &ADC_STAT", "jz"},
    {"cmp #0, &ADC_STAT", "jeq"},   {"cmp r5, &ADC_STAT", "jeq"},
    {"bit #0x8000, &ADC_CTL", "jnz"}, {"bit.b #0x80, &0x0111", "jnz"},
};
// Ranger waits: for the ready bit, in word, byte and symbolic reads.
constexpr PollForm kRangerWaits[] = {
    {"tst &US_STAT", "jz"},      {"tst.b &US_STAT", "jz"},
    {"bit #1, &US_STAT", "jz"},  {"cmp #0, &US_STAT", "jeq"},
    {"cmp #1, &US_STAT", "jnz"}, {"cmp &US_STAT, r5", "jeq"},
    {"tst US_STAT", "jz"},
};

constexpr const char* kPollEqus =
    ".equ TIMER_CTL, 0x0100\n.equ TIMER_CCR0, 0x0102\n"
    ".equ TIMER_FLAGS, 0x0106\n.equ ADC_CTL, 0x0110\n.equ ADC_MEM, 0x0112\n"
    ".equ ADC_STAT, 0x0114\n.equ P1IN, 0x0120\n.equ UART_RX, 0x0132\n"
    ".equ US_TRIG, 0x0140\n.equ US_ECHO, 0x0142\n.equ US_STAT, 0x0144\n";

// The timer prologue and ISR every poll program shares. With GIE on,
// the timer interrupts the waits every `period` cycles and the ISR
// folds the live loop count, the interrupted PC and the interrupted SR
// into r12, r13 and r15, so every delivery point shows in the final
// registers.
std::string poll_program(unsigned period, bool gie, const std::string& body) {
  return std::string(kPollEqus) + ".org 0xE000\nmain:\n" +
         "    mov #0x1000, r1\n    clr r5\n"
         "    mov #" + std::to_string(period) + ", &TIMER_CCR0\n"
         "    mov #3, &TIMER_CTL\n" +
         (gie ? "    eint\n" : "    nop\n") + body +
         "    dint\nhalt:\n    jmp halt\n"
         "timer_isr:\n    add r10, r12\n    add 2(r1), r13\n    add @r1, r15\n"
         "    inc r14\n    clr &TIMER_FLAGS\n    reti\n"
         ".vector 15, main\n.vector 8, timer_isr\n";
}

// `waits` rounds of an ADC conversion and a ranger ping, each waited
// out by the given form, their results summed into r9. `pad` 1-cycle
// `nop`s after the ADC trigger shift where the conversion's end falls
// among the wait's reads (some pads put a read exactly on it).
std::string sensor_waits(const PollForm& adc, const PollForm& ranger,
                         unsigned waits, unsigned pad) {
  std::string nops;
  for (unsigned i = 0; i < pad; ++i) nops += "    nop\n";
  return "    mov #" + std::to_string(waits) + ", r10\nagain:\n"
         "    mov #0x101, &ADC_CTL\n" + nops + "adc_wait:\n    " + adc.test +
         "\n    " +
         adc.jump + " adc_wait\n    add &ADC_MEM, r9\n"
         "    mov #1, &US_TRIG\nus_wait:\n    " + ranger.test + "\n    " +
         ranger.jump + " us_wait\n    add &US_ECHO, r9\n"
         "    dec r10\n    jnz again\n";
}

enum class PollStop : uint8_t { kNone, kHead, kJump };

struct PollCase {
  std::string source;
  std::vector<const char*> heads;  // the wait loops' head symbols
  const char* breakpoint_head;     // which head a breakpoint sits near
  PollStop breakpoint;
  uint64_t slice;        // run() budget per call
  uint64_t cycle_limit;  // stop here if halt is never reached
  std::vector<uint16_t> distances_mm;
  std::string uart_rx;
  std::string tag;
};

// The address of the jump that closes the wait loop at `head`.
uint16_t jump_of(const DeviceSession& dev, uint16_t head) {
  return dev.build().decoded_image->lookup(head)->next_address;
}

LoopRun run_poll_case(std::shared_ptr<const core::BuildResult> build,
                      const PollCase& c, const Arm& arm) {
  SessionOptions options = options_for(arm);
  options.cfa.log_capacity = 1u << 18;  // never drops here
  DeviceSession dev(std::string("poll-") + arm.name, build,
                    EnforcementPolicy::kCfaBaseline, options);
  pin_arm(arm, dev);
  sim::Machine& m = dev.machine();
  m.adc().set_channel_series(1, {11, 222, 3333});
  m.ranger().set_distances_mm(c.distances_mm);
  m.uart().feed(c.uart_rx);
  std::vector<uint16_t> loop_pcs;
  for (const char* head : c.heads) {
    loop_pcs.push_back(dev.symbol(head));
    loop_pcs.push_back(jump_of(dev, dev.symbol(head)));
  }
  const uint16_t halt = dev.symbol("halt");
  LoopRun out;
  if (c.breakpoint != PollStop::kNone) {
    const uint16_t head = dev.symbol(c.breakpoint_head);
    const uint16_t bp =
        c.breakpoint == PollStop::kHead ? head : jump_of(dev, head);
    // Stop at the breakpoint, retire one instruction past it, repeat.
    for (int hit = 0; hit < 3; ++hit) {
      m.run_until(bp, 5000);
      out.breakpoint_stops.push_back(capture(m));
      m.run(1);
    }
  }
  while (m.cpu().pc() != halt && m.cycles() < c.cycle_limit) {
    m.run_until(halt, c.slice);
    if (std::find(loop_pcs.begin(), loop_pcs.end(), m.cpu().pc()) !=
        loop_pcs.end()) {
      ++out.mid_loop_stops;
    }
  }
  out.final_state = capture(m);
  cfa::CfaMonitor& monitor = *dev.cfa_monitor();
  out.total_edges = monitor.total_edges();
  cfa::Report report = monitor.take_report(0x9011, m.cycles());
  out.edges = std::move(report.edges);
  out.dropped = report.dropped;
  out.mac = report.mac;
  out.blocks = m.blocks_executed();
  out.decode_hits = m.cpu().decode_cache_hits();
  return out;
}

// Taken jumps back to a wait loop's head: its iterations less one.
size_t poll_iterations(const LoopRun& run,
                       const std::shared_ptr<const core::BuildResult>& build,
                       const PollCase& c) {
  size_t edges = 0;
  for (const char* head : c.heads) {
    const uint16_t pc = build->app.symbols.at(head);
    const uint16_t jump = build->decoded_image->lookup(pc)->next_address;
    for (const cfa::LoggedEdge& e : run.edges) {
      if (e.from == jump && e.to == pc && !e.irq) ++edges;
    }
  }
  return edges;
}

// Busy-waits on a peripheral register retire in bulk, invisibly: ADC
// and ranger waits in every test form (word and byte, absolute and
// symbolic, wait-for-set and wait-for-clear), with a timer interrupt
// landing mid-wait under GIE or pending behind GIE off, a breakpoint
// on a loop head, on its jump or none, and run() slices that are never
// a multiple of one iteration's 6 or 7 cycles (some shorter than one
// iteration). Two registers must not be skipped on: the UART receive
// buffer, whose read consumes a byte, and P1IN, which never changes, so
// its wait lasts until the budget runs out. All three arms end in the
// same registers, SR, cycles, retired count, resets, breakpoint stops
// and CFA evidence. And the plain superblock arm really skipped: on
// long waits, fewer blocks than wait iterations.
TEST(Superblock, PollLoopAgreesAcrossArms) {
  common::SeededRng rng(0x9011F00D);
  auto slice = [&rng] {
    if (rng.below(6) == 0) return 1 + rng.below(5);  // under one iteration
    uint64_t s = 64 + rng.below(1900);
    while (s % 6 == 0 || s % 7 == 0) ++s;
    return s;
  };
  auto distances = [&rng] {
    return std::vector<uint16_t>{static_cast<uint16_t>(rng.below(1500)),
                                 static_cast<uint16_t>(rng.below(1500))};
  };
  const char* const kHeads[] = {"adc_wait", "us_wait"};
  constexpr PollStop kStops[] = {PollStop::kNone, PollStop::kHead,
                                 PollStop::kJump};
  std::vector<PollCase> cases;
  auto add_sensor_case = [&](const PollForm& adc, const PollForm& ranger,
                             bool gie, PollStop stop) {
    const unsigned period = static_cast<unsigned>(60 + rng.below(600));
    const unsigned waits = static_cast<unsigned>(1 + rng.below(3));
    const unsigned pad = static_cast<unsigned>(rng.below(7));
    PollCase c{poll_program(period, gie,
                            sensor_waits(adc, ranger, waits, pad)),
               {"adc_wait", "us_wait"}, kHeads[rng.below(2)], stop, slice(),
               2'000'000, distances(), "", ""};
    c.tag = std::string(adc.test) + " / " + ranger.test + " period " +
            std::to_string(period) + " pad " + std::to_string(pad) +
            (gie ? " gie" : " no-gie") + " bp " +
            std::to_string(static_cast<int>(stop)) + " near " +
            c.breakpoint_head + " slice " + std::to_string(c.slice);
    cases.push_back(std::move(c));
  };
  for (const PollForm& adc : kAdcWaits) {
    for (bool gie : {true, false}) {
      add_sensor_case(adc, kRangerWaits[rng.below(std::size(kRangerWaits))],
                      gie, kStops[rng.below(3)]);
    }
  }
  for (const PollForm& ranger : kRangerWaits) {
    for (bool gie : {true, false}) {
      add_sensor_case(kAdcWaits[rng.below(std::size(kAdcWaits))], ranger, gie,
                      kStops[rng.below(3)]);
    }
  }
  // The UART receive buffer: 40 zero bytes, then the one that ends the
  // wait. Every read consumes one, so no read may be skipped.
  for (const char* test : {"tst &UART_RX", "tst.b &UART_RX"}) {
    for (bool gie : {true, false}) {
      const unsigned period = static_cast<unsigned>(60 + rng.below(600));
      PollCase c{poll_program(period, gie,
                              std::string("rx_wait:\n    ") + test +
                                  "\n    jz rx_wait\n    mov r9, r9\n"),
                 {"rx_wait"}, "rx_wait", kStops[rng.below(3)], slice(),
                 2'000'000, {100}, std::string(40, '\0') + "A", ""};
      c.tag = std::string(test) + (gie ? " gie" : " no-gie") + " slice " +
              std::to_string(c.slice);
      cases.push_back(std::move(c));
    }
  }
  // P1IN never changes: the wait ends only with the cycle limit.
  for (bool gie : {true, false}) {
    for (uint64_t s : {uint64_t{3}, slice(), uint64_t{20011}}) {
      const unsigned period = static_cast<unsigned>(60 + rng.below(600));
      PollCase c{poll_program(period, gie,
                              "p1_wait:\n    tst.b &P1IN\n    jz p1_wait\n"),
                 {"p1_wait"}, "p1_wait", PollStop::kNone, s, 60'000, {100},
                 "", ""};
      c.tag = std::string("p1in") + (gie ? " gie" : " no-gie") + " slice " +
              std::to_string(s);
      cases.push_back(std::move(c));
    }
  }

  size_t mid_loop_stops = 0;
  size_t skip_checked = 0;
  for (const PollCase& c : cases) {
    auto build = std::make_shared<const core::BuildResult>(
        core::build_app(c.source, "poll-case", {.eilid = false}));
    for (const char* head : c.heads) {
      ASSERT_EQ(build->decoded_image->lookup(build->app.symbols.at(head))->loop,
                isa::LoopKind::kPoll)
          << c.tag << " " << head;
    }
    std::vector<LoopRun> runs;
    for (const Arm& arm : kArms) runs.push_back(run_poll_case(build, c, arm));
    EXPECT_EQ(runs[1], runs[0]) << c.tag;
    EXPECT_EQ(runs[2], runs[0]) << c.tag;
    EXPECT_EQ(runs[0].dropped, 0u) << c.tag;
    EXPECT_EQ(runs[0].blocks, 0u) << c.tag;
    EXPECT_EQ(runs[1].blocks, 0u) << c.tag;
    EXPECT_EQ(runs[1].decode_hits, runs[1].final_state.retired) << c.tag;
    EXPECT_EQ(runs[2].decode_hits, runs[2].final_state.retired) << c.tag;
    mid_loop_stops += runs[0].mid_loop_stops;
    const size_t iterations = poll_iterations(runs[0], build, c);
    if (c.heads[0] == std::string("rx_wait")) {
      // Never skipped: every iteration's jump back is its own block.
      EXPECT_EQ(iterations, 40u) << c.tag;
      EXPECT_GE(runs[2].blocks, iterations) << c.tag;
    } else if (iterations >= 64 && c.slice >= 64) {
      EXPECT_LT(runs[2].blocks, iterations) << c.tag;
      ++skip_checked;
    }
  }
  EXPECT_GT(mid_loop_stops, 0u);
  EXPECT_GT(skip_checked, cases.size() / 2);
}

// The CFA log fills in the middle of a poll skip. The device is stopped
// at the head of a ranger wait just after the ping, its log drained, so
// the first loop edge lands in an empty log and the bulk append must
// keep exactly `capacity` edges, drop the rest and count every one of
// them -- in one skip (one budget for the whole wait) and across
// several (a budget of 100 cycles per run()).
TEST(Superblock, CfaLogFillingMidPollSkipMatchesPerStep) {
  auto build = build_of(R"(.equ US_TRIG, 0x0140
.equ US_ECHO, 0x0142
.equ US_STAT, 0x0144
.org 0xE000
main:
    mov #0x1000, r1
    mov #1, &US_TRIG
wait:
    tst &US_STAT
    jz wait
    mov &US_ECHO, r9
halt:
    jmp halt
.vector 15, main
)");
  for (size_t capacity : {1u, 5u, 17u}) {
    for (uint64_t slice : {10000u, 100u}) {
      const std::string tag = "capacity " + std::to_string(capacity) +
                              " slice " + std::to_string(slice);
      std::vector<LoopRun> runs;
      for (const Arm& arm : kArms) {
        SessionOptions options = options_for(arm);
        options.cfa.log_capacity = capacity;
        DeviceSession dev(std::string("poll-fill-") + arm.name, build,
                          EnforcementPolicy::kCfaBaseline, options);
        pin_arm(arm, dev);
        sim::Machine& m = dev.machine();
        cfa::CfaMonitor& monitor = *dev.cfa_monitor();
        dev.run_to_symbol("wait", 1000);
        monitor.take_report(1, m.cycles());  // the power-on marker
        const uint64_t blocks_before = m.blocks_executed();
        while (m.cpu().pc() != dev.symbol("halt")) {
          dev.run_to_symbol("halt", slice);
        }
        LoopRun run;
        run.final_state = capture(m);
        run.total_edges = monitor.total_edges();
        cfa::Report report = monitor.take_report(2, m.cycles());
        run.edges = std::move(report.edges);
        run.dropped = report.dropped;
        run.mac = report.mac;
        run.blocks = m.blocks_executed() - blocks_before;
        runs.push_back(std::move(run));
      }
      EXPECT_EQ(runs[1], runs[0]) << tag;
      EXPECT_EQ(runs[2], runs[0]) << tag;
      // The ping of the default 1000 mm flies 100 + 4 * 1000 cycles from
      // the trigger write; the 4-cycle `mov` that wrote it, then 6-cycle
      // iterations, put the first ready read at iteration 683. So 683
      // taken jumps after the power-on marker.
      EXPECT_EQ(runs[0].total_edges, 684u) << tag;
      EXPECT_EQ(runs[0].edges.size(), capacity) << tag;
      EXPECT_EQ(runs[0].dropped, 683u - capacity) << tag;
      // The superblock arm skipped: far fewer blocks than iterations
      // (about four per 100-cycle slice, a handful for the whole wait).
      EXPECT_LT(runs[2].blocks, 200u) << tag;
      if (slice == 10000) EXPECT_LT(runs[2].blocks, 8u) << tag;
    }
  }
}

// ------------------------------------------ dispatches under monitors

// Enforcement costs no dispatches: CASU's fetch rules run at run entry
// and range crossings and the CFA log is fed from inside the chain, so
// on an uninstrumented build (no ROM, no deferred interrupts) a
// monitored device takes exactly the dispatch path of a bare one --
// same block-core entries, same per-step fallbacks, same blocks.
TEST(Superblock, MonitoredPoliciesDispatchExactlyAsOftenAsBare) {
  constexpr EnforcementPolicy kMonitored[] = {EnforcementPolicy::kCasu,
                                              EnforcementPolicy::kCfaBaseline};
  for (const apps::AppSpec& app : apps::table4_apps()) {
    auto build = std::make_shared<const core::BuildResult>(
        core::build_app(app.source, app.name, {.eilid = false}));
    auto run = [&](EnforcementPolicy policy) {
      auto dev = std::make_unique<DeviceSession>(
          app.name + "-" + std::string(enforcement_policy_name(policy)),
          build, policy, SessionOptions{});
      const apps::WorkloadOutcome out = apps::run_workload(*dev, app);
      EXPECT_TRUE(out.reached_halt) << app.name;
      EXPECT_EQ(out.violations, 0u) << app.name;
      return dev;
    };
    auto bare = run(EnforcementPolicy::kNone);
    sim::Machine& ref = bare->machine();
    EXPECT_GT(ref.blocks_executed(), 0u) << app.name;
    // The chain really chains: fewer dispatches than blocks.
    EXPECT_LT(ref.dispatches(), ref.blocks_executed()) << app.name;
    for (EnforcementPolicy policy : kMonitored) {
      auto dev = run(policy);
      sim::Machine& m = dev->machine();
      const std::string tag =
          app.name + " / " + std::string(enforcement_policy_name(policy));
      EXPECT_EQ(m.dispatches(), ref.dispatches()) << tag;
      EXPECT_EQ(m.blocks_executed(), ref.blocks_executed()) << tag;
      EXPECT_EQ(m.cpu().instructions_retired(),
                ref.cpu().instructions_retired())
          << tag;
      EXPECT_EQ(m.cycles(), ref.cycles()) << tag;
    }
  }
}

// ------------------------------------------------- fleet-wide sharing

TEST(Superblock, FleetSharesOneDecodedTablePerBuild) {
  Fleet fleet;
  auto build = fleet.build(kIndirectToMidBlock, "shared", {.eilid = false});
  ASSERT_NE(build->decoded_image, nullptr);

  std::vector<DeviceSession*> devices;
  for (int i = 0; i < 4; ++i) {
    // Default SessionOptions: the superblock engine.
    devices.push_back(
        &fleet.deploy("share-" + std::to_string(i), build,
                      EnforcementPolicy::kNone, {}));
  }
  for (DeviceSession* dev : devices) {
    // One immutable table per build -- every session points at it.
    EXPECT_EQ(dev->machine().cpu().decoded_image(), build->decoded_image.get());
    EXPECT_EQ(dev->build().decoded_image.get(), build->decoded_image.get());
  }
  // Interpretive reference plus every shared-table device agree on the
  // complete final state, and each shared device genuinely dispatched
  // blocks from the shared table.
  DeviceSession& reference =
      fleet.deploy("share-ref", build, EnforcementPolicy::kNone,
                   {.engine = ExecutionEngine::kInterpretive});
  reference.run_to_symbol("halt", 10000);
  const FinalState expected = capture(reference.machine());
  for (DeviceSession* dev : devices) {
    dev->run_to_symbol("halt", 10000);
    EXPECT_GT(dev->machine().blocks_executed(), 0u) << dev->id();
    EXPECT_EQ(capture(dev->machine()), expected) << dev->id();
  }
}

}  // namespace
}  // namespace eilid
