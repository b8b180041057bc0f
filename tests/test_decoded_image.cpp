// Decoded-image layer: table construction, decode-cache coherence
// (a kNone device that rewrites its own code must invalidate the table
// and re-decode from memory with a bit-identical retired-instruction
// trace), fleet-wide sharing of one table per build, the
// off-the-top-of-memory decode fix, and which blocks are marked as
// counted delay loops or peripheral poll loops.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "eilid/fleet.h"
#include "eilid/pipeline.h"
#include "isa/decoded_image.h"
#include "isa/encoder.h"
#include "sim/memory_map.h"
#include "sim/monitor.h"

namespace eilid {
namespace {

// Records every retired-instruction transition, fall-through included.
class TraceMonitor : public sim::Monitor {
 public:
  struct Step {
    uint16_t from, to, fallthrough;
    bool operator==(const Step&) const = default;
  };
  void on_step(uint16_t from_pc, uint16_t to_pc, uint16_t fallthrough) override {
    steps_.push_back({from_pc, to_pc, fallthrough});
  }
  const std::vector<Step>& steps() const { return steps_; }

 private:
  std::vector<Step> steps_;
};

// A program that patches its own kernel: the first `call #kernel` runs
// `inc r12`; the program then copies the word at SRCA (incd r13) over
// the word at DSTA and calls the kernel again. Only correct decode
// coherence yields r12 == 1 && r13 == 2: a stale predecoded entry
// would execute `inc r12` twice.
const char* kSelfPatchingSource = R"(.equ DSTA, 0xE080
.equ SRCA, 0xE084
.org 0xE000
main:
    mov #0x1000, r1
    call #kernel
    mov &SRCA, &DSTA
    call #kernel
halt:
    jmp halt
.org 0xE080
kernel:
    inc r12
    ret
    incd r13
    ret
.vector 15, main
)";

TEST(Decoder, RejectsInstructionRunningOffTopOfMemory) {
  // mov #0x1234, r10 -- a two-word instruction.
  isa::Instruction insn = isa::Instruction::double_op(
      isa::Opcode::kMov, isa::Operand::make_imm(0x1234),
      isa::Operand::make_reg(10));
  auto enc = isa::encode(insn, 0xFFFC);
  ASSERT_EQ(enc.size(), 2u);

  std::array<uint16_t, 3> words = {enc[0], enc[1], 0};
  // Ends exactly at the top of memory: legal.
  EXPECT_TRUE(isa::decode(words, 0xFFFC).has_value());
  // Its extension word would wrap through address 0: illegal.
  EXPECT_FALSE(isa::decode(words, 0xFFFE).has_value());
  // A one-word instruction at the very top stays legal.
  isa::Instruction one_word = isa::Instruction::double_op(
      isa::Opcode::kMov, isa::Operand::make_reg(4), isa::Operand::make_reg(5));
  auto enc1 = isa::encode(one_word, 0xFFFE);
  ASSERT_EQ(enc1.size(), 1u);
  EXPECT_TRUE(isa::decode({enc1[0], 0, 0}, 0xFFFE).has_value());
}

TEST(DecodedImage, EntriesMatchInterpretiveDecode) {
  core::BuildResult build = core::build_app(
      apps::app_by_name("temp_sensor").source, "temp_sensor", {.eilid = false});
  ASSERT_NE(build.decoded_image, nullptr);
  const isa::DecodedImage& image = *build.decoded_image;
  EXPECT_GT(image.decoded_count(), 0u);

  // Every covered entry agrees with a fresh interpretive decode of the
  // flashed bytes.
  std::vector<uint8_t> flat(0x10000, 0);
  for (const auto& chunk : build.app.image.chunks()) {
    std::copy(chunk.data.begin(), chunk.data.end(), flat.begin() + chunk.base);
  }
  size_t checked = 0;
  for (uint32_t pc = sim::kPmemStart; pc <= 0xFFFE; pc += 2) {
    const auto* entry = image.lookup(static_cast<uint16_t>(pc));
    ASSERT_NE(entry, nullptr);
    auto word_at = [&flat](uint32_t a) {
      return static_cast<uint16_t>(flat[a & 0xFFFF] |
                                   (flat[(a + 1) & 0xFFFF] << 8));
    };
    auto ref = isa::decode({word_at(pc), word_at(pc + 2), word_at(pc + 4)},
                           static_cast<uint16_t>(pc));
    if (!ref) {
      EXPECT_EQ(entry->size_words, 0) << "pc " << pc;
      continue;
    }
    ASSERT_NE(entry->size_words, 0) << "pc " << pc;
    EXPECT_EQ(entry->insn, ref->insn);
    EXPECT_EQ(entry->size_words, ref->size_words);
    EXPECT_EQ(entry->next_address, ref->next_address());
    ++checked;
  }
  EXPECT_GT(checked, 50u);

  // PCs outside every predecoded range force interpretive decode.
  EXPECT_EQ(image.lookup(0x0300), nullptr);  // RAM
  EXPECT_EQ(image.lookup(0x2000), nullptr);  // secure DMEM
}

TEST(DecodedImage, ControlTransferClassification) {
  using isa::Instruction;
  using isa::Opcode;
  using isa::Operand;
  EXPECT_TRUE(isa::is_control_transfer(Instruction::jump(Opcode::kJmp, 4)));
  EXPECT_TRUE(isa::is_control_transfer(
      Instruction::single(Opcode::kCall, Operand::make_imm(0xE000))));
  EXPECT_TRUE(isa::is_control_transfer(
      Instruction::single(Opcode::kReti, Operand::make_reg(0))));
  // br #addr == mov #addr, pc
  EXPECT_TRUE(isa::is_control_transfer(Instruction::double_op(
      Opcode::kMov, Operand::make_imm(0xE000), Operand::make_reg(isa::kPC))));
  EXPECT_FALSE(isa::is_control_transfer(Instruction::double_op(
      Opcode::kAdd, Operand::make_reg(4), Operand::make_reg(5))));
  EXPECT_FALSE(isa::is_control_transfer(
      Instruction::single(Opcode::kPush, Operand::make_reg(isa::kPC))));
}

TEST(DecodedImage, ControlTransferFlagCoversEveryObservedTransfer) {
  // Pin Entry.control_transfer to the runtime mechanism: every retired
  // step that left the fall-through path must start at an instruction
  // the table classified as a potential control transfer. (The
  // converse need not hold -- an untaken conditional jump falls
  // through.)
  Fleet fleet;
  const auto& app = apps::app_by_name("temp_sensor");
  auto build = fleet.build(app.source, app.name, {.eilid = false});
  DeviceSession& dev =
      fleet.deploy("ct-flag", build, EnforcementPolicy::kCasu);
  TraceMonitor trace;
  dev.machine().add_monitor(&trace);
  app.setup(dev.machine());
  dev.run_to_symbol("halt", 8 * app.cycle_budget);

  const isa::DecodedImage& image = *build->decoded_image;
  size_t transfers = 0;
  for (const auto& step : trace.steps()) {
    if (step.to == step.fallthrough) continue;
    ++transfers;
    const auto* entry = image.lookup(step.from);
    ASSERT_NE(entry, nullptr) << "pc " << step.from;
    EXPECT_TRUE(entry->control_transfer) << "pc " << step.from;
  }
  EXPECT_GT(transfers, 0u);
}

// ------------------------------------------------ counted-loop marking

// The interpretive statement of LoopKind::kCounted: the bytes at `pc`
// decode to a word-mode `sub #1, rN` with rN in r4-r15, and the next
// instruction, still at or below `last`, is a `jnz` back to `pc`.
bool is_counted_loop(const std::vector<uint8_t>& flat, uint32_t pc,
                     uint32_t last) {
  auto decode_at = [&flat](uint32_t a) {
    auto word_at = [&flat](uint32_t w) {
      return static_cast<uint16_t>(flat[w & 0xFFFF] |
                                   (flat[(w + 1) & 0xFFFF] << 8));
    };
    return isa::decode({word_at(a), word_at(a + 2), word_at(a + 4)},
                       static_cast<uint16_t>(a));
  };
  auto dec = decode_at(pc);
  if (!dec || dec->insn.op != isa::Opcode::kSub || dec->insn.byte_mode ||
      dec->insn.src != isa::Operand::make_imm(1) ||
      dec->insn.dst.mode != isa::AddrMode::kRegister ||
      dec->insn.dst.reg < 4 || dec->next_address() > last) {
    return false;
  }
  auto jnz = decode_at(dec->next_address());
  return jnz && jnz->insn.op == isa::Opcode::kJnz && jnz->jump_target() == pc;
}

TEST(DecodedImage, CountedLoopMarkingMatchesInterpretiveDecode) {
  // ROM-less builds: the table's one range is PMEM up to the top of
  // memory. Four Table IV apps spin in `dec rN; jnz self` delays; the
  // other three poll peripherals in their short loops and have none.
  size_t marked_total = 0;
  for (const apps::AppSpec& app : apps::table4_apps()) {
    core::BuildResult build =
        core::build_app(app.source, app.name, {.eilid = false});
    const std::vector<uint8_t> flat = core::flat_memory(build);
    size_t marked = 0;
    for (uint32_t pc = sim::kPmemStart; pc <= 0xFFFE; pc += 2) {
      const auto* entry = build.decoded_image->lookup(static_cast<uint16_t>(pc));
      ASSERT_NE(entry, nullptr);
      EXPECT_EQ(entry->loop == isa::LoopKind::kCounted,
                is_counted_loop(flat, pc, 0xFFFE))
          << app.name << " pc " << pc;
      if (entry->loop == isa::LoopKind::kCounted) {
        ++marked;
        EXPECT_EQ(entry->span, 2) << app.name << " pc " << pc;
        EXPECT_EQ(entry->target, pc) << app.name << " pc " << pc;
      }
    }
    const bool has_delay_loops =
        app.name == "syringe_pump" || app.name == "charlieplexing" ||
        app.name == "temp_sensor" || app.name == "lcd_sensor";
    EXPECT_EQ(marked > 0, has_delay_loops) << app.name;
    marked_total += marked;
  }
  EXPECT_GT(marked_total, 4u);
}

// The mark on the slot at `loop`, in the ROM-less build of `body`
// (assembled at 0xE000), over the build's own ranges or -- when `last`
// is nonzero -- over the single range [0xE000, last]. X is a RAM word,
// S the ADC status register.
isa::LoopKind loop_kind_in(const std::string& body, uint16_t last = 0) {
  core::BuildResult build = core::build_app(
      ".equ X, 0x0300\n.equ S, 0x0114\n.org 0xE000\nmain:\n"
      "    mov #0x1000, r1\n" + body +
          "halt:\n    jmp halt\nelsewhere:\n    jmp halt\n"
          ".vector 15, main\n",
      "loop-shape", {.eilid = false});
  const uint16_t pc = build.app.symbols.at("loop");
  if (last == 0) return build.decoded_image->lookup(pc)->loop;
  const std::vector<uint8_t> flat = core::flat_memory(build);
  const isa::DecodedImage::Range range{0xE000, last};
  const isa::DecodedImage image(flat, std::span(&range, 1));
  return image.lookup(pc)->loop;
}

bool marked_in(const std::string& body, uint16_t last = 0) {
  return loop_kind_in(body, last) == isa::LoopKind::kCounted;
}

TEST(DecodedImage, OnlyRegisterCounterSelfLoopsAreMarked) {
  EXPECT_TRUE(marked_in("loop:\n    dec r4\n    jnz loop\n"));
  EXPECT_TRUE(marked_in("loop:\n    dec r15\n    jnz loop\n"));
  EXPECT_TRUE(marked_in("loop:\n    sub #1, r9\n    jnz loop\n"));

  // Byte mode, and the four special registers (PC, SP, SR, CG).
  EXPECT_FALSE(marked_in("loop:\n    dec.b r5\n    jnz loop\n"));
  for (int reg = 0; reg < 4; ++reg) {
    const std::string r = "r" + std::to_string(reg);
    EXPECT_FALSE(marked_in("loop:\n    dec " + r + "\n    jnz loop\n")) << r;
  }
  // Another step, a memory counter, another target, another condition.
  EXPECT_FALSE(marked_in("loop:\n    sub #2, r5\n    jnz loop\n"));
  EXPECT_FALSE(marked_in("loop:\n    dec &X\n    jnz loop\n"));
  EXPECT_FALSE(marked_in("loop:\n    dec 2(r5)\n    jnz loop\n"));
  EXPECT_FALSE(marked_in("loop:\n    dec r5\n    jnz elsewhere\n"));
  EXPECT_FALSE(marked_in("loop:\n    dec r5\n    jz loop\n"));
  // Three instructions in the loop.
  EXPECT_FALSE(marked_in("loop:\n    dec r5\n    mov r5, r6\n    jnz loop\n"));
  EXPECT_FALSE(
      marked_in("loop:\n    nop\n    dec r5\n    jnz loop\n"));

  // A range that ends at the `dec`: its `jnz` lies outside the table,
  // so the block is the `dec` alone. The same loop inside the range is
  // marked.
  const std::string self_loop = "loop:\n    dec r5\n    jnz loop\n";
  EXPECT_FALSE(marked_in(self_loop, /*last=*/0xE004));
  EXPECT_TRUE(marked_in(self_loop, /*last=*/0xE006));
}

// ------------------------------------------------- poll-loop marking

// The Table IV apps' busy-waits on a peripheral status register, by
// app: every one is marked kPoll, in the plain and in the instrumented
// build, and no other slot of either build is.
TEST(DecodedImage, OnlyPeripheralTestSelfLoopsAreMarkedPoll) {
  const std::map<std::string, std::vector<std::string>> kPollHeads = {
      {"light_sensor", {"ps_w"}},
      {"ultrasonic_ranger", {"me_w"}},
      {"fire_sensor", {"sa_w1", "sa_w2"}},
      {"syringe_pump", {}},
      {"temp_sensor", {"aw"}},
      {"charlieplexing", {}},
      {"lcd_sensor", {"aw"}},
  };
  size_t heads_total = 0;
  for (const apps::AppSpec& app : apps::table4_apps()) {
    for (bool eilid : {false, true}) {
      const std::string tag = app.name + (eilid ? " instrumented" : " plain");
      core::BuildResult build =
          core::build_app(app.source, app.name, {.eilid = eilid});
      std::set<uint16_t> expected;
      for (const std::string& head : kPollHeads.at(app.name)) {
        expected.insert(build.app.symbols.at(head));
      }
      std::set<uint16_t> marked;
      for (uint32_t pc = 0; pc <= 0xFFFE; pc += 2) {
        const auto* entry = build.decoded_image->lookup(static_cast<uint16_t>(pc));
        if (entry == nullptr || entry->loop != isa::LoopKind::kPoll) continue;
        marked.insert(static_cast<uint16_t>(pc));
        EXPECT_EQ(entry->span, 2) << tag << " pc " << pc;
        EXPECT_EQ(entry->target, pc) << tag << " pc " << pc;
      }
      EXPECT_EQ(marked, expected) << tag;
      heads_total += expected.size();
    }
  }
  EXPECT_EQ(heads_total, 12u);  // six heads, two builds each

  using isa::LoopKind;
  // Word and byte tests of a peripheral register, absolute or symbolic,
  // against an immediate or a register, under every conditional jump.
  for (const char* test :
       {"tst &S", "tst.b &S", "bit #1, &S", "bit.b #1, &S", "cmp #0, &S",
        "cmp #3, &S", "bit #0x8000, &S", "cmp r5, &S", "cmp &S, r5",
        "bit &S, r15", "bit r0, &S", "tst S", "cmp.b S, r6",
        "tst &0x01FE"}) {
    for (const char* jump : {"jz", "jnz", "jc", "jnc", "jn", "jge", "jl"}) {
      const std::string body = std::string("loop:\n    ") + test + "\n    " +
                               jump + " loop\n";
      EXPECT_EQ(loop_kind_in(body), LoopKind::kPoll) << body;
    }
  }
  // Not a peripheral register: RAM, above the peripheral space, indexed
  // or indirect operands (their address could move), or SR, which the
  // test itself rewrites.
  for (const char* test :
       {"tst &X", "tst &0x0200", "tst 0(r5)", "tst 0x114(r4)",
        "cmp @r5, r6", "cmp @r5+, r6", "cmp #0, 0(r5)", "cmp r2, &S",
        "bit &S, r2", "cmp &S, &S"}) {
    const std::string body =
        std::string("loop:\n    ") + test + "\n    jz loop\n";
    EXPECT_EQ(loop_kind_in(body), LoopKind::kNone) << body;
  }
  // Not a read-only test: a load, an ALU op that writes.
  EXPECT_EQ(loop_kind_in("loop:\n    mov &S, r5\n    jz loop\n"),
            LoopKind::kNone);
  EXPECT_EQ(loop_kind_in("loop:\n    and &S, r5\n    jz loop\n"),
            LoopKind::kNone);
  EXPECT_EQ(loop_kind_in("loop:\n    add #0, &S\n    jz loop\n"),
            LoopKind::kNone);
  // An unconditional jump back, a jump elsewhere, a three-instruction
  // loop (from either of its first two slots).
  EXPECT_EQ(loop_kind_in("loop:\n    tst &S\n    jmp loop\n"),
            LoopKind::kNone);
  EXPECT_EQ(loop_kind_in("loop:\n    tst &S\n    jz elsewhere\n"),
            LoopKind::kNone);
  EXPECT_EQ(loop_kind_in("loop:\n    tst &S\n    nop\n    jz loop\n"),
            LoopKind::kNone);
  EXPECT_EQ(loop_kind_in("loop:\n    nop\n    tst &S\n    jz loop\n"),
            LoopKind::kNone);
  // A range that ends at the test: its jump lies outside the table.
  const std::string wait = "loop:\n    tst &S\n    jz loop\n";
  EXPECT_EQ(loop_kind_in(wait, /*last=*/0xE006), LoopKind::kNone);
  EXPECT_EQ(loop_kind_in(wait, /*last=*/0xE008), LoopKind::kPoll);
}

TEST(Fleet, SessionsOfOneBuildShareOneDecodedImage) {
  Fleet fleet;
  const auto& app = apps::app_by_name("temp_sensor");
  auto build = fleet.build(app.source, app.name, {.eilid = false});
  ASSERT_NE(build->decoded_image, nullptr);
  DeviceSession& a =
      fleet.deploy("share-a", build, EnforcementPolicy::kCasu);
  DeviceSession& b =
      fleet.deploy("share-b", build, EnforcementPolicy::kCasu);
  // One immutable table per build, shared by every session running it.
  EXPECT_EQ(a.build().decoded_image.get(), b.build().decoded_image.get());
  EXPECT_EQ(a.machine().cpu().decoded_image(), build->decoded_image.get());
  EXPECT_EQ(b.machine().cpu().decoded_image(), build->decoded_image.get());
}

TEST(DecodedImage, SelfModifyingCodeInvalidatesAndRedecodes) {
  auto build = std::make_shared<const core::BuildResult>(
      core::build_app(kSelfPatchingSource, "selfpatch", {.eilid = false}));

  sim::Monitor pin;  // wants_step(): pins per-instruction dispatch
  auto run_one = [&](ExecutionEngine engine, bool per_step,
                     TraceMonitor& trace) -> DeviceSession* {
    static int n = 0;
    auto* session = new DeviceSession(
        "selfmod-" + std::to_string(n++), build, EnforcementPolicy::kNone,
        {.engine = engine});
    if (per_step) session->machine().add_monitor(&pin);
    session->machine().add_monitor(&trace);
    auto result = session->run_to_symbol("halt", 10000);
    EXPECT_EQ(result.cause, sim::StopCause::kBreakpoint);
    return session;
  };

  // The cached arm is superblock pinned per-step. (The trace monitor
  // wants every step too, so the block arm also steps here.)
  TraceMonitor cached_trace;
  TraceMonitor interp_trace;
  TraceMonitor block_trace;
  std::unique_ptr<DeviceSession> cached(
      run_one(ExecutionEngine::kSuperblock, true, cached_trace));
  std::unique_ptr<DeviceSession> interp(
      run_one(ExecutionEngine::kInterpretive, false, interp_trace));
  std::unique_ptr<DeviceSession> block(
      run_one(ExecutionEngine::kSuperblock, false, block_trace));

  // The patch must have taken effect on all engines: stale decode would
  // leave r13 == 0 (and r12 == 2).
  for (DeviceSession* s : {cached.get(), interp.get(), block.get()}) {
    EXPECT_EQ(s->machine().cpu().reg(12), 1) << s->id();
    EXPECT_EQ(s->machine().cpu().reg(13), 2) << s->id();
  }

  // Bit-identical retired-instruction traces, fall-throughs included.
  ASSERT_FALSE(cached_trace.steps().empty());
  EXPECT_EQ(cached_trace.steps(), interp_trace.steps());
  EXPECT_EQ(cached_trace.steps(), block_trace.steps());

  // The cached run really used the table before the patch and really
  // abandoned it afterwards.
  const sim::Cpu& cached_cpu = cached->machine().cpu();
  EXPECT_GT(cached_cpu.decode_cache_hits(), 0u);
  EXPECT_GT(cached_cpu.decode_cache_misses(), 0u);
  EXPECT_FALSE(cached_cpu.decode_cache_valid());

  const sim::Cpu& interp_cpu = interp->machine().cpu();
  EXPECT_EQ(interp_cpu.decode_cache_hits(), 0u);
}

TEST(DecodedImage, CfaEvidenceIdenticalAcrossDecodePaths) {
  // The transfer-notification monitor must log exactly the edges the
  // re-decoding per-step monitor used to, under every engine -- the
  // superblock run has no tracer attached, so it genuinely exercises
  // block dispatch here.
  const auto& app = apps::app_by_name("charlieplexing");
  sim::Monitor pin;  // wants_step(): pins per-instruction dispatch
  auto run_one = [&](ExecutionEngine engine, bool per_step) {
    Fleet fleet;
    DeviceSession& dev = fleet.deploy(
        "cfa-trace",
        fleet.build(app.source, app.name, {.eilid = false}),
        EnforcementPolicy::kCfaBaseline,
        {.cfa = {.log_capacity = 1u << 17}, .engine = engine});
    if (per_step) dev.machine().add_monitor(&pin);
    app.setup(dev.machine());
    dev.run_to_symbol("halt", 8 * app.cycle_budget);
    if (engine == ExecutionEngine::kSuperblock && !per_step) {
      EXPECT_GT(dev.machine().blocks_executed(), 0u);
    } else {
      EXPECT_EQ(dev.machine().blocks_executed(), 0u);
    }
    return dev.cfa_monitor()->take_report(/*nonce=*/1,
                                          dev.machine().cycles());
  };
  cfa::Report cached = run_one(ExecutionEngine::kSuperblock, true);
  cfa::Report interp = run_one(ExecutionEngine::kInterpretive, false);
  cfa::Report block = run_one(ExecutionEngine::kSuperblock, false);
  ASSERT_FALSE(cached.edges.empty());
  EXPECT_EQ(cached.edges, interp.edges);
  EXPECT_EQ(cached.dropped, interp.dropped);
  EXPECT_EQ(cached.mac, interp.mac);  // same nonce, seq, edges, key
  EXPECT_EQ(block.edges, interp.edges);
  EXPECT_EQ(block.dropped, interp.dropped);
  EXPECT_EQ(block.mac, interp.mac);
}

}  // namespace
}  // namespace eilid
