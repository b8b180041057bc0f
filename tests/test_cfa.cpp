// CFA baseline tests: CFG extraction, log integrity (MAC), stateful
// replay verification, overflow accounting and reset-marker handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "apps/apps.h"
#include "attacks/attack.h"
#include "cfa/attestation.h"
#include "cfa/cfg.h"
#include "crypto/sha256.h"
#include "eilid/pipeline.h"
#include "fuzz/program_generator.h"
#include "isa/decoder.h"
#include "isa/registers.h"
#include "sim/memory_map.h"
#include "standalone_session.h"

namespace eilid::cfa {
namespace {

crypto::Digest key() {
  crypto::Digest k{};
  k.fill(0x33);
  return k;
}

core::BuildResult plain_build(const apps::AppSpec& app) {
  return core::build_app(app.source, app.name, {.eilid = false});
}

size_t count_sites(const Cfg& cfg, SiteKind kind) {
  return static_cast<size_t>(
      std::count_if(cfg.sites().begin(), cfg.sites().end(),
                    [kind](const Site& s) { return s.kind == kind; }));
}

TEST(Cfg, ExtractsSitesFromVulnGateway) {
  auto build = plain_build(apps::vuln_gateway());
  Cfg cfg = extract_cfg(build.app);
  EXPECT_GT(cfg.sites().size(), 20u);
  EXPECT_GE(count_sites(cfg, SiteKind::kCall) +
                count_sites(cfg, SiteKind::kIndirectCall),
            4u);  // recv_packet, read_byte x2, act...
  EXPECT_GE(count_sites(cfg, SiteKind::kRet), 4u);
  EXPECT_GE(count_sites(cfg, SiteKind::kJump), 3u);
  EXPECT_EQ(cfg.reset_entry(), build.app.symbols.at("main"));
  // Indirect-call site exists (call r13 in act).
  EXPECT_GE(count_sites(cfg, SiteKind::kIndirectCall), 1u);
  // .func blink is a legal target.
  EXPECT_TRUE(cfg.is_call_target(build.app.symbols.at("blink")));
}

TEST(Cfa, LegalRunVerifiesAcrossReports) {
  const auto& app = apps::app_by_name("temp_sensor");
  auto build = plain_build(app);
  DeviceSession device = standalone_session(build);
  CfaMonitor monitor(key(), {.log_capacity = 1u << 16});
  device.machine().add_monitor(&monitor);
  app.setup(device.machine());
  CfaVerifier verifier(extract_cfg(build.app), key());

  uint64_t nonce = 100;
  for (int slice = 0; slice < 6; ++slice) {
    device.machine().run(5000);
    Report report = monitor.take_report(nonce, device.machine().cycles());
    auto result = verifier.verify(report, nonce);
    ++nonce;
    EXPECT_TRUE(result.mac_ok);
    EXPECT_TRUE(result.path_ok) << "false positive in slice " << slice;
  }
}

TEST(Cfa, LegalIsrRunVerifies) {
  const auto& app = apps::app_by_name("light_sensor");
  auto build = plain_build(app);
  DeviceSession device = standalone_session(build);
  CfaMonitor monitor(key(), {.log_capacity = 1u << 16});
  device.machine().add_monitor(&monitor);
  app.setup(device.machine());
  device.run_to_symbol("halt", 8 * app.cycle_budget);

  Report report = monitor.take_report(5, device.machine().cycles());
  bool saw_irq = false;
  for (const auto& e : report.edges) saw_irq = saw_irq || e.irq;
  EXPECT_TRUE(saw_irq) << "timer ISR edges must be logged";
  CfaVerifier verifier(extract_cfg(build.app), key());
  auto result = verifier.verify(report, 5);
  EXPECT_TRUE(result.mac_ok);
  EXPECT_TRUE(result.path_ok);
}

TEST(Cfa, HijackDetectedInReplay) {
  const auto& app = apps::vuln_gateway();
  auto build = plain_build(app);
  DeviceSession device = standalone_session(build);
  CfaMonitor monitor(key(), {.log_capacity = 1u << 16});
  device.machine().add_monitor(&monitor);
  uint16_t unlock = device.symbol("unlock");
  device.machine().uart().feed(attacks::overflow_ret_payload(unlock));
  device.run_to_symbol("halt", 200000);

  Report report = monitor.take_report(6, device.machine().cycles());
  CfaVerifier verifier(extract_cfg(build.app), key());
  auto result = verifier.verify(report, 6);
  EXPECT_TRUE(result.mac_ok);
  EXPECT_FALSE(result.path_ok);
  ASSERT_TRUE(result.first_bad.has_value());
  EXPECT_EQ(result.first_bad->to, unlock);
}

TEST(Cfa, TamperedReportFailsMac) {
  const auto& app = apps::app_by_name("temp_sensor");
  auto build = plain_build(app);
  DeviceSession device = standalone_session(build);
  CfaMonitor monitor(key(), {});
  device.machine().add_monitor(&monitor);
  app.setup(device.machine());
  device.machine().run(3000);
  Report report = monitor.take_report(7, device.machine().cycles());
  ASSERT_FALSE(report.edges.empty());
  report.edges[0].to ^= 4;  // a compromised prover rewrites history
  CfaVerifier verifier(extract_cfg(build.app), key());
  auto result = verifier.verify(report, 7);
  EXPECT_FALSE(result.mac_ok);
}

TEST(Cfa, WrongNonceFailsMac) {
  const auto& app = apps::app_by_name("temp_sensor");
  auto build = plain_build(app);
  DeviceSession device = standalone_session(build);
  CfaMonitor monitor(key(), {});
  device.machine().add_monitor(&monitor);
  device.machine().run(2000);
  Report report = monitor.take_report(8, device.machine().cycles());
  CfaVerifier verifier(extract_cfg(build.app), key());
  EXPECT_FALSE(verifier.verify(report, 9).mac_ok);  // replayed old report
}

TEST(Cfa, OverflowDropsAreCounted) {
  const auto& app = apps::app_by_name("charlieplexing");
  auto build = plain_build(app);
  DeviceSession device = standalone_session(build);
  CfaMonitor monitor(key(), {.log_capacity = 16});
  device.machine().add_monitor(&monitor);
  device.run_to_symbol("halt", 8 * app.cycle_budget);
  Report report = monitor.take_report(9, device.machine().cycles());
  EXPECT_EQ(report.edges.size(), 16u);
  EXPECT_GT(report.dropped, 0u);
}

TEST(Cfa, ResetMarkerResynchronisesReplay) {
  // Trigger an enforcement reset mid-run; the log must contain a reset
  // marker and the verifier must resync (no false positive afterwards).
  const auto& app = apps::vuln_gateway();
  auto build = plain_build(app);
  DeviceSession device = standalone_session(build);  // reboots after reset
  CfaMonitor monitor(key(), {.log_capacity = 1u << 16});
  device.machine().add_monitor(&monitor);
  // Exploit redirecting into RAM: CASU W^X resets the device.
  device.machine().uart().feed(attacks::overflow_ret_payload(0x0300));
  device.run_to_symbol("halt", 400000);
  EXPECT_GE(device.machine().violation_count(), 1u);

  Report report = monitor.take_report(10, device.machine().cycles());
  bool saw_reset = false;
  for (const auto& e : report.edges) saw_reset = saw_reset || e.reset;
  EXPECT_TRUE(saw_reset);
  CfaVerifier verifier(extract_cfg(build.app), key());
  auto result = verifier.verify(report, 10);
  EXPECT_TRUE(result.mac_ok);
  // The pre-reset hijack edge (ret into RAM) must be flagged.
  EXPECT_FALSE(result.path_ok);
  ASSERT_TRUE(result.first_bad.has_value());
  EXPECT_EQ(result.first_bad->to, 0x0300);
}

// ------------------------------------------------ bounded replay state

// Two self-recursive call sites: `rec: call #rec` at 0xE010 and a
// second `call #rec` at 0xE020, so the overflowing edge is tellable
// from the ones before it. 0xE100 is an ISR entry.
constexpr LoggedEdge kRecurse{0xE010, 0xE010};
constexpr LoggedEdge kLastCall{0xE020, 0xE010};
constexpr LoggedEdge kIrq{0xE010, 0xE100, true};

Cfg recursion_cfg() {
  return Cfg({{0xE010, SiteKind::kCall, 0xE010, 0xE014},
              {0xE020, SiteKind::kCall, 0xE010, 0xE024}},
             {}, {0xE100});
}

Report signed_report(std::vector<LoggedEdge> edges, uint64_t nonce,
                     uint32_t seq = 0) {
  Report r;
  r.seq = seq;
  r.edges = std::move(edges);
  r.mac = CfaMonitor::mac_report(crypto::HmacKey(key()), nonce, r);
  return r;
}

// `calls` recursive calls, then `last`.
std::vector<LoggedEdge> nest(size_t calls, LoggedEdge last) {
  std::vector<LoggedEdge> edges(calls, kRecurse);
  edges.push_back(last);
  return edges;
}

constexpr size_t kBound = CfaVerifier::kMaxStackWords;
static_assert(kBound == 32768);

TEST(CfaReplayBound, NestingThatFillsTheAddressSpaceVerifies) {
  // Just below the bound, then exactly at it: both plausible.
  for (size_t depth : {kBound - 1, kBound}) {
    CfaVerifier verifier(recursion_cfg(), key());
    auto result =
        verifier.verify(signed_report(nest(depth - 1, kLastCall), 7), 7);
    EXPECT_TRUE(result.mac_ok) << depth;
    EXPECT_TRUE(result.path_ok) << depth;
  }
  // An interrupt frame takes two words: 32766 calls + 1 frame fit.
  CfaVerifier verifier(recursion_cfg(), key());
  auto result = verifier.verify(signed_report(nest(kBound - 2, kIrq), 7), 7);
  EXPECT_TRUE(result.path_ok);
}

TEST(CfaReplayBound, NestingPastTheAddressSpaceFailsAtTheOverflowingEdge) {
  {
    CfaVerifier verifier(recursion_cfg(), key());
    auto result = verifier.verify(signed_report(nest(kBound, kLastCall), 7), 7);
    EXPECT_TRUE(result.mac_ok);
    EXPECT_FALSE(result.path_ok);
    ASSERT_TRUE(result.first_bad.has_value());
    EXPECT_EQ(*result.first_bad, kLastCall);
  }
  {
    // The frame's second word is the one that does not fit.
    CfaVerifier verifier(recursion_cfg(), key());
    auto result = verifier.verify(signed_report(nest(kBound - 1, kIrq), 7), 7);
    EXPECT_FALSE(result.path_ok);
    ASSERT_TRUE(result.first_bad.has_value());
    EXPECT_EQ(*result.first_bad, kIrq);
  }
  {
    // Replay state persists across reports, and so does the bound: a
    // full stack from one report overflows on the next report's call.
    CfaVerifier verifier(recursion_cfg(), key());
    auto first =
        verifier.verify(signed_report(nest(kBound - 1, kRecurse), 7), 7);
    EXPECT_TRUE(first.path_ok);
    auto second = verifier.verify(signed_report({kLastCall}, 8, 1), 8);
    EXPECT_TRUE(second.mac_ok);
    EXPECT_FALSE(second.path_ok);
    ASSERT_TRUE(second.first_bad.has_value());
    EXPECT_EQ(*second.first_bad, kLastCall);
  }
}

// ------------------------------------------------ verdict hash cost

// One verdict is two MACs over the same message -- the device's in
// take_report and the verifier's in verify -- each under an absorbed
// key (HmacKey midstates). A MAC over the 24-byte header and E 5-byte
// edge records costs ceil((24 + 5E + 9) / 64) inner blocks (the 9 is
// the 0x80 pad byte and the 64-bit length) plus one outer block.
TEST(CfaVerdictCost, CompressionsPerVerdictArePinned) {
  struct Case {
    uint32_t edges;
    uint64_t compressions;
  };
  // 0 and 7 edges: 33 and 68 bytes of inner tail; 1000 edges: 79 blocks.
  for (const Case c : {Case{0, 4}, Case{7, 6}, Case{1000, 160}}) {
    CfaMonitor monitor(key(), {.log_capacity = 4096});
    CfaVerifier verifier(recursion_cfg(), key());
    monitor.on_repeated_transfer(0xE010, 0xE010, 0xE014, c.edges);
    const uint64_t before = crypto::sha256_compressions();
    const Report report = monitor.take_report(9, 0);
    const auto result = verifier.verify(report, 9);
    EXPECT_EQ(crypto::sha256_compressions() - before, c.compressions)
        << c.edges << " edges";
    EXPECT_TRUE(result.mac_ok);
    EXPECT_EQ(report.edges.size(), c.edges);
  }
}

// ------------------------------------------------ flat replay table

// The std::set-based CFG the flat site table replaced, rebuilt here
// from the assembled listing by the same decode rules: the reference
// every lookup of the table is held to.
struct RefCall {
  bool indirect = false;
  uint16_t target = 0;
  uint16_t return_addr = 0;
};

struct RefCfg {
  std::set<uint16_t> code_addrs;
  std::set<uint32_t> jump_edges;  // (from << 16) | to
  std::map<uint16_t, RefCall> call_sites;
  std::set<uint16_t> ret_addrs;
  std::set<uint16_t> reti_addrs;
  std::set<uint16_t> call_targets;
  std::set<uint16_t> isr_entries;
  uint16_t reset_entry = 0;

  bool has_jump_edge(uint16_t from, uint16_t to) const {
    return jump_edges.count((uint32_t{from} << 16) | to) != 0;
  }
};

RefCfg reference_cfg(const masm::AssembledUnit& unit) {
  RefCfg cfg;
  for (const auto& line : unit.listing.lines) {
    if (!line.is_instruction || line.bytes.size() < 2) continue;
    std::array<uint16_t, 3> words{};
    for (size_t w = 0; w < 3 && 2 * w + 1 < line.bytes.size(); ++w) {
      words[w] = static_cast<uint16_t>(line.bytes[2 * w] |
                                       (line.bytes[2 * w + 1] << 8));
    }
    const auto decoded = isa::decode(words, line.address);
    if (!decoded) continue;
    cfg.code_addrs.insert(line.address);
    const auto& insn = decoded->insn;
    const bool mov_to_pc = insn.op == isa::Opcode::kMov &&
                           insn.dst.mode == isa::AddrMode::kRegister &&
                           insn.dst.reg == isa::kPC;
    const uint32_t from = uint32_t{line.address} << 16;
    if (isa::opcode_info(insn.op).format == isa::Format::kJump) {
      cfg.jump_edges.insert(from | decoded->jump_target());
    } else if (insn.op == isa::Opcode::kCall) {
      RefCall site;
      site.return_addr = decoded->next_address();
      if (insn.src.mode == isa::AddrMode::kImmediate) {
        site.target = static_cast<uint16_t>(insn.src.value);
        cfg.call_targets.insert(site.target);
      } else {
        site.indirect = true;
      }
      cfg.call_sites.emplace(line.address, site);
    } else if (mov_to_pc && insn.src.mode == isa::AddrMode::kIndirectInc &&
               insn.src.reg == isa::kSP) {
      cfg.ret_addrs.insert(line.address);
    } else if (insn.op == isa::Opcode::kReti) {
      cfg.reti_addrs.insert(line.address);
    } else if (mov_to_pc && insn.src.mode == isa::AddrMode::kImmediate) {
      cfg.jump_edges.insert(from | static_cast<uint16_t>(insn.src.value));
    }
  }
  for (const auto& f : unit.func_symbols) {
    const auto it = unit.symbols.find(f);
    if (it != unit.symbols.end()) cfg.call_targets.insert(it->second);
  }
  for (const auto& [slot, handler] : unit.vectors) {
    const auto it = unit.symbols.find(handler);
    if (it == unit.symbols.end()) continue;
    if (slot == sim::kResetVectorIndex) {
      cfg.reset_entry = it->second;
    } else {
      cfg.isr_entries.insert(it->second);
    }
  }
  return cfg;
}

// What the set-based replay decided for a synchronous edge: whether it
// is a legal jump; for a call site, whether the target is legal and
// the return address pushed; whether it pops the call or irq stack.
struct EdgeAnswer {
  bool jump = false;
  bool call_site = false;
  bool call_ok = false;
  uint16_t return_addr = 0;
  bool ret = false;
  bool reti = false;

  bool operator==(const EdgeAnswer&) const = default;
};

EdgeAnswer reference_answer(const RefCfg& cfg, uint16_t from, uint16_t to) {
  EdgeAnswer a;
  a.jump = cfg.has_jump_edge(from, to);
  const auto call = cfg.call_sites.find(from);
  if (call != cfg.call_sites.end()) {
    a.call_site = true;
    a.call_ok = call->second.indirect ? cfg.call_targets.count(to) != 0
                                      : call->second.target == to;
    a.return_addr = call->second.return_addr;
  }
  a.ret = cfg.ret_addrs.count(from) != 0;
  a.reti = cfg.reti_addrs.count(from) != 0;
  return a;
}

EdgeAnswer flat_answer(const Cfg& cfg, uint16_t from, uint16_t to) {
  EdgeAnswer a;
  a.jump = cfg.has_jump_edge(from, to);
  const Site* site = cfg.site(from);
  if (site == nullptr) return a;
  if (site->kind == SiteKind::kCall || site->kind == SiteKind::kIndirectCall) {
    a.call_site = true;
    a.call_ok = site->kind == SiteKind::kCall ? site->target == to
                                              : cfg.is_call_target(to);
    a.return_addr = site->return_addr;
  }
  a.ret = site->kind == SiteKind::kRet;
  a.reti = site->kind == SiteKind::kReti;
  return a;
}

void expect_table_matches_reference(const masm::AssembledUnit& unit,
                                    const std::string& what) {
  SCOPED_TRACE(what);
  const Cfg flat = extract_cfg(unit);
  const RefCfg ref = reference_cfg(unit);

  ASSERT_EQ(flat.sites().size(), ref.code_addrs.size());
  EXPECT_TRUE(std::ranges::equal(flat.call_targets(), ref.call_targets));
  EXPECT_TRUE(std::ranges::equal(flat.isr_entries(), ref.isr_entries));
  EXPECT_EQ(flat.reset_entry(), ref.reset_entry);

  // Every address: a site exactly where an instruction starts, with
  // the kind and target the sets imply.
  for (uint32_t a = 0; a <= 0xFFFF; ++a) {
    const uint16_t pc = static_cast<uint16_t>(a);
    const Site* site = flat.site(pc);
    if (ref.code_addrs.count(pc) == 0) {
      ASSERT_EQ(site, nullptr) << "no instruction at " << a;
      continue;
    }
    ASSERT_NE(site, nullptr) << "instruction at " << a;
    ASSERT_EQ(site->pc, pc);
    SiteKind kind = SiteKind::kOther;
    uint16_t target = 0;
    const auto jump = ref.jump_edges.lower_bound(uint32_t{pc} << 16);
    const auto call = ref.call_sites.find(pc);
    if (jump != ref.jump_edges.end() && (*jump >> 16) == pc) {
      kind = SiteKind::kJump;
      target = static_cast<uint16_t>(*jump);
    } else if (call != ref.call_sites.end()) {
      kind = call->second.indirect ? SiteKind::kIndirectCall : SiteKind::kCall;
      target = call->second.target;
    } else if (ref.ret_addrs.count(pc) != 0) {
      kind = SiteKind::kRet;
    } else if (ref.reti_addrs.count(pc) != 0) {
      kind = SiteKind::kReti;
    }
    EXPECT_EQ(site->kind, kind) << "kind at " << a;
    EXPECT_EQ(site->target, target) << "target at " << a;
  }

  // Every (from, to) replay query over the unit's addresses -- its
  // instruction starts, declared targets and ISR entries, plus one
  // address off the code -- answers as the set lookups did.
  std::set<uint16_t> addrs = ref.code_addrs;
  addrs.insert(ref.call_targets.begin(), ref.call_targets.end());
  addrs.insert(ref.isr_entries.begin(), ref.isr_entries.end());
  addrs.insert(0x0300);
  for (uint16_t from : addrs) {
    for (uint16_t to : addrs) {
      ASSERT_EQ(flat_answer(flat, from, to), reference_answer(ref, from, to))
          << std::hex << "edge 0x" << from << " -> 0x" << to;
    }
  }
  for (uint16_t to : addrs) {
    EXPECT_EQ(flat.is_isr_entry(to), ref.isr_entries.count(to) != 0) << to;
  }
}

TEST(CfgTable, MatchesSetReferenceOnTable4Apps) {
  for (const apps::AppSpec& app : apps::table4_apps()) {
    for (bool eilid : {false, true}) {
      core::BuildOptions options;
      options.eilid = eilid;
      const auto build = core::build_app(app.source, app.name, options);
      expect_table_matches_reference(
          build.app, app.name + (eilid ? " (instrumented)" : " (plain)"));
    }
  }
}

// Every site kind in one unit, including the `br #imm` jump that no
// Table IV app or generated program emits.
TEST(CfgTable, MatchesSetReferenceOnEverySiteKind) {
  const char* source = R"(
.org 0xE000
main:
    mov #0x0400, sp
    br #skip
    nop
skip:
    call #leaf
    mov #leaf, r13
    call r13
    jmp done
leaf:
    ret
isr:
    reti
done:
    jmp done
.func leaf
.vector 15, main
.vector 8, isr
.end
)";
  core::BuildOptions plain;
  plain.eilid = false;
  const auto build = core::build_app(source, "every_site_kind", plain);
  expect_table_matches_reference(build.app, "every site kind");
  const Cfg cfg = extract_cfg(build.app);
  for (SiteKind kind : {SiteKind::kOther, SiteKind::kJump, SiteKind::kCall,
                        SiteKind::kIndirectCall, SiteKind::kRet,
                        SiteKind::kReti}) {
    EXPECT_GE(count_sites(cfg, kind), 1u) << static_cast<int>(kind);
  }
  const uint16_t br = static_cast<uint16_t>(build.app.symbols.at("main") + 4);
  EXPECT_TRUE(cfg.has_jump_edge(br, build.app.symbols.at("skip")));
}

TEST(CfgTable, MatchesSetReferenceOnGeneratedPrograms) {
  const fuzz::ProgramGenerator generator;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const fuzz::ProgramSpec spec = generator.generate(seed);
    for (bool eilid : {false, true}) {
      core::BuildOptions options;
      options.eilid = eilid;
      const auto build = core::build_app(spec.render(), spec.name(), options);
      expect_table_matches_reference(
          build.app, "seed " + std::to_string(seed) +
                         (eilid ? " (instrumented)" : " (plain)"));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace eilid::cfa
