// CFA baseline tests: CFG extraction, log integrity (MAC), stateful
// replay verification, overflow accounting and reset-marker handling.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "attacks/attack.h"
#include "cfa/attestation.h"
#include "cfa/cfg.h"
#include "eilid/pipeline.h"
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

TEST(Cfg, ExtractsSitesFromVulnGateway) {
  auto build = plain_build(apps::vuln_gateway());
  Cfg cfg = extract_cfg(build.app);
  EXPECT_GT(cfg.code_addrs.size(), 20u);
  EXPECT_GE(cfg.call_sites.size(), 4u);  // recv_packet, read_byte x2, act...
  EXPECT_GE(cfg.ret_addrs.size(), 4u);
  EXPECT_GE(cfg.jump_edges.size(), 3u);
  EXPECT_EQ(cfg.reset_entry, build.app.symbols.at("main"));
  // Indirect-call site exists (call r13 in act).
  bool has_indirect = false;
  for (const auto& [addr, site] : cfg.call_sites) {
    has_indirect = has_indirect || site.indirect;
  }
  EXPECT_TRUE(has_indirect);
  // .func blink is a legal target.
  EXPECT_TRUE(cfg.call_targets.count(build.app.symbols.at("blink")));
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
  Cfg cfg;
  cfg.call_sites[0xE010] = {false, 0xE010, 0xE014};
  cfg.call_sites[0xE020] = {false, 0xE010, 0xE024};
  cfg.isr_entries.insert(0xE100);
  return cfg;
}

Report signed_report(std::vector<LoggedEdge> edges, uint64_t nonce,
                     uint32_t seq = 0) {
  Report r;
  r.seq = seq;
  r.edges = std::move(edges);
  r.mac = CfaMonitor::mac_report(key(), nonce, r);
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

}  // namespace
}  // namespace eilid::cfa
