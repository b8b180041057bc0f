// Every divergence the scenario fuzzer has found, pinned as a
// regression test next to the root cause. Convention: each test names
// the seed that first exposed the bug (reproducible via
//   bench_fuzz_soak --seed <seed> --programs 1 --mutations 1
// at the commit before the fix), states the root cause in one line,
// and asserts the minimal behavior that the fix guarantees.
#include <gtest/gtest.h>

#include "cfa/attestation.h"
#include "cfa/cfg.h"
#include "crypto/sha256.h"
#include "eilid/fleet.h"
#include "eilid/session.h"
#include "fuzz/attack_mutator.h"
#include "fuzz/harness.h"
#include "sim/machine.h"

namespace eilid::fuzz {
namespace {

crypto::Digest test_key() {
  crypto::Digest key{};
  key.fill(0x6B);
  return key;
}

constexpr uint64_t kNonce = 0xF00DF00DF00DF00Dull;

// A monitor with a tiny exercised path and matching CFG, so the benign
// report verifies clean end to end (mac_ok && path_ok) and any
// rejection in the tests below is attributable to the tamper alone.
struct Fixture {
  cfa::CfaMonitor monitor{test_key()};
  cfa::Cfg cfg{{{0xE010, cfa::SiteKind::kJump, 0xE020}}};

  Fixture() { monitor.on_control_transfer(0xE010, 0xE020, 0xE012); }
};

// Found by the fuzzer at seed 0x1 (every seed reproduced it):
// "report tamper 'cycle-bump' accepted by the verifier". Root cause:
// CfaMonitor::mac_report authenticated only nonce|seq|edges, leaving
// Report.cycle outside the MAC, so a man-in-the-middle could backdate
// or postdate when the evidence was emitted without detection. Fixed
// by widening the MAC'd header to nonce|seq|cycle|dropped.
TEST(FuzzRegressions, ReportCycleFieldIsAuthenticated) {
  Fixture fx;
  const cfa::Report benign = fx.monitor.take_report(kNonce, /*cycle=*/12345);

  cfa::CfaVerifier clean_verifier(fx.cfg, test_key());
  const auto clean = clean_verifier.verify(benign, kNonce);
  ASSERT_TRUE(clean.mac_ok);
  ASSERT_TRUE(clean.path_ok);

  AttackMutator mutator(1);
  const auto tampered = mutator.tamper_report(benign, ReportTamper::kCycleBump);
  ASSERT_TRUE(tampered.has_value());
  ASSERT_NE(tampered->cycle, benign.cycle);
  cfa::CfaVerifier verifier(fx.cfg, test_key());
  EXPECT_FALSE(verifier.verify(*tampered, kNonce).mac_ok);
}

// Found by the fuzzer at seed 0x1 (same run, same root cause as the
// cycle bump): "report tamper 'dropped-bump' accepted by the
// verifier". An attacker who zeroes (or inflates) Report.dropped can
// hide that the on-device log overflowed -- i.e. that evidence was
// lost -- which is exactly the signal the verifier uses to size the
// next attestation window.
TEST(FuzzRegressions, ReportDroppedFieldIsAuthenticated) {
  Fixture fx;
  const cfa::Report benign = fx.monitor.take_report(kNonce, 12345);

  AttackMutator mutator(2);
  const auto tampered =
      mutator.tamper_report(benign, ReportTamper::kDroppedBump);
  ASSERT_TRUE(tampered.has_value());
  ASSERT_NE(tampered->dropped, benign.dropped);
  cfa::CfaVerifier verifier(fx.cfg, test_key());
  EXPECT_FALSE(verifier.verify(*tampered, kNonce).mac_ok);
}

// The fix in one assertion: the MAC is a function of every header
// field the verifier consumes, so no field can change independently.
TEST(FuzzRegressions, MacCoversEveryHeaderField) {
  Fixture fx;
  const cfa::Report benign = fx.monitor.take_report(kNonce, 12345);

  cfa::Report r = benign;
  r.seq += 1;
  EXPECT_NE(cfa::CfaMonitor::mac_report(crypto::HmacKey(test_key()), kNonce, r), benign.mac);
  r = benign;
  r.cycle += 1;
  EXPECT_NE(cfa::CfaMonitor::mac_report(crypto::HmacKey(test_key()), kNonce, r), benign.mac);
  r = benign;
  r.dropped += 1;
  EXPECT_NE(cfa::CfaMonitor::mac_report(crypto::HmacKey(test_key()), kNonce, r), benign.mac);
  EXPECT_NE(cfa::CfaMonitor::mac_report(crypto::HmacKey(test_key()), kNonce + 1, benign),
            benign.mac);
  EXPECT_EQ(cfa::CfaMonitor::mac_report(crypto::HmacKey(test_key()), kNonce, benign),
            benign.mac);
}

// Belt and braces over the whole tamper family: every kind the mutator
// can produce against this report must fail authentication.
TEST(FuzzRegressions, EveryApplicableReportTamperFailsTheMac) {
  Fixture fx;
  const cfa::Report benign = fx.monitor.take_report(kNonce, 12345);

  AttackMutator mutator(3);
  for (ReportTamper kind : kAllReportTampers) {
    const auto tampered = mutator.tamper_report(benign, kind);
    if (!tampered.has_value()) continue;  // needs edges this report lacks
    cfa::CfaVerifier verifier(fx.cfg, test_key());
    EXPECT_FALSE(verifier.verify(*tampered, kNonce).mac_ok)
        << report_tamper_name(kind);
  }
}

// Found by the fuzzer at seed 0x17b: "eilid-hw/interpretive: did not
// reach halt" — a *benign* instrumented program was convicted with
// kShadowStackOverflow at the first timer interrupt and reset-looped
// past any budget. Root cause: the reserved-register spill emitted
// `push r5 / <insn> / pop r5`, leaving a one-instruction window where
// r5 (the register-backed shadow-stack index) held the application's
// value; an IRQ landing there made the instrumented ISR prologue's
// store_rfi index the shadow stack with garbage. Fixed in the
// instrumenter by re-targeting the write at a scratch register seeded
// from r5 (`push rS / mov r5, rS / <insn with r5 -> rS> / pop rS`),
// so r5 is valid at every instruction boundary. This test hammers the
// window directly: a tight loop of r5 writes under a fast timer lands
// interrupts at every phase of the rewrite.
TEST(FuzzRegressions, IrqDuringReservedR5WriteDoesNotConvictBenignCode) {
  const std::string src = R"(.equ TIMER_CTL, 0x0100
.equ TIMER_CCR0, 0x0102
.equ TIMER_FLAGS, 0x0106
.org 0xE000
main:
    mov #0x1000, r1
    mov #251, &TIMER_CCR0
    mov #3, &TIMER_CTL
    eint
    mov #2000, r15
loop:
    mov #1234, r5
    xor #7, r5
    swpb r5
    dec r15
    jnz loop
    dint
    clr &TIMER_CTL
halt:
    jmp halt
timer_isr:
    clr &TIMER_FLAGS
    reti
.vector 15, main
.vector 8, timer_isr
.end
)";
  Fleet fleet;
  const auto build = fleet.build(src, "fuzz-regress-r5-irq", {});
  DeviceSession dev("r5-irq", build, EnforcementPolicy::kEilidHw, {});
  const sim::RunResult rr = dev.run_to_symbol("halt", 2'000'000);
  EXPECT_EQ(rr.cause, sim::StopCause::kBreakpoint);
  EXPECT_EQ(dev.violation_count(), 0u);
}

// The generated program that exposed the spill-window bug, replayed
// end to end through oracle 1 (it rolls r5-writing ops AND a timer
// IRQ): all engines and policies must agree and terminate.
TEST(FuzzRegressions, SpillWindowSeedRunsCleanThroughTheHarness) {
  DifferentialHarness harness;
  HarnessReport report;
  harness.check_program(0x17b, report);
  for (const std::string& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_EQ(report.engine_runs, 12);
}

// Found by the fuzzer at mutation seed 53 (`bench_fuzz_soak --seed 53
// --programs 0 --mutations 1` spun forever at 100% host CPU). Root
// cause: Machine::step_once's low-power branch early-returned whenever
// *any* interrupt line was pending -- but dispatch additionally
// requires GIE and the monitors' consent, so a diverted jump that
// landed on bytes decoding to an SR write with CPUOFF set and GIE
// clear (timer line already pending) advanced zero cycles per
// iteration and no budget could end the run. Fixed by making the wake
// test match the dispatch test exactly; a masked sleep now burns
// simulated idle time until the caller's budget expires, mirroring
// real hardware (which sleeps forever) without hanging the host.
TEST(FuzzRegressions, MaskedSleepWithPendingIrqHonorsTheCycleBudget) {
  // Start the timer, spin past its first expiry so the line is
  // pending, then enter CPUOFF without ever setting GIE.
  const std::string src = R"(.equ TIMER_CTL, 0x0100
.equ TIMER_CCR0, 0x0102
.org 0xE000
main:
    mov #0x1000, r1
    mov #50, &TIMER_CCR0
    mov #3, &TIMER_CTL
    mov #200, r15
wait:
    dec r15
    jnz wait
    bis #0x10, r2
halt:
    jmp halt
timer_isr:
    reti
.vector 15, main
.vector 8, timer_isr
.end
)";
  Fleet fleet;
  const auto build = fleet.build(src, "fuzz-regress-masked-sleep",
                                 {.eilid = false});
  DeviceSession dev("masked-sleep", build, EnforcementPolicy::kCfaBaseline, {});
  const sim::RunResult rr = dev.machine().run(100'000);
  EXPECT_EQ(rr.cause, sim::StopCause::kCycleBudget);
  EXPECT_GE(rr.cycles, 100'000u);
}

// The hang reproduced through the front door: mutation seed 53's full
// battery must terminate (pre-fix it never returned, so any completion
// at all is the regression signal; the oracle checks ride along).
TEST(FuzzRegressions, MaskedSleepSeedRunsTheFullMutationBattery) {
  HarnessOptions options;
  options.seed = 53;
  DifferentialHarness harness(options);
  HarnessReport report;
  harness.check_mutation(options.seed, report);
  for (const std::string& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_GT(report.mutation_cases, 0);
  EXPECT_EQ(report.convicted + report.refused, report.mutation_cases);
}

// The original reproduce handle, end to end: the seed that exposed the
// bug now runs the full mutation battery (diverted jumps, repointed
// tables, tampered reports, flipped packages, corrupted chunks) with
// zero divergences.
TEST(FuzzRegressions, OriginalFailingSeedRunsCleanThroughTheHarness) {
  HarnessOptions options;
  options.seed = 1;
  DifferentialHarness harness(options);
  HarnessReport report;
  harness.check_mutation(options.seed, report);
  for (const std::string& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_GT(report.mutation_cases, 0);
  EXPECT_EQ(report.convicted + report.refused, report.mutation_cases);
}

}  // namespace
}  // namespace eilid::fuzz
