// The Fleet facade: build-cache identity, N-device provisioning,
// policy-switched enforcement, and VerifierService state isolation
// between sessions that share one cached build.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "apps/apps.h"
#include "attacks/attack.h"
#include "cfa/cfg.h"
#include "common/error.h"
#include "eilid/fleet.h"
#include "eilid/health.h"
#include "sim/monitor.h"

namespace eilid {
namespace {

const char* kTinyApp = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    call #emit
    call #emit
halt:
    jmp halt
emit:
    mov.b #'x', &UART_TX
    ret
.vector 15, main
.end
)";

// ---------------------------------------------------------------- cache

TEST(FleetBuildCache, SameSourceBuildsOnce) {
  Fleet fleet;
  auto a = fleet.build(kTinyApp, "tiny");
  auto b = fleet.build(kTinyApp, "tiny");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(fleet.pipeline_runs(), 1u);
  EXPECT_EQ(fleet.build_cache_hits(), 1u);
  EXPECT_EQ(fleet.build_cache_size(), 1u);
}

TEST(FleetBuildCache, DistinctOptionsBuildSeparately) {
  Fleet fleet;
  auto instrumented = fleet.build(kTinyApp, "tiny");
  auto plain = fleet.build(kTinyApp, "tiny", {.eilid = false});
  EXPECT_NE(instrumented.get(), plain.get());
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
  EXPECT_EQ(fleet.build_cache_hits(), 0u);

  core::BuildOptions label_mode;
  label_mode.instrument.label_mode = true;
  auto labeled = fleet.build(kTinyApp, "tiny", label_mode);
  EXPECT_NE(labeled.get(), instrumented.get());
  EXPECT_EQ(fleet.pipeline_runs(), 3u);
}

TEST(FleetBuildCache, DistinctSourcesBuildSeparately) {
  Fleet fleet;
  auto a = fleet.build(kTinyApp, "tiny");
  std::string other = kTinyApp;
  other.insert(other.find("mov.b #'x'"), "nop\n    ");
  auto b = fleet.build(other, "tiny");
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
}

// ------------------------------------------------------------- registry

TEST(FleetRegistry, ProvisionManyFromOnePipelineRun) {
  Fleet fleet;
  for (int i = 0; i < 8; ++i) {
    DeviceSession& dev =
        fleet.provision("node-" + std::to_string(i), kTinyApp, "tiny",
                        EnforcementPolicy::kEilidHw);
    auto run = dev.run_to_symbol("halt", 100000);
    EXPECT_EQ(run.cause, sim::StopCause::kBreakpoint);
    EXPECT_EQ(dev.violation_count(), 0u);
    EXPECT_EQ(dev.machine().uart().tx_text(), "xx");
  }
  EXPECT_EQ(fleet.size(), 8u);
  EXPECT_EQ(fleet.pipeline_runs(), 1u);
  EXPECT_EQ(fleet.build_cache_hits(), 7u);
  // All sessions share the identical immutable build.
  EXPECT_EQ(fleet.at("node-0").shared_build().get(),
            fleet.at("node-7").shared_build().get());
}

TEST(FleetRegistry, DuplicateIdThrowsTyped) {
  Fleet fleet;
  fleet.provision("dup", kTinyApp, "tiny", EnforcementPolicy::kCasu);
  EXPECT_THROW(
      fleet.provision("dup", kTinyApp, "tiny", EnforcementPolicy::kCasu),
      FleetError);
}

TEST(FleetRegistry, UnknownIdAndDecommission) {
  Fleet fleet;
  EXPECT_EQ(fleet.find("ghost"), nullptr);
  EXPECT_THROW(fleet.at("ghost"), FleetError);
  fleet.provision("gone", kTinyApp, "tiny", EnforcementPolicy::kCfaBaseline);
  EXPECT_EQ(fleet.size(), 1u);
  fleet.decommission("gone");
  EXPECT_EQ(fleet.size(), 0u);
  EXPECT_TRUE(fleet.sessions().empty());
}

TEST(FleetRegistry, EilidPolicyRejectsPlainBuild) {
  Fleet fleet;
  auto plain = fleet.build(kTinyApp, "tiny", {.eilid = false});
  EXPECT_THROW(fleet.deploy("mismatch", plain, EnforcementPolicy::kEilidHw),
               FleetError);
  // FleetError stays catchable through the legacy hierarchy.
  EXPECT_THROW(fleet.deploy("mismatch", plain, EnforcementPolicy::kEilidHw),
               ConfigError);
}

// Regression: deploy is exception-safe. A deploy that fails -- here on
// a kCfaBaseline build with no CFG for the verifier, and on a duplicate
// id -- leaves no registry entry, no verifier books and no count, and
// the device already deployed under that id is untouched.
TEST(FleetRegistry, FailedDeployLeavesNoTrace) {
  Fleet fleet;
  auto build = fleet.build(kTinyApp, "tiny", {.eilid = false});
  core::BuildResult hand;
  hand.app = build->app;
  hand.flat_image = build->flat_image;
  hand.decoded_image = build->decoded_image;
  auto no_cfg = std::make_shared<const core::BuildResult>(std::move(hand));

  EXPECT_THROW(fleet.deploy("clash", no_cfg, EnforcementPolicy::kCfaBaseline),
               FleetError);
  EXPECT_EQ(fleet.find("clash"), nullptr);
  EXPECT_EQ(fleet.size(), 0u);
  EXPECT_TRUE(fleet.sessions().empty());
  EXPECT_TRUE(fleet.verifier().verify_all().empty());

  // The id is still free: a deploy with a CFG succeeds.
  DeviceSession& deployed =
      fleet.deploy("clash", build, EnforcementPolicy::kCfaBaseline);
  deployed.run_to_symbol("halt", 100000);
  const size_t logged = deployed.cfa_monitor()->log_size();
  ASSERT_GT(logged, 0u);

  // A duplicate deploy fails without disturbing the device it collides
  // with: same session, same books, evidence still on the device.
  EXPECT_THROW(fleet.deploy("clash", build, EnforcementPolicy::kCfaBaseline),
               FleetError);
  EXPECT_EQ(fleet.find("clash"), &deployed);
  EXPECT_EQ(fleet.size(), 1u);
  EXPECT_EQ(deployed.cfa_monitor()->log_size(), logged);
  auto sweep = fleet.verifier().verify_all();
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_TRUE(sweep[0].ok());
  EXPECT_EQ(sweep[0].seq, 0u);
  EXPECT_EQ(sweep[0].edges, logged);
}

// The registry is one id-ordered table, yet sessions() still reports
// deployment order, including after a decommission and a later deploy.
TEST(FleetRegistry, SessionsKeepDeploymentOrder) {
  Fleet fleet;
  auto build = fleet.build(kTinyApp, "tiny", {.eilid = false});
  auto ids = [&] {
    std::vector<std::string> out;
    for (DeviceSession* session : fleet.sessions()) {
      out.push_back(session->id());
    }
    return out;
  };
  for (const char* id : {"z", "a", "m"}) {
    fleet.deploy(id, build, EnforcementPolicy::kCfaBaseline);
  }
  EXPECT_EQ(ids(), (std::vector<std::string>{"z", "a", "m"}));
  // The schedulers' view of the same devices is in id order.
  HeartbeatScheduler scheduler(fleet);
  auto watched = [&] {
    scheduler.run_until(fleet.clock().now());
    std::vector<std::string> out;
    for (const FreshnessRecord& record : scheduler.records()) {
      out.push_back(record.device_id);
    }
    return out;
  };
  EXPECT_EQ(watched(), (std::vector<std::string>{"a", "m", "z"}));

  fleet.decommission("a");
  EXPECT_EQ(ids(), (std::vector<std::string>{"z", "m"}));
  fleet.deploy("b", build, EnforcementPolicy::kCasu);
  fleet.deploy("a", build, EnforcementPolicy::kCfaBaseline);
  EXPECT_EQ(ids(), (std::vector<std::string>{"z", "m", "b", "a"}));
  EXPECT_EQ(fleet.size(), 4u);
  // "b" is kCasu: registered, never watched.
  EXPECT_EQ(watched(), (std::vector<std::string>{"a", "m", "z"}));
}

// A decommissioned id that is deployed again is a new device: its
// first verdict starts a fresh sequence window and replays only its own
// evidence -- none of the old device's books or log survive.
TEST(FleetRegistry, RedeployStartsFreshBooks) {
  const auto& app = apps::vuln_gateway();
  SessionOptions big_log{.halt_on_reset = true,
                         .cfa = {.log_capacity = 8192}};
  auto boot = [&](Fleet& fleet) -> DeviceSession& {
    DeviceSession& dev = fleet.provision("dev", app.source, app.name,
                                         EnforcementPolicy::kCfaBaseline,
                                         big_log);
    dev.machine().uart().feed(attacks::benign_payload());
    dev.run_to_symbol("halt", app.cycle_budget);
    return dev;
  };

  Fleet fleet;
  DeviceSession& first = fleet.provision("dev", app.source, app.name,
                                         EnforcementPolicy::kCfaBaseline,
                                         big_log);
  // The first device is hijacked and attested twice: its books advance
  // to expected_seq 2 and its replay state is mid-stream.
  first.machine().uart().feed(
      attacks::overflow_ret_payload(first.symbol("unlock")));
  first.run_to_symbol("halt", app.cycle_budget);
  EXPECT_FALSE(fleet.verifier().attest(first).path_ok);
  EXPECT_EQ(fleet.verifier().attest(first).seq, 1u);
  fleet.decommission("dev");
  EXPECT_EQ(fleet.size(), 0u);

  DeviceSession& again = boot(fleet);
  VerifierService::AttestResult verdict = fleet.verifier().attest(again);

  // Oracle: the same device deployed once into a fresh fleet.
  Fleet control;
  VerifierService::AttestResult want =
      control.verifier().attest(boot(control));
  EXPECT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.seq_ok);
  EXPECT_EQ(verdict.seq, 0u);
  EXPECT_GT(verdict.edges, 0u);
  EXPECT_EQ(verdict, want);
}

// Only the fleet's own registry entry for an id is attested or
// updated. A standalone session, and one aliasing a deployed id with
// the fleet's derived keys, is refused by attest, verify_all, apply_to
// and roll_out before its log is drained or any package is applied,
// and a refused subset sweep or rollout touches none of its members.
TEST(FleetRegistry, ForeignSessionsAreRefused) {
  Fleet fleet;
  auto build = fleet.build(kTinyApp, "tiny", {.eilid = false});
  DeviceSession& deployed =
      fleet.deploy("alias", build, EnforcementPolicy::kCfaBaseline);
  deployed.run_to_symbol("halt", 100000);
  std::string v2 = kTinyApp;
  v2.insert(v2.find("mov.b #'x'"), "nop\n    ");
  UpdateCampaign campaign = fleet.stage_update(v2, "tiny", {.eilid = false});
  const uint32_t deployed_version = deployed.firmware_version();

  SessionOptions options;
  options.attest_key = fleet.device_key("alias");
  options.update_key = fleet.update_key("alias");
  DeviceSession standalone("standalone", build,
                           EnforcementPolicy::kCfaBaseline, options);
  DeviceSession alias("alias", build, EnforcementPolicy::kCfaBaseline,
                      options);
  for (DeviceSession* foreign : {&standalone, &alias}) {
    foreign->run_to_symbol("halt", 100000);
    const size_t logged = foreign->cfa_monitor()->log_size();
    ASSERT_GT(logged, 0u);
    EXPECT_THROW(fleet.verifier().attest(*foreign), FleetError);
    EXPECT_THROW(fleet.verifier().attest(*foreign, 1), FleetError);
    EXPECT_THROW(fleet.verifier().verify_all({foreign}), FleetError);
    EXPECT_THROW(fleet.verifier().verify_all({&deployed, foreign}),
                 FleetError);
    const uint32_t version = foreign->firmware_version();
    EXPECT_THROW(campaign.apply_to(*foreign), FleetError);
    EXPECT_THROW(campaign.roll_out({foreign}), FleetError);
    EXPECT_THROW(campaign.roll_out({&deployed, foreign}), FleetError);
    EXPECT_EQ(foreign->firmware_version(), version);
    EXPECT_EQ(foreign->shared_build(), build);
    EXPECT_EQ(foreign->cfa_monitor()->log_size(), logged);
  }

  // The deployed device's firmware, evidence and books were never
  // touched.
  EXPECT_EQ(deployed.firmware_version(), deployed_version);
  EXPECT_EQ(deployed.shared_build(), build);
  auto verdict = fleet.verifier().attest(deployed);
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.seq, 0u);
  EXPECT_EQ(deployed.cfa_monitor()->log_size(), 0u);
}

TEST(FleetRegistry, UnknownSymbolThrowsTyped) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("sym", kTinyApp, "tiny", EnforcementPolicy::kCasu);
  EXPECT_THROW(dev.symbol("nonexistent"), FleetError);
}

// ------------------------------------------------------ policy behavior

// The same stack-smash exploit lands differently per policy: kNone and
// kCasu devices are hijacked, the kCfaBaseline device is hijacked but
// convicted at the next attestation, the kEilidHw device resets before
// the hijacked return is ever used.
TEST(FleetPolicies, HijackOutcomePerPolicy) {
  const auto& app = apps::vuln_gateway();
  Fleet fleet;

  auto hijack = [&](DeviceSession& dev) {
    dev.machine().uart().feed(
        attacks::overflow_ret_payload(dev.symbol("unlock")));
    dev.run_to_symbol("halt", app.cycle_budget);
    return dev.machine().uart().tx_text().find('U') != std::string::npos;
  };

  DeviceSession& none = fleet.provision("gw-none", app.source, app.name,
                                        EnforcementPolicy::kNone);
  EXPECT_EQ(none.hw_monitor(), nullptr);
  EXPECT_EQ(none.cfa_monitor(), nullptr);
  EXPECT_TRUE(hijack(none));

  DeviceSession& casu = fleet.provision("gw-casu", app.source, app.name,
                                        EnforcementPolicy::kCasu);
  EXPECT_NE(casu.hw_monitor(), nullptr);
  EXPECT_TRUE(hijack(casu));  // code reuse defeats CASU alone

  DeviceSession& cfa =
      fleet.provision("gw-cfa", app.source, app.name,
                      EnforcementPolicy::kCfaBaseline,
                      {.cfa = {.log_capacity = 8192}});
  ASSERT_NE(cfa.cfa_monitor(), nullptr);
  EXPECT_TRUE(hijack(cfa));  // detection is not prevention...
  auto verdict = fleet.verifier().attest(cfa);
  EXPECT_TRUE(verdict.mac_ok);
  EXPECT_TRUE(verdict.seq_ok);
  EXPECT_FALSE(verdict.path_ok);  // ...but the verifier convicts the log
  ASSERT_TRUE(verdict.first_bad.has_value());
  EXPECT_EQ(verdict.first_bad->to, cfa.symbol("unlock"));

  DeviceSession& eilid =
      fleet.provision("gw-eilid", app.source, app.name,
                      EnforcementPolicy::kEilidHw, {.halt_on_reset = true});
  EXPECT_FALSE(hijack(eilid));
  EXPECT_GT(eilid.violation_count(), 0u);
  EXPECT_EQ(eilid.last_reset_reason(), "cfi-return-mismatch");

  // Both plain-policy devices shared one build; EILID built once more.
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
}

// A session with no CFA monitor has no evidence to collect: attest()
// reports attested = false (never ok()) rather than aborting a mixed
// sweep, and the device is not swept by verify_all().
TEST(FleetPolicies, AttestingNonCfaSessionReportsUnattested) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("plain", kTinyApp, "tiny", EnforcementPolicy::kCasu);

  auto verdict = fleet.verifier().attest(dev);
  EXPECT_EQ(verdict.device_id, "plain");
  EXPECT_FALSE(verdict.attested);
  EXPECT_FALSE(verdict.mac_ok);
  EXPECT_FALSE(verdict.seq_ok);
  EXPECT_FALSE(verdict.path_ok);
  EXPECT_FALSE(verdict.ok());
  // The non-CFA device is not one the sweeps or schedulers judge.
  EXPECT_TRUE(fleet.verifier().verify_all().empty());
  HeartbeatScheduler scheduler(fleet);
  scheduler.run_until(0);
  EXPECT_TRUE(scheduler.records().empty());
}

// --------------------------------------------------------- build CFG

void expect_same_cfg(const cfa::Cfg& got, const cfa::Cfg& want) {
  ASSERT_EQ(got.sites().size(), want.sites().size());
  for (size_t i = 0; i < want.sites().size(); ++i) {
    const cfa::Site& site = want.sites()[i];
    EXPECT_EQ(got.sites()[i].pc, site.pc) << "site " << i;
    EXPECT_EQ(got.sites()[i].kind, site.kind) << "site " << site.pc;
    EXPECT_EQ(got.sites()[i].target, site.target) << "site " << site.pc;
    EXPECT_EQ(got.sites()[i].return_addr, site.return_addr)
        << "site " << site.pc;
  }
  EXPECT_TRUE(std::ranges::equal(got.call_targets(), want.call_targets()));
  EXPECT_TRUE(std::ranges::equal(got.isr_entries(), want.isr_entries()));
  EXPECT_EQ(got.reset_entry(), want.reset_entry());
}

// build_app extracts the app's CFG once, on every return path: plain,
// label-mode and three-iteration instrumented builds.
TEST(BuildResultCfg, EveryBuildPathCarriesTheAppCfg) {
  const auto& app = apps::vuln_gateway();
  core::BuildOptions plain;
  plain.eilid = false;
  core::BuildOptions label;
  label.instrument.label_mode = true;
  const core::BuildResult builds[] = {
      core::build_app(app.source, app.name, plain),
      core::build_app(app.source, app.name, label),
      core::build_app(app.source, app.name),
  };
  EXPECT_EQ(builds[0].iterations.size(), 1u);
  EXPECT_EQ(builds[1].iterations.size(), 1u);
  EXPECT_EQ(builds[2].iterations.size(), 3u);
  for (const core::BuildResult& build : builds) {
    ASSERT_NE(build.cfg, nullptr);
    EXPECT_TRUE(std::ranges::any_of(build.cfg->sites(), [](const cfa::Site& s) {
      return s.kind == cfa::SiteKind::kCall ||
             s.kind == cfa::SiteKind::kIndirectCall;
    }));
    expect_same_cfg(*build.cfg, cfa::extract_cfg(build.app));
  }
}

// A hand-assembled build (decoded table but no CFG) cannot be deployed
// for attestation: there is nothing to replay evidence against. A
// standalone session on it is no fleet device either.
TEST(BuildResultCfg, EnrollingBuildWithoutCfgThrowsTyped) {
  core::BuildOptions plain;
  plain.eilid = false;
  core::BuildResult built = core::build_app(kTinyApp, "tiny", plain);
  core::BuildResult hand;
  hand.app = built.app;
  hand.flat_image = built.flat_image;
  hand.decoded_image = built.decoded_image;
  auto build = std::make_shared<const core::BuildResult>(std::move(hand));

  Fleet fleet;
  EXPECT_THROW(
      fleet.deploy("no-cfg", build, EnforcementPolicy::kCfaBaseline),
      FleetError);
  EXPECT_EQ(fleet.find("no-cfg"), nullptr);

  DeviceSession standalone("no-cfg", build, EnforcementPolicy::kCfaBaseline);
  EXPECT_THROW(fleet.verifier().attest(standalone), FleetError);
  EXPECT_TRUE(fleet.sessions().empty());
}

// ----------------------------------------------------- verifier service

// Two sessions share one cached build but enforce independently: a
// hijack on (and power cycle of) one device must not perturb the
// other's attestation replay state or sequence numbers.
TEST(VerifierServiceTest, ReplayStateIsolatedBetweenSessions) {
  const auto& app = apps::vuln_gateway();
  Fleet fleet;
  // halt_on_reset keeps the victim parked at its post-hijack reset, so
  // its log holds the hijack evidence rather than thousands of
  // post-reboot polling edges.
  SessionOptions big_log{.halt_on_reset = true,
                         .cfa = {.log_capacity = 8192}};
  DeviceSession& victim = fleet.provision(
      "victim", app.source, app.name, EnforcementPolicy::kCfaBaseline, big_log);
  DeviceSession& healthy = fleet.provision(
      "healthy", app.source, app.name, EnforcementPolicy::kCfaBaseline,
      big_log);
  ASSERT_EQ(victim.shared_build().get(), healthy.shared_build().get());

  // Distinct devices MAC with distinct derived keys.
  EXPECT_NE(fleet.device_key("victim"), fleet.device_key("healthy"));

  victim.machine().uart().feed(
      attacks::overflow_ret_payload(victim.symbol("unlock")));
  healthy.machine().uart().feed(attacks::benign_payload());

  victim.run_to_symbol("halt", app.cycle_budget);
  healthy.run_to_symbol("halt", app.cycle_budget);

  auto round1 = fleet.verifier().verify_all();
  ASSERT_EQ(round1.size(), 2u);
  for (const auto& r : round1) {
    EXPECT_TRUE(r.mac_ok) << r.device_id;
    EXPECT_TRUE(r.seq_ok) << r.device_id;
    if (r.device_id == "victim") {
      EXPECT_FALSE(r.path_ok);
    } else {
      EXPECT_TRUE(r.path_ok) << r.device_id;
    }
  }

  // Enforcement reset on the victim: power-cycle it and run it clean.
  victim.machine().uart().clear_tx();
  victim.power_cycle();
  victim.machine().uart().feed(attacks::benign_payload());
  victim.run_to_symbol("halt", app.cycle_budget);
  healthy.run(5000);

  // The healthy device's replay continues mid-stream with the next
  // sequence number; the victim's restart is accepted because its log
  // carries the reset marker.
  auto round2 = fleet.verifier().verify_all();
  for (const auto& r : round2) {
    EXPECT_TRUE(r.mac_ok) << r.device_id;
    EXPECT_TRUE(r.seq_ok) << r.device_id;
    EXPECT_TRUE(r.path_ok) << r.device_id;
    EXPECT_EQ(r.seq, 1u) << r.device_id;
  }
}

// ----------------------------------------------------- update campaigns

// Firmware v1/v2 pair whose control-flow graphs genuinely differ (v2
// adds a call, shifting every address after it): replaying v1 evidence
// against v2's CFG would convict, so these catch any epoch mix-up.
const char* kFwV1 = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    call #emit
    call #emit
halt:
    jmp halt
emit:
    mov.b #'1', &UART_TX
    ret
.vector 15, main
.end
)";

const char* kFwV2 = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    call #emit
    call #emit
    call #emit
halt:
    jmp halt
emit:
    mov.b #'2', &UART_TX
    ret
.vector 15, main
.end
)";

// The full build-transition lifecycle: the campaign moves every device
// to the target build, bumps its own version, keeps it predecoded, and
// the next attestation verifies pre-update evidence against the old
// CFG and post-update evidence against the new one -- in one report.
TEST(UpdateCampaignTest, BuildTransitionUpdatesAttestAndStayPredecoded) {
  Fleet fleet;
  constexpr int kDevices = 4;
  for (int i = 0; i < kDevices; ++i) {
    DeviceSession& dev =
        fleet.provision("fw-" + std::to_string(i), kFwV1, "fw",
                        EnforcementPolicy::kCfaBaseline);
    // v1 evidence accumulates and is deliberately NOT attested before
    // the update: the single post-update report must span the epoch.
    dev.run_to_symbol("halt", 100000);
    EXPECT_EQ(dev.machine().uart().tx_text(), "11");
  }

  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", {.eilid = false});
  // Capture one device's genuine package to replay after the rollout.
  casu::UpdatePackage captured = campaign.package_for(fleet.at("fw-0"));

  auto outcomes = campaign.roll_out();
  ASSERT_EQ(outcomes.size(), static_cast<size_t>(kDevices));
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.result, UpdateResult::kApplied) << outcome.device_id;
    EXPECT_EQ(outcome.version_before, 0u);
    EXPECT_EQ(outcome.version_after, 1u);
    EXPECT_TRUE(outcome.build_swapped);
    EXPECT_TRUE(outcome.cfg_staged);
    EXPECT_GT(outcome.payload_bytes, 0u);
  }
  // One campaign, one target build, shared by every session.
  EXPECT_EQ(fleet.pipeline_runs(), 2u);
  for (auto* dev : fleet.sessions()) {
    EXPECT_EQ(dev->shared_build().get(), campaign.target_build().get());
    EXPECT_EQ(dev->firmware_version(), 1u);
  }

  for (auto* dev : fleet.sessions()) {
    dev->machine().uart().clear_tx();
    dev->run_to_symbol("halt", 100000);
    EXPECT_EQ(dev->machine().uart().tx_text(), "222") << dev->id();
    // No permanent interpretive fall-back: the session decodes from
    // the target build's shared table.
    EXPECT_TRUE(dev->machine().cpu().decode_cache_valid()) << dev->id();
    EXPECT_EQ(dev->machine().cpu().decoded_image(),
              campaign.target_build()->decoded_image.get());
  }

  // One report per device covering [v1 edges, update, reset, v2 edges]:
  // clean only if the verifier swaps CFGs at the marker.
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id << " first_bad="
                              << (verdict.first_bad ? verdict.first_bad->to : 0);
  }

  // Anti-rollback is per device: the captured (genuine, version-1)
  // package is stale for fw-0 now and must be refused.
  EXPECT_EQ(fleet.at("fw-0").apply_update(captured),
            casu::UpdateStatus::kRollback);
  // A second identical campaign is a fleet-wide no-op.
  for (const auto& outcome :
       fleet.stage_update(kFwV2, "fw", {.eilid = false}).roll_out()) {
    EXPECT_EQ(outcome.result, UpdateResult::kAlreadyCurrent);
  }
}

// A hijack that happened *before* an update must still be convicted by
// the post-update attestation: the epoch swap must not launder old
// evidence.
TEST(UpdateCampaignTest, PreUpdateHijackStillConvictedAfterUpdate) {
  const auto& app = apps::vuln_gateway();
  Fleet fleet;
  DeviceSession& dev = fleet.provision(
      "victim", app.source, app.name, EnforcementPolicy::kCfaBaseline,
      {.halt_on_reset = true, .cfa = {.log_capacity = 8192}});
  dev.machine().uart().feed(
      attacks::overflow_ret_payload(dev.symbol("unlock")));
  dev.run_to_symbol("halt", app.cycle_budget);
  uint16_t unlock = dev.symbol("unlock");

  // Vendor ships a patched gateway (an extra nop shifts the layout).
  std::string patched = app.source;
  patched.insert(patched.find("recv_packet:"), "    nop\n");
  auto outcome =
      fleet.stage_update(patched, app.name, {.eilid = false}).apply_to(dev);
  EXPECT_EQ(outcome.result, UpdateResult::kApplied);

  auto verdict = fleet.verifier().attest(dev);
  EXPECT_TRUE(verdict.mac_ok);
  EXPECT_FALSE(verdict.path_ok);  // the old-epoch evidence convicts
  ASSERT_TRUE(verdict.first_bad.has_value());
  EXPECT_EQ(verdict.first_bad->to, unlock);
}

// An update the verifier did not sanction (a valid package applied
// outside any campaign) leaves an epoch marker with no staged CFG: the
// next attestation flags the code change instead of trusting it.
TEST(UpdateCampaignTest, UnsanctionedUpdateFlaggedAtAttestation) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("rogue", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  dev.run_to_symbol("halt", 100000);

  const crypto::Digest key = fleet.update_key("rogue");
  casu::UpdateAuthority authority(
      std::span<const uint8_t>(key.data(), key.size()));
  ASSERT_EQ(dev.apply_update(authority.make_package(0xE800, 1, {0x03, 0x43})),
            casu::UpdateStatus::kApplied);

  auto verdict = fleet.verifier().attest(dev);
  EXPECT_TRUE(verdict.mac_ok);
  EXPECT_TRUE(verdict.seq_ok);
  EXPECT_FALSE(verdict.path_ok);
  ASSERT_TRUE(verdict.first_bad.has_value());
  EXPECT_TRUE(verdict.first_bad->update);
}

// Forged campaign packages are refused per device and the device heals
// by reset; the fleet's remaining devices update normally.
TEST(UpdateCampaignTest, ForgedPackageHealsDeviceWithoutPerturbingFleet) {
  Fleet fleet;
  DeviceSession& good =
      fleet.provision("good", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  DeviceSession& bad =
      fleet.provision("bad", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  good.run_to_symbol("halt", 100000);
  bad.run_to_symbol("halt", 100000);

  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", {.eilid = false});
  casu::UpdatePackage forged = campaign.package_for(bad);
  forged.mac[0] ^= 0xFF;
  EXPECT_EQ(bad.apply_update(forged), casu::UpdateStatus::kBadMac);
  bad.machine().run(100);
  EXPECT_EQ(bad.last_reset_reason(), "update-auth");
  EXPECT_EQ(bad.firmware_version(), 0u);

  auto outcome = campaign.apply_to(good);
  EXPECT_EQ(outcome.result, UpdateResult::kApplied);
  good.machine().uart().clear_tx();
  good.run_to_symbol("halt", 100000);
  EXPECT_EQ(good.machine().uart().tx_text(), "222");
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.mac_ok) << verdict.device_id;
    EXPECT_TRUE(verdict.seq_ok) << verdict.device_id;
  }
}

// A build-to-build diff is only applicable while the device's PMEM
// still equals the from-image. A device patched out of band must be
// refused -- applying the diff would leave memory matching neither
// build while the session adopts the target's predecoded table.
TEST(UpdateCampaignTest, DivergedDeviceRefusedCleanDeviceUpdates) {
  Fleet fleet;
  DeviceSession& diverged = fleet.provision("diverged", kFwV1, "fw",
                                            EnforcementPolicy::kCfaBaseline);
  DeviceSession& clean =
      fleet.provision("clean", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  diverged.run_to_symbol("halt", 100000);
  clean.run_to_symbol("halt", 100000);

  // Out-of-band (but validly MAC'd) patch: the device's PMEM no longer
  // matches its recorded build.
  const crypto::Digest key = fleet.update_key("diverged");
  casu::UpdateAuthority authority(
      std::span<const uint8_t>(key.data(), key.size()));
  ASSERT_EQ(
      diverged.apply_update(authority.make_package(0xE800, 1, {0x03, 0x43})),
      casu::UpdateStatus::kApplied);

  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", {.eilid = false});
  auto outcome = campaign.apply_to(diverged);
  EXPECT_EQ(outcome.result, UpdateResult::kImageMismatch);
  EXPECT_FALSE(outcome.build_swapped);
  EXPECT_EQ(diverged.firmware_version(), 1u);  // nothing newly applied
  EXPECT_NE(diverged.shared_build().get(), campaign.target_build().get());

  // The shared diff cache does not taint the clean device on the same
  // from-build.
  auto clean_outcome = campaign.apply_to(clean);
  EXPECT_EQ(clean_outcome.result, UpdateResult::kApplied);
}

// Records every retired-instruction transition, fall-through included.
class TraceMonitor : public sim::Monitor {
 public:
  struct Step {
    uint16_t from, to, fallthrough;
    bool operator==(const Step&) const = default;
  };
  void on_step(uint16_t from_pc, uint16_t to_pc,
               uint16_t fallthrough) override {
    steps_.push_back({from_pc, to_pc, fallthrough});
  }
  const std::vector<Step>& steps() const { return steps_; }

 private:
  std::vector<Step> steps_;
};

// Across an update, superblock pinned per-step (old table ->
// interpretive window during the patch -> new build's table) and the
// pure interpretive core retire bit-identical traces and produce
// identical attestation verdicts.
TEST(UpdateCampaignTest, PostUpdatePredecodedMatchesInterpretive) {
  struct VariantResult {
    std::vector<TraceMonitor::Step> steps;
    std::string tx;
    uint64_t cycles = 0;
    bool verdict_ok = false;
    uint32_t seq = 0;
    size_t edges = 0;
  };
  sim::Monitor pin;  // wants_step(): pins per-instruction dispatch
  auto run_variant = [&](ExecutionEngine engine, bool per_step) {
    Fleet fleet;
    SessionOptions options;
    options.engine = engine;
    DeviceSession& dev = fleet.provision(
        "dev", kFwV1, "fw", EnforcementPolicy::kCfaBaseline, options);
    if (per_step) dev.machine().add_monitor(&pin);
    TraceMonitor trace;
    dev.machine().add_monitor(&trace);
    dev.run_to_symbol("halt", 100000);
    auto outcome =
        fleet.stage_update(kFwV2, "fw", {.eilid = false}).apply_to(dev);
    EXPECT_EQ(outcome.result, UpdateResult::kApplied);
    dev.run_to_symbol("halt", 100000);
    EXPECT_EQ(dev.machine().cpu().decode_cache_valid(),
              engine != ExecutionEngine::kInterpretive);
    auto verdict = fleet.verifier().attest(dev);
    VariantResult r;
    r.steps = trace.steps();
    r.tx = dev.machine().uart().tx_text();
    r.cycles = dev.machine().cycles();
    r.verdict_ok = verdict.ok();
    r.seq = verdict.seq;
    r.edges = verdict.edges;
    return r;
  };

  VariantResult cached = run_variant(ExecutionEngine::kSuperblock, true);
  VariantResult interp = run_variant(ExecutionEngine::kInterpretive, false);
  VariantResult block = run_variant(ExecutionEngine::kSuperblock, false);
  ASSERT_FALSE(cached.steps.empty());
  EXPECT_EQ(cached.steps, interp.steps);
  EXPECT_EQ(cached.tx, interp.tx);
  EXPECT_EQ(cached.cycles, interp.cycles);
  EXPECT_TRUE(cached.verdict_ok);
  EXPECT_TRUE(interp.verdict_ok);
  EXPECT_EQ(cached.seq, interp.seq);
  EXPECT_EQ(cached.edges, interp.edges);
  EXPECT_EQ(block.steps, interp.steps);
  EXPECT_EQ(block.tx, interp.tx);
  EXPECT_EQ(block.cycles, interp.cycles);
  EXPECT_TRUE(block.verdict_ok);
  EXPECT_EQ(block.seq, interp.seq);
  EXPECT_EQ(block.edges, interp.edges);
}

// A default-engine session decodes from its build's own table and
// dispatches superblocks from it after every (re)flash: construction,
// power cycle, reflash and an update's build swap. With one table per
// build there is no second table that could pair stale with the first
// and silently turn block dispatch off.
TEST(UpdateCampaignTest, DefaultEngineDispatchesBlocksAfterEveryFlash) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("flash", kFwV1, "fw", EnforcementPolicy::kCfaBaseline);
  auto expect_blocks = [&dev](const core::BuildResult& build,
                              const char* when) {
    EXPECT_EQ(dev.machine().cpu().decoded_image(), build.decoded_image.get())
        << when;
    const uint64_t before = dev.machine().blocks_executed();
    dev.run(2000);
    EXPECT_GT(dev.machine().blocks_executed(), before) << when;
  };
  const auto v1 = dev.shared_build();
  expect_blocks(*v1, "after construction");
  dev.power_cycle();
  expect_blocks(*v1, "after power_cycle");
  dev.reflash();
  expect_blocks(*v1, "after reflash");

  core::BuildOptions plain;
  plain.eilid = false;
  UpdateCampaign campaign = fleet.stage_update(kFwV2, "fw", plain);
  ASSERT_EQ(campaign.apply_to(dev).result, UpdateResult::kApplied);
  ASSERT_EQ(dev.shared_build(), campaign.target_build());
  expect_blocks(*campaign.target_build(), "after adopt_build");
}

// A transition whose images differ outside PMEM (here: instrumented
// target with an EILIDsw ROM vs plain from-build with none) cannot be
// expressed as a CASU update and is reported, not applied.
TEST(UpdateCampaignTest, NonPmemDifferenceIsIncompatible) {
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("plain", kFwV1, "fw", EnforcementPolicy::kCasu);
  auto instrumented = fleet.build(kFwV2, "fw");  // eilid build, has ROM
  UpdateCampaign campaign = fleet.stage_update(instrumented);
  auto outcome = campaign.apply_to(dev);
  EXPECT_EQ(outcome.result, UpdateResult::kIncompatible);
  EXPECT_FALSE(outcome.build_swapped);
  EXPECT_EQ(dev.firmware_version(), 0u);
  EXPECT_THROW(campaign.package_for(dev), FleetError);
}

// A report replayed to the verifier out of sequence is flagged even
// though its MAC is genuine.
TEST(VerifierServiceTest, SequenceGapFlagged) {
  const auto& app = apps::vuln_gateway();
  Fleet fleet;
  DeviceSession& dev =
      fleet.provision("seq", app.source, app.name,
                      EnforcementPolicy::kCfaBaseline,
                      {.cfa = {.log_capacity = 8192}});
  dev.machine().uart().feed(attacks::benign_payload());
  dev.run(20000);

  // A report the verifier never sees: the device emitted it (seq 0),
  // but it was lost in transit.
  (void)dev.cfa_monitor()->take_report(/*nonce=*/999,
                                       dev.machine().cycles());
  dev.run(20000);
  auto verdict = fleet.verifier().attest(dev);
  EXPECT_TRUE(verdict.mac_ok);
  EXPECT_FALSE(verdict.seq_ok);  // seq 1 arrived where 0 was expected
}

}  // namespace
}  // namespace eilid
