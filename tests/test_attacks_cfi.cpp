// End-to-end security tests for P1/P2/P3: every control-flow attack
// hijacks the unprotected device and is stopped in real time on the
// EILID device -- the paper's central claim.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "common/error.h"
#include "attacks/attack.h"
#include "attacks/gadgets.h"
#include "eilid/pipeline.h"
#include "standalone_session.h"

namespace eilid {
namespace {

using sim::ResetReason;

TEST(AttackP1, ExploitHijacksPlainDevice) {
  const auto& app = apps::vuln_gateway();
  core::BuildResult build = core::build_app(app.source, app.name,
                                            {.eilid = false});
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().uart().feed(
      attacks::overflow_ret_payload(device.symbol("unlock")));
  device.run_to_symbol("halt", 200000);
  EXPECT_NE(device.machine().uart().tx_text().find('U'), std::string::npos)
      << "unlock() must have executed on the unprotected device";
}

TEST(AttackP1, ExploitStoppedOnEilidDevice) {
  const auto& app = apps::vuln_gateway();
  core::BuildResult build = core::build_app(app.source, app.name);
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().uart().feed(
      attacks::overflow_ret_payload(device.symbol("unlock")));
  auto r = device.run_to_symbol("halt", 200000);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kCfiReturnMismatch);
  EXPECT_EQ(device.machine().uart().tx_text().find('U'), std::string::npos)
      << "prevention: the hijacked code must never run";
}

TEST(AttackP1, BenignTrafficUnaffected) {
  const auto& app = apps::vuln_gateway();
  core::BuildResult build = core::build_app(app.source, app.name);
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().uart().feed(attacks::benign_payload());
  auto r = device.run_to_symbol("halt", 200000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
  EXPECT_EQ(device.machine().violation_count(), 0u);
}

TEST(AttackP2, IsrContextTamperCaughtByEilid) {
  const auto& app = apps::app_by_name("light_sensor");
  core::BuildResult build = core::build_app(app.source, app.name);
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  app.setup(device.machine());

  attacks::AttackEngine engine(device.machine());
  attacks::Attack attack;
  attack.trigger = {attacks::Trigger::Kind::kAtPc,
                    build.rom.unit.symbols.at("S_EILID_store_rfi"), 1};
  attacks::MemWrite w;
  w.sp_relative = true;
  w.addr = 8;  // saved interrupt PC (below veneer RA + saved r6/r7 + SR)
  w.value = device.symbol("halt");
  attack.writes = {w};
  engine.schedule(attack);

  auto r = device.run_to_symbol("halt", 8 * app.cycle_budget);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(engine.fired_count(), 1u);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kCfiRfiMismatch);
}

TEST(AttackP3, UnregisteredTargetCaught) {
  const auto& app = apps::vuln_gateway();
  core::BuildResult build = core::build_app(app.source, app.name);
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().uart().feed(attacks::benign_payload());

  attacks::AttackEngine engine(device.machine());
  attacks::Attack attack;
  attack.trigger = {attacks::Trigger::Kind::kAtPc, device.symbol("act"), 1};
  attack.writes = {{0x0202, device.symbol("unlock"), false, false}};
  engine.schedule(attack);

  auto r = device.run_to_symbol("halt", 200000);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kCfiIndirectCallViolation);
}

TEST(AttackP3, RegisteredTargetAllowedFunctionLevelGranularity) {
  // The paper's acknowledged limitation: redirecting to another entry
  // *in the table* is not detected.
  const auto& app = apps::vuln_gateway();
  core::BuildResult build = core::build_app(app.source, app.name);
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().uart().feed(attacks::benign_payload());

  attacks::AttackEngine engine(device.machine());
  attacks::Attack attack;
  attack.trigger = {attacks::Trigger::Kind::kAtPc, device.symbol("act"), 1};
  attack.writes = {{0x0202, device.symbol("blink"), false, false}};
  engine.schedule(attack);

  auto r = device.run_to_symbol("halt", 200000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
  EXPECT_EQ(device.machine().violation_count(), 0u);
}

TEST(AttackEngine, RefusesNonRamTargets) {
  const auto& app = apps::vuln_gateway();
  core::BuildResult build = core::build_app(app.source, app.name);
  DeviceSession device = standalone_session(build);
  attacks::AttackEngine engine(device.machine());
  attacks::Attack attack;
  attack.writes = {{0xE000, 0xDEAD, false, false}};  // PMEM
  EXPECT_THROW(engine.schedule(attack), ConfigError);
  attack.writes = {{0x2000, 0xDEAD, false, false}};  // secure DMEM
  EXPECT_THROW(engine.schedule(attack), ConfigError);
  attack.writes = {{0xA000, 0xDEAD, false, false}};  // ROM
  EXPECT_THROW(engine.schedule(attack), ConfigError);
}

TEST(Gadgets, FinderLocatesRetGadgets) {
  const auto& app = apps::vuln_gateway();
  core::BuildResult build = core::build_app(app.source, app.name,
                                            {.eilid = false});
  auto gadgets = attacks::find_gadgets(build.app.image, 0xE000, 0xF000);
  EXPECT_FALSE(gadgets.empty());
  bool any_ret = false;
  for (const auto& g : gadgets) {
    EXPECT_GE(g.length, 1);
    EXPECT_LE(g.length, 3);
    any_ret = any_ret || g.ends_in_ret;
  }
  EXPECT_TRUE(any_ret);
}

TEST(Attacks, DeviceRebootsCleanAfterEnforcement) {
  // After an enforcement reset the device must run normally again
  // (CASU heals by reset; state is wiped).
  const auto& app = apps::vuln_gateway();
  core::BuildResult build = core::build_app(app.source, app.name);
  DeviceSession device = standalone_session(build);  // halt_on_reset = false: let it reboot
  device.machine().uart().feed(
      attacks::overflow_ret_payload(device.symbol("unlock")));
  device.machine().uart().feed(attacks::benign_payload());
  auto r = device.run_to_symbol("halt", 400000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
  EXPECT_GE(device.machine().violation_count(), 1u);
  EXPECT_EQ(device.machine().uart().tx_text().find('U'), std::string::npos);
}

}  // namespace
}  // namespace eilid
