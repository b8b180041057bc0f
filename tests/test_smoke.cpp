// End-to-end smoke tests: every Table IV app assembles, runs to
// completion on the plain device AND on the EILID device, produces the
// same observable behaviour, and triggers zero enforcement resets.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "eilid/pipeline.h"
#include "standalone_session.h"

namespace eilid {
namespace {

class SmokeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SmokeTest, OriginalRunsToHalt) {
  const auto& app = apps::app_by_name(GetParam());
  core::BuildOptions opts;
  opts.eilid = false;
  core::BuildResult build = core::build_app(app.source, app.name, opts);
  DeviceSession device = standalone_session(build);
  app.setup(device.machine());
  auto run = device.run_to_symbol("halt", app.cycle_budget);
  EXPECT_EQ(run.cause, sim::StopCause::kBreakpoint)
      << "app did not reach halt";
  EXPECT_EQ(device.machine().violation_count(), 0u);
  EXPECT_EQ(app.check(device.machine()), "");
}

TEST_P(SmokeTest, EilidRunsToHaltWithoutFalsePositives) {
  const auto& app = apps::app_by_name(GetParam());
  core::BuildResult build = core::build_app(app.source, app.name);
  DeviceSession device = standalone_session(build);
  app.setup(device.machine());
  auto run = device.run_to_symbol("halt", 4 * app.cycle_budget);
  ASSERT_EQ(run.cause, sim::StopCause::kBreakpoint)
      << "instrumented app did not reach halt; resets="
      << device.machine().violation_count()
      << (device.machine().resets().size() > 1
              ? " last=" + sim::reset_reason_name(
                               device.machine().resets().back().reason)
              : "");
  EXPECT_EQ(device.machine().violation_count(), 0u)
      << sim::reset_reason_name(device.machine().resets().back().reason);
  EXPECT_EQ(app.check(device.machine()), "");
}

TEST_P(SmokeTest, EilidCostsMoreButBounded) {
  const auto& app = apps::app_by_name(GetParam());
  core::BuildOptions plain;
  plain.eilid = false;
  auto orig = core::build_app(app.source, app.name, plain);
  auto inst = core::build_app(app.source, app.name);
  EXPECT_GT(inst.binary_size(), orig.binary_size());
  // Paper Table IV: binary growth is at most ~22%; allow slack for our
  // veneer block, but it must stay well under 2x.
  EXPECT_LT(inst.binary_size(), 2 * orig.binary_size());
}

INSTANTIATE_TEST_SUITE_P(
    Table4Apps, SmokeTest,
    ::testing::Values("light_sensor", "ultrasonic_ranger", "fire_sensor",
                      "syringe_pump", "temp_sensor", "charlieplexing",
                      "lcd_sensor"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace eilid
