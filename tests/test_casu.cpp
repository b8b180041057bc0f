// CASU substrate tests: the immutability/W^X/ROM-gate invariants and
// the authenticated update protocol.
#include <gtest/gtest.h>

#include <memory>

#include "casu/monitor.h"
#include "casu/update.h"
#include "eilid/pipeline.h"
#include "masm/assembler.h"
#include "standalone_session.h"

namespace eilid::casu {
namespace {

using sim::ResetReason;

struct DeviceUnderTest {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<CasuMonitor> monitor;
};

DeviceUnderTest make_device(const std::string& body, CasuConfig cfg = {}) {
  std::string src =
      ".org 0xe000\nstart:\n    mov #0x1000, r1\n" + body +
      "halt:\n    jmp halt\n.vector 15, start\n";
  auto unit = masm::assemble_text(src, "casu");
  DeviceUnderTest d;
  d.machine = std::make_unique<sim::Machine>();
  cfg.rom_present = false;  // bare CASU device unless a test injects ROM
  d.monitor = std::make_unique<CasuMonitor>(cfg);
  d.machine->add_monitor(d.monitor.get());
  for (const auto& chunk : unit.image.chunks()) {
    d.machine->load(chunk.base, chunk.data);
  }
  d.machine->power_on();
  d.machine->set_halt_on_reset(true);
  return d;
}

TEST(Casu, PmemWriteFromAppResets) {
  auto d = make_device("    mov #0xdead, &0xe100\n");
  auto r = d.machine->run(1000);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(d.machine->resets().back().reason, ResetReason::kPmemWriteViolation);
  // The store must not have landed (immutability, not just detection).
  EXPECT_NE(d.machine->bus().raw_word(0xE100), 0xDEAD);
}

TEST(Casu, RamWriteIsFine) {
  auto d = make_device("    mov #0xdead, &0x0300\n");
  auto r = d.machine->run(1000);
  EXPECT_EQ(r.cause, sim::StopCause::kCycleBudget);
  EXPECT_EQ(d.machine->violation_count(), 0u);
  EXPECT_EQ(d.machine->bus().raw_word(0x0300), 0xDEAD);
}

TEST(Casu, ExecFromRamResets) {
  auto d = make_device(R"(    mov #0x4303, &0x0300
    br #0x0300
)");
  auto r = d.machine->run(1000);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(d.machine->resets().back().reason, ResetReason::kDmemExecViolation);
}

TEST(Casu, RomWriteResets) {
  auto d = make_device("    mov #1, &0xa100\n");
  d.machine->run(1000);
  EXPECT_EQ(d.machine->resets().back().reason, ResetReason::kRomWriteViolation);
}

TEST(Casu, ViolationRegFromAppIsPrivileged) {
  auto d = make_device("    mov #1, &0x0190\n");
  d.machine->run(1000);
  EXPECT_EQ(d.machine->resets().back().reason,
            ResetReason::kPrivilegedMmioViolation);
}

TEST(Casu, KeyRegionUnreadableFromApp) {
  auto d = make_device("    mov &0xafe0, r10\n");
  d.machine->run(1000);
  EXPECT_EQ(d.machine->resets().back().reason,
            ResetReason::kSecureRamAccessViolation);
}

TEST(Casu, RomEntryGateEnforced) {
  // A device WITH trusted ROM: jumping into the middle of the ROM body
  // (past the entry section) must reset.
  core::BuildResult build = core::build_app(
      ".org 0xe000\nmain:\n    mov #0x1000, r1\nhalt:\n    jmp halt\n"
      ".vector 15, main\n.end\n",
      "gate");
  uint16_t body_addr = build.rom.unit.symbols.at("S_EILID_store_ra");
  std::string attack_src =
      ".org 0xe000\nmain:\n    mov #0x1000, r1\n    br #" +
      std::to_string(body_addr) + "\nhalt:\n    jmp halt\n.vector 15, main\n";
  core::BuildResult attack = core::build_app(attack_src, "gate2",
                                             {.eilid = false});
  attack.rom = build.rom;  // same trusted ROM
  DeviceSession device = standalone_session(attack, /*halt_on_reset=*/true);
  auto r = device.machine().run(1000);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kRomEntryViolation);
}

TEST(Casu, RomEntryThroughStubIsLegal) {
  core::BuildResult build = core::build_app(
      ".org 0xe000\nmain:\n    mov #0x1000, r1\n    call #foo\nhalt:\n"
      "    jmp halt\nfoo:\n    ret\n.vector 15, main\n.end\n",
      "legal");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  auto r = device.run_to_symbol("halt", 5000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
  EXPECT_EQ(device.machine().violation_count(), 0u);
}

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    build_ = core::build_app(
        ".org 0xe000\nmain:\n    mov #0x1000, r1\nhalt:\n    jmp halt\n"
        ".vector 15, main\n.end\n",
        "app");
    device_ = std::make_unique<DeviceSession>(
        "device", std::make_shared<const core::BuildResult>(build_),
        standalone_policy(build_));
    // Receiver side is bound to the device's machine and monitor at
    // construction: there is no way to aim it at another machine.
    engine_ = std::make_unique<UpdateEngine>(key_span(), device_->machine(),
                                             device_->hw_monitor());
  }

  std::span<const uint8_t> key_span() const {
    return std::span<const uint8_t>(key_.data(), key_.size());
  }

  std::vector<uint8_t> key_ = std::vector<uint8_t>(32, 0x77);
  core::BuildResult build_;
  std::unique_ptr<DeviceSession> device_;
  std::unique_ptr<UpdateEngine> engine_;
};

TEST_F(UpdateTest, ValidUpdateApplies) {
  UpdateAuthority authority(key_span());
  auto pkg = authority.make_package(0xE800, 1, {0x11, 0x22, 0x33});
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kApplied);
  EXPECT_EQ(device_->machine().bus().raw_byte(0xE800), 0x11);
  EXPECT_EQ(engine_->current_version(), 1u);
}

TEST_F(UpdateTest, MultiRegionPackageAppliesAtomically) {
  UpdateAuthority authority(key_span());
  auto pkg = authority.make_package(
      1, {{0xE800, {0x11, 0x22}}, {0xF000, {0x33}}, {0xFF00, {0x44, 0x55}}});
  EXPECT_EQ(pkg.payload_bytes(), 5u);
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kApplied);
  EXPECT_EQ(device_->machine().bus().raw_byte(0xE801), 0x22);
  EXPECT_EQ(device_->machine().bus().raw_byte(0xF000), 0x33);
  EXPECT_EQ(device_->machine().bus().raw_byte(0xFF01), 0x55);
  EXPECT_EQ(engine_->current_version(), 1u);
}

TEST_F(UpdateTest, TamperedPayloadRejectedAndDeviceHeals) {
  UpdateAuthority authority(key_span());
  auto pkg = authority.make_package(0xE800, 1, {0x11, 0x22, 0x33});
  pkg.regions[0].payload[0] = 0x99;  // tampered in transit
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kBadMac);
  EXPECT_NE(device_->machine().bus().raw_byte(0xE800), 0x99);
  device_->machine().run(100);
  EXPECT_EQ(device_->machine().resets().back().reason,
            ResetReason::kUpdateAuthFailure);
}

TEST_F(UpdateTest, RollbackRejectedAndLatchesViolation) {
  UpdateAuthority authority(key_span());
  auto v2 = authority.make_package(0xE800, 2, {0xAA});
  EXPECT_EQ(engine_->apply(v2), UpdateStatus::kApplied);
  auto v1 = authority.make_package(0xE802, 1, {0xBB});
  EXPECT_EQ(engine_->apply(v1), UpdateStatus::kRollback);
  auto v2b = authority.make_package(0xE802, 2, {0xBB});
  EXPECT_EQ(engine_->apply(v2b), UpdateStatus::kRollback);
  // A validly MAC'd but stale package is an attack signal: the device
  // heals by reset, like any other update abuse.
  device_->machine().run(100);
  EXPECT_EQ(device_->machine().resets().back().reason,
            ResetReason::kUpdateRollback);
}

TEST_F(UpdateTest, NonPmemTargetRejected) {
  UpdateAuthority authority(key_span());
  auto pkg = authority.make_package(0x0300, 1, {0x11});
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kBadRegion);
  // A bad region hiding behind valid ones poisons the whole package:
  // nothing is applied.
  auto mixed = authority.make_package(1, {{0xE800, {0x11}}, {0x0300, {0x22}}});
  EXPECT_EQ(engine_->apply(mixed), UpdateStatus::kBadRegion);
  EXPECT_NE(device_->machine().bus().raw_byte(0xE800), 0x11);
}

TEST_F(UpdateTest, WrongKeyRejected) {
  std::vector<uint8_t> other_key(32, 0x78);
  UpdateAuthority rogue(
      std::span<const uint8_t>(other_key.data(), other_key.size()));
  auto pkg = rogue.make_package(0xE800, 1, {0x11});
  EXPECT_EQ(engine_->apply(pkg), UpdateStatus::kBadMac);
}

// Regression: the anti-rollback version counter is per device, not
// per host. Updating one device must never advance (or be blocked by)
// another device's version state.
TEST_F(UpdateTest, VersionStateIsPerDevice) {
  DeviceSession other = standalone_session(build_);
  UpdateEngine other_engine(key_span(), other.machine(), other.hw_monitor());
  UpdateAuthority authority(key_span());

  // Device A reaches version 3.
  EXPECT_EQ(engine_->apply(authority.make_package(0xE800, 3, {0xAA})),
            UpdateStatus::kApplied);
  // Device B is still at 0: version 1 is monotonic *for it*.
  EXPECT_EQ(other_engine.apply(authority.make_package(0xE800, 1, {0xBB})),
            UpdateStatus::kApplied);
  EXPECT_EQ(engine_->current_version(), 3u);
  EXPECT_EQ(other_engine.current_version(), 1u);
  // And the bytes landed on the right machines.
  EXPECT_EQ(device_->machine().bus().raw_byte(0xE800), 0xAA);
  EXPECT_EQ(other.machine().bus().raw_byte(0xE800), 0xBB);
}

}  // namespace
}  // namespace eilid::casu
