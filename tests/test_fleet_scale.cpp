// Fleet at 10k scale: the copy-on-write paged device memory
// (sim::PagedMemory behind Bus) and the incremental windowed verifier
// (eilid::IncrementalVerifier). The two invariants everything here
// gates:
//
//   1. Paged memory is observationally identical to the old flat
//      64 KiB array -- under random writes, resets, reflashes,
//      wipe_volatile, base swaps and self-modifying code, across all
//      three oracle arms -- while a device's resident bytes stay
//      proportional to what it *dirtied*, not to the address space.
//   2. Windowed slice-by-slice verification folds to verdicts
//      bit-identical to the barrier verify_all() on the same evidence
//      (serial and pooled), convicting a hijack at the same edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "casu/update.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "eilid/fleet.h"
#include "eilid/health.h"
#include "eilid/incremental.h"
#include "eilid/pipeline.h"
#include "sim/memory_map.h"
#include "sim/monitor.h"
#include "sim/paged_memory.h"

namespace eilid {
namespace {

// Firmware generations with genuinely different layouts (the
// emit-call count shifts every later address).
std::string firmware(int generation) {
  std::string s = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
)";
  for (int i = 0; i < generation + 1; ++i) s += "    call #emit\n";
  s += R"(halt:
    jmp halt
emit:
    mov.b #')";
  s += static_cast<char>('0' + generation);
  s += R"(', &UART_TX
    ret
.vector 15, main
.end
)";
  return s;
}

std::string device_id(size_t i) {
  std::string n = std::to_string(i);
  return "dev-" + std::string(n.size() < 2 ? 2 - n.size() : 0, '0') + n;
}

// The entry for `id` in a records() / summaries() snapshot
// (value-initialized when the snapshot has none).
template <typename Entry>
Entry entry_for(const std::vector<Entry>& entries, const std::string& id) {
  for (const Entry& entry : entries) {
    if (entry.device_id == id) return entry;
  }
  return Entry{};
}

// The mixed fleet's policy per device: among kCfaBaseline devices, one
// in eight each runs kCasu, kNone and kEilidHw.
EnforcementPolicy mixed_policy(size_t i) {
  switch (i % 8) {
    case 5: return EnforcementPolicy::kCasu;
    case 6: return EnforcementPolicy::kNone;
    case 7: return EnforcementPolicy::kEilidHw;
    default: return EnforcementPolicy::kCfaBaseline;
  }
}

void provision_fleet(Fleet& fleet, size_t devices, bool mixed = false) {
  for (size_t i = 0; i < devices; ++i) {
    DeviceSession& dev =
        fleet.provision(device_id(i), firmware(0), "fw",
                        mixed ? mixed_policy(i)
                              : EnforcementPolicy::kCfaBaseline,
                        {.cfa = {.log_capacity = 65536}});
    dev.run_to_symbol("halt", 100000);
  }
}

// Rogue-but-validly-MAC'd out-of-band patch: the device applies it (the
// MAC verifies), logs an epoch marker no campaign sanctioned, and the
// next sweep convicts the unexplained code change (path_ok = false).
void diverge_out_of_band(Fleet& fleet, const std::string& id) {
  DeviceSession& dev = fleet.at(id);
  const crypto::Digest key = fleet.update_key(id);
  casu::UpdateAuthority authority(
      std::span<const uint8_t>(key.data(), key.size()));
  ASSERT_EQ(dev.apply_update(authority.make_package(
                0xE800, dev.firmware_version() + 1, {0x03, 0x43})),
            casu::UpdateStatus::kApplied);
}

// ---------------------------------------------------- PagedMemory

// The COW pager against a flat 64 KiB reference array, under a random
// mix of every mutation the Bus can issue. After every operation the
// entire address space must read identically.
TEST(PagedMemoryTest, MatchesFlatReferenceUnderRandomOperations) {
  auto base = std::make_shared<const std::vector<uint8_t>>([] {
    std::vector<uint8_t> image(0x10000, 0);
    common::SeededRng fill(11);
    for (size_t i = 0xE000; i < 0x10000; ++i) image[i] = fill.u8();
    return image;
  }());
  auto base2 = std::make_shared<const std::vector<uint8_t>>([] {
    std::vector<uint8_t> image(0x10000, 0);
    common::SeededRng fill(12);
    for (size_t i = 0xA000; i < 0x10000; ++i) image[i] = fill.u8();
    return image;
  }());

  sim::PagedMemory mem;
  std::vector<uint8_t> ref(0x10000, 0);
  auto sync_ref_to = [&ref](const std::vector<uint8_t>& img) { ref = img; };

  mem.attach_base(base);
  sync_ref_to(*base);

  common::SeededRng rng(0xF1EE7);
  for (int op = 0; op < 4000; ++op) {
    switch (rng.below(100)) {
      default: {  // byte write (the common case)
        const uint16_t addr = rng.u16();
        const uint8_t value = rng.u8();
        mem.write(addr, value);
        ref[addr] = value;
        break;
      }
      case 0: case 1: case 2: case 3: case 4:
      case 5: case 6: case 7: case 8: case 9: {  // word write
        const uint16_t addr = rng.u16() & 0xFFFE;
        const uint16_t value = rng.u16();
        mem.write_word(addr, value);
        ref[addr] = static_cast<uint8_t>(value & 0xFF);
        ref[addr + 1] = static_cast<uint8_t>(value >> 8);
        break;
      }
      case 10: case 11: case 12: case 13: {  // bulk store, may wrap 0xFFFF
        const uint16_t addr = rng.u16();
        std::vector<uint8_t> bytes(1 + rng.below(700));
        for (auto& b : bytes) b = rng.u8();
        mem.store_bytes(addr, bytes.data(), bytes.size());
        for (size_t i = 0; i < bytes.size(); ++i) {
          ref[static_cast<uint16_t>(addr + i)] = bytes[i];
        }
        break;
      }
      case 14: case 15: {  // wipe_volatile analog
        mem.zero_range(sim::kRamStart, sim::kRamEnd);
        mem.zero_range(sim::kSecureRamStart, sim::kSecureRamEnd);
        std::fill(ref.begin() + sim::kRamStart,
                  ref.begin() + sim::kRamEnd + 1, 0);
        std::fill(ref.begin() + sim::kSecureRamStart,
                  ref.begin() + sim::kSecureRamEnd + 1, 0);
        break;
      }
      case 16: case 17: {  // reflash analog (partial-page boundaries too)
        const uint16_t first = 0xE000 + (rng.u16() & 0x0FFF);
        const uint16_t last =
            static_cast<uint16_t>(first + rng.below(0x10000 - first));
        mem.reset_range_to_base(first, last);
        const auto& img = *mem.base();
        std::copy(img.begin() + first, img.begin() + last + 1,
                  ref.begin() + first);
        break;
      }
      case 18: {  // adopt_build analog: swap base, reclaim clean pages
        const auto& next = mem.base() == base ? base2 : base;
        // A base swap alone changes what un-owned pages read; mirror by
        // materializing everything first (write-back), which the pager
        // must treat as all-owned and therefore swap-invariant.
        for (uint32_t page = 0; page < 0x100; ++page) {
          const uint16_t addr = static_cast<uint16_t>(page << 8);
          mem.write(addr, mem.read(addr));
        }
        mem.attach_base(next);
        mem.reclaim_identical(0x0000, 0xFFFF);
        break;
      }
      case 19: {  // reclaim is a pure storage optimization
        mem.reclaim_identical(rng.u16(), 0xFFFF);
        break;
      }
    }
    if (op % 97 == 0 || op == 3999) {
      for (uint32_t a = 0; a < 0x10000; ++a) {
        ASSERT_EQ(mem.read(static_cast<uint16_t>(a)),
                  ref[static_cast<uint16_t>(a)])
            << "op " << op << " addr " << a;
      }
    }
  }
  // Residency stays page-proportional: the tables plus at most one
  // owned copy of the address space, never more.
  EXPECT_LE(mem.resident_bytes(),
            0x10000u + 2 * sizeof(void*) * sim::PagedMemory::kPageCount);
}

TEST(PagedMemoryTest, ResidencyTracksDirtiedPagesOnly) {
  auto base = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>(0x10000, 0xAB));
  sim::PagedMemory mem;
  mem.attach_base(base);
  const size_t tables = mem.resident_bytes();
  EXPECT_EQ(mem.owned_pages(), 0u);

  mem.write(0x0200, 1);    // one RAM page
  mem.write(0x0201, 2);    // same page: no growth
  mem.write(0xE000, 3);    // one PMEM page
  EXPECT_EQ(mem.owned_pages(), 2u);
  EXPECT_EQ(mem.resident_bytes(), tables + 2 * sim::PagedMemory::kPageBytes);

  // A page written back to its base value is reclaimable.
  mem.write(0xE000, 0xAB);
  mem.reclaim_identical(0xE000, 0xEFFF);
  EXPECT_EQ(mem.owned_pages(), 1u);

  // Full-page resets release; the recycled pages are reused, so the
  // arena's high-water mark -- not churn -- bounds residency.
  mem.reset_range_to_base(0x0200, 0x02FF);
  EXPECT_EQ(mem.owned_pages(), 0u);
  mem.write(0x0400, 9);
  EXPECT_EQ(mem.resident_bytes(), tables + 2 * sim::PagedMemory::kPageBytes);
}

// A provisioned device's private cost is a handful of dirtied pages,
// not the 64 KiB address space, and it is deterministic, so it is
// pinned exactly: per policy after the provision step (boot to halt,
// then a 300-cycle halt-loop spin), and the mean and max over the
// mixed fleet. Every device holds 4 KiB of page tables plus its
// dirtied pages; a CFA device adds its log arena's first chunk, and a
// rogue PMEM patch one more page. Reflash never grows it.
TEST(PagedMemoryTest, SessionResidentBytesStayNearSharedImageCost) {
  Fleet fleet;
  provision_fleet(fleet, 8, /*mixed=*/true);
  std::map<EnforcementPolicy, size_t> by_policy;
  size_t total = 0;
  size_t max = 0;
  for (DeviceSession* dev : fleet.sessions()) {
    dev->run(300);
    const size_t bytes = dev->resident_memory_bytes();
    const size_t pinned = by_policy.emplace(dev->policy(), bytes).first->second;
    EXPECT_EQ(pinned, bytes) << dev->id() << ": same policy, same cost";
    total += bytes;
    max = std::max(max, bytes);
  }
  EXPECT_EQ(by_policy.at(EnforcementPolicy::kNone), 4352u);
  EXPECT_EQ(by_policy.at(EnforcementPolicy::kCasu), 4352u);
  EXPECT_EQ(by_policy.at(EnforcementPolicy::kCfaBaseline), 6400u);
  EXPECT_EQ(by_policy.at(EnforcementPolicy::kEilidHw), 4608u);
  EXPECT_EQ(total, 8 * 5664u);  // the mix's mean: 5,664 B per device
  EXPECT_EQ(max, 6400u);

  DeviceSession& dev = fleet.at(device_id(1));
  diverge_out_of_band(fleet, dev.id());
  const size_t diverged = dev.resident_memory_bytes();
  EXPECT_EQ(diverged, 6656u);
  dev.reflash();
  EXPECT_LE(dev.resident_memory_bytes(), diverged);
}

// ---------------------------------------------- three-arm differential

// Random write/reset/reflash/self-modify sequences must leave all
// three oracle arms (interpretive, superblock pinned per-step,
// superblock) in bit-identical states -- same retirement counts,
// registers, and full memory image -- on the paged memory exactly as
// they did on the flat array. kNone policy so self-modifying stores
// are legal.
TEST(PagedMemoryTest, EnginesStayBitIdenticalUnderResetsAndSelfModification) {
  constexpr std::pair<ExecutionEngine, bool> kArms[] = {
      {ExecutionEngine::kInterpretive, false},
      {ExecutionEngine::kSuperblock, true},  // pinned per-step
      {ExecutionEngine::kSuperblock, false}};
  sim::Monitor pin;  // wants_step(): pins per-instruction dispatch
  std::vector<std::unique_ptr<Fleet>> fleets;
  std::vector<DeviceSession*> devs;
  for (auto [engine, per_step] : kArms) {
    auto fleet = std::make_unique<Fleet>();
    devs.push_back(&fleet->provision("d", firmware(0), "fw",
                                     EnforcementPolicy::kNone,
                                     {.engine = engine}));
    if (per_step) devs.back()->machine().add_monitor(&pin);
    fleets.push_back(std::move(fleet));
  }

  common::SeededRng script(0x5EED);
  for (int round = 0; round < 30; ++round) {
    const uint64_t budget = 200 + script.below(3000);
    const uint64_t action = script.below(6);
    const uint16_t addr = 0xE000 + (script.u16() & 0x1FFE);
    const uint16_t value = script.u16();
    for (DeviceSession* dev : devs) {
      dev->run(budget);
      switch (action) {
        case 0:
          dev->power_cycle();
          break;
        case 1:
          dev->reflash();
          break;
        case 2:
        case 3:
          // Self-modifying store into PMEM: bumps the code generation,
          // drops table-driven engines to interpretive decode.
          dev->machine().bus().raw_store_word(addr, value);
          break;
        default:
          break;
      }
    }
    for (size_t e = 1; e < devs.size(); ++e) {
      ASSERT_EQ(devs[e]->machine().cycles(), devs[0]->machine().cycles())
          << "round " << round;
      ASSERT_EQ(devs[e]->machine().cpu().instructions_retired(),
                devs[0]->machine().cpu().instructions_retired())
          << "round " << round;
      for (int r = 0; r < 16; ++r) {
        ASSERT_EQ(devs[e]->machine().cpu().reg(r),
                  devs[0]->machine().cpu().reg(r))
            << "round " << round << " r" << r;
      }
      for (uint32_t a = 0; a < 0x10000; a += 2) {
        ASSERT_EQ(devs[e]->machine().bus().raw_word(static_cast<uint16_t>(a)),
                  devs[0]->machine().bus().raw_word(static_cast<uint16_t>(a)))
            << "round " << round << " addr " << a;
      }
    }
  }
}

// --------------------------------------------------- CFA arena slices

TEST(CfaArenaTest, BoundedSlicesCarryExactlyTheBarrierEvidence) {
  // Two identical devices accumulate identical logs; drain one in one
  // unbounded report and the other in bounded slices.
  Fleet barrier_fleet;
  Fleet sliced_fleet;
  provision_fleet(barrier_fleet, 1);
  provision_fleet(sliced_fleet, 1);
  // Spin the halt loop: every `jmp halt` iteration logs an edge, so the
  // logs span several slices (and several arena chunks' worth over the
  // device's life).
  barrier_fleet.at(device_id(0)).run(600);
  sliced_fleet.at(device_id(0)).run(600);
  cfa::CfaMonitor* whole = barrier_fleet.at(device_id(0)).cfa_monitor();
  cfa::CfaMonitor* sliced = sliced_fleet.at(device_id(0)).cfa_monitor();
  ASSERT_GT(whole->log_size(), 10u);
  ASSERT_EQ(whole->log_size(), sliced->log_size());

  const uint64_t arena_before = sliced->total_log_bytes();
  EXPECT_GT(arena_before, 0u);

  cfa::Report full = whole->take_report(7, 0);
  std::vector<cfa::LoggedEdge> concatenated;
  uint32_t seq = 0;
  while (sliced->log_size() > 0) {
    cfa::Report slice = sliced->take_report(100 + seq, 0, 3);
    EXPECT_EQ(slice.seq, seq++);
    EXPECT_LE(slice.edges.size(), 3u);
    concatenated.insert(concatenated.end(), slice.edges.begin(),
                        slice.edges.end());
  }
  EXPECT_EQ(concatenated, full.edges);
  // Drained chunks recycle through the free list: the arena's resident
  // bytes never exceed the pre-drain high-water mark, and an emptied
  // log does not free-and-regrow.
  EXPECT_EQ(sliced->total_log_bytes(), arena_before);
}

// --------------------------------------- incremental windowed verdicts

// Fold every device's barrier verdicts (one verify_all per evidence
// phase) into summaries, keyed by id.
std::map<std::string, AttestSummary> fold_all(
    std::map<std::string, AttestSummary> acc,
    const std::vector<VerifierService::AttestResult>& results) {
  for (const auto& r : results) fold(acc[r.device_id], r);
  return acc;
}

// Drive the windowed verifier until every device's log is drained.
void drain_windowed(Fleet& fleet, IncrementalVerifier& verifier,
                    common::ThreadPool* pool) {
  for (int guard = 0; guard < 10000; ++guard) {
    bool pending = false;
    for (DeviceSession* s : fleet.sessions()) {
      if (s->cfa_monitor() != nullptr && s->cfa_monitor()->log_size() > 0) {
        pending = true;
        break;
      }
    }
    if (!pending) return;
    const Tick next = fleet.clock().now() + verifier.options().period;
    if (pool == nullptr) {
      verifier.run_until(next);
    } else {
      verifier.run_until(next, *pool);
    }
  }
  FAIL() << "windowed verifier never drained the fleet";
}

struct WindowedScenarioResult {
  std::map<std::string, AttestSummary> windowed;
  IncrementalVerifier::WindowReport serial_rounds;
};

// One evidence scenario, run identically against a barrier fleet and a
// windowed fleet of mixed policies: run to halt, hijack one device,
// update-campaign the CFA devices in a second phase, run again. The
// devices without a CFA log share every phase, so the windowed
// rotation must skip them exactly where the barrier sweep does.
// Returns both sides' folded summaries.
void run_identity_scenario(size_t devices, IncrementalOptions options,
                           common::ThreadPool* pool,
                           std::map<std::string, AttestSummary>& barrier_out,
                           std::map<std::string, AttestSummary>& windowed_out) {
  Fleet barrier_fleet;
  Fleet windowed_fleet;
  provision_fleet(barrier_fleet, devices, /*mixed=*/true);
  provision_fleet(windowed_fleet, devices, /*mixed=*/true);
  // Halt-loop iterations pad every device's log well past one slice
  // budget, so the windowed side genuinely slices.
  for (Fleet* fleet : {&barrier_fleet, &windowed_fleet}) {
    for (DeviceSession* dev : fleet->sessions()) dev->run(600);
  }
  diverge_out_of_band(barrier_fleet, device_id(1));
  diverge_out_of_band(windowed_fleet, device_id(1));

  std::map<std::string, AttestSummary> barrier;
  IncrementalVerifier windowed(windowed_fleet, options);

  // Phase 1: drain the boot evidence (and the unsanctioned epoch
  // marker on dev-01).
  barrier = fold_all(std::move(barrier), barrier_fleet.verifier().verify_all());
  drain_windowed(windowed_fleet, windowed, pool);

  // Phase 2: a sanctioned campaign moves every CFA device to
  // firmware(1); its epoch markers land mid-window and must replay
  // clean.
  for (Fleet* fleet : {&barrier_fleet, &windowed_fleet}) {
    // Plain (uninstrumented) target: the devices' kCfaBaseline builds
    // are plain, and the transition must match shapes.
    UpdateCampaign campaign =
        fleet->stage_update(firmware(1), "fw", {.eilid = false});
    for (DeviceSession* dev : fleet->sessions()) {
      if (dev->policy() != EnforcementPolicy::kCfaBaseline) continue;
      // dev-01 diverged, so its image mismatches the campaign diff;
      // reflash it first, as remediation would.
      if (dev->id() == device_id(1)) {
        std::lock_guard<std::mutex> lock(dev->mutex());
        dev->reflash();
      }
      UpdateOutcome outcome = campaign.apply_to(*dev);
      ASSERT_TRUE(outcome.ok()) << dev->id();
      // Reboot into the new image (the old PC points into shifted
      // code); the reset marker lands after the epoch marker and both
      // replay clean mid-window.
      dev->power_cycle();
      dev->run_to_symbol("halt", 100000);
      dev->run(600);
    }
  }
  barrier = fold_all(std::move(barrier), barrier_fleet.verifier().verify_all());
  drain_windowed(windowed_fleet, windowed, pool);

  barrier_out = std::move(barrier);
  windowed_out.clear();
  for (const AttestSummary& s : windowed.summaries()) {
    windowed_out[s.device_id] = s;
  }
}

TEST(IncrementalVerifierTest, WindowedVerdictsMatchBarrierSweep) {
  std::map<std::string, AttestSummary> barrier;
  std::map<std::string, AttestSummary> windowed;
  run_identity_scenario(
      8,
      {.period = 5,
       .max_devices_per_tick = 2,
       .max_bytes_per_slice = 16 * cfa::LoggedEdge::kWireBytes},
      nullptr, barrier, windowed);

  // Only the five CFA devices attest.
  ASSERT_EQ(barrier.size(), 5u);
  EXPECT_EQ(barrier, windowed);
  // The hijacked device convicted, at the same first bad edge both
  // ways; every other CFA device stayed clean.
  EXPECT_FALSE(barrier.at(device_id(1)).path_ok);
  ASSERT_TRUE(barrier.at(device_id(1)).first_bad.has_value());
  EXPECT_EQ(barrier.at(device_id(1)).first_bad,
            windowed.at(device_id(1)).first_bad);
  for (const auto& [id, summary] : barrier) {
    if (id == device_id(1)) continue;
    EXPECT_FALSE(summary.convicted()) << id;
    EXPECT_GT(summary.edges, 0u) << id;
  }
}

TEST(IncrementalVerifierTest, PooledWindowIsBitIdenticalToSerial) {
  const IncrementalOptions options = {
      .period = 5,
      .max_devices_per_tick = 3,
      .max_bytes_per_slice = 16 * cfa::LoggedEdge::kWireBytes};
  std::map<std::string, AttestSummary> barrier_serial;
  std::map<std::string, AttestSummary> serial;
  run_identity_scenario(8, options, nullptr, barrier_serial, serial);

  common::ThreadPool pool(4);
  std::map<std::string, AttestSummary> barrier_pooled;
  std::map<std::string, AttestSummary> pooled;
  run_identity_scenario(8, options, &pool, barrier_pooled, pooled);

  EXPECT_EQ(serial, pooled);
  EXPECT_EQ(barrier_serial, barrier_pooled);
  EXPECT_EQ(serial, barrier_serial);
}

// AttestResult::remaining after each bounded attest(dev, k) is exactly
// what the slice left on-device, counting down to 0; and the folded
// slices equal one unbounded attest of an identically driven twin.
TEST(IncrementalVerifierTest, BoundedAttestCountsRemainingDownToZero) {
  Fleet sliced_fleet;
  Fleet twin_fleet;
  provision_fleet(sliced_fleet, 1);
  provision_fleet(twin_fleet, 1);
  DeviceSession& dev = sliced_fleet.at(device_id(0));
  DeviceSession& twin = twin_fleet.at(device_id(0));
  dev.run(600);
  twin.run(600);
  const size_t logged = dev.cfa_monitor()->log_size();
  ASSERT_GT(logged, 10u);
  ASSERT_EQ(twin.cfa_monitor()->log_size(), logged);

  constexpr size_t kSlice = 4;
  AttestSummary sliced;
  size_t left = logged;
  size_t slices = 0;
  while (left > 0 && slices < logged) {
    const VerifierService::AttestResult slice =
        sliced_fleet.verifier().attest(dev, kSlice);
    ASSERT_TRUE(slice.ok()) << "slice " << slices;
    ASSERT_GT(slice.edges, 0u);
    EXPECT_LE(slice.edges, kSlice);
    left -= slice.edges;
    EXPECT_EQ(slice.remaining, left) << "slice " << slices;
    fold(sliced, slice);
    ++slices;
  }
  EXPECT_EQ(left, 0u);
  EXPECT_GT(slices, 1u);
  EXPECT_EQ(dev.cfa_monitor()->log_size(), 0u);

  const VerifierService::AttestResult full = twin_fleet.verifier().attest(twin);
  EXPECT_EQ(full.edges, logged);
  EXPECT_EQ(full.remaining, 0u);
  AttestSummary whole;
  fold(whole, full);
  EXPECT_EQ(sliced, whole);
}

TEST(IncrementalVerifierTest, RotationCoversEveryDeviceAndSkipsOffline) {
  Fleet fleet;
  provision_fleet(fleet, 5);
  fleet.at(device_id(2)).set_online(false);
  IncrementalVerifier windowed(
      fleet, {.period = 10, .max_devices_per_tick = 2,
              .max_bytes_per_slice = 0});
  // Three rounds of two: the cyclic rotation reaches all four online
  // devices and never touches the offline one.
  auto report = windowed.run_until(30);
  ASSERT_EQ(report.rounds.size(), 3u);
  for (const auto& round : report.rounds) {
    EXPECT_LE(round.slices.size(), 2u);
  }
  EXPECT_EQ(entry_for(windowed.summaries(), device_id(2)), AttestSummary{});
  for (size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_GT(entry_for(windowed.summaries(), device_id(i)).edges, 0u)
        << device_id(i);
  }
  // The offline device's log is untouched, waiting for its return.
  EXPECT_GT(fleet.at(device_id(2)).cfa_monitor()->log_size(), 0u);
}

// A decommissioned id deployed again is a new device to the running
// schedulers: the heartbeat scheduler and the windowed verifier each
// re-adopt it with a fresh record, so the old device's conviction and
// counts do not follow the id.
TEST(IncrementalVerifierTest, RedeployedIdRestartsHeartbeatAndWindowRecords) {
  Fleet fleet;
  provision_fleet(fleet, 3);
  HeartbeatScheduler heartbeat(fleet, {.period = 10});
  IncrementalVerifier windowed(
      fleet, {.period = 10, .max_devices_per_tick = 0,
              .max_bytes_per_slice = 0});

  // The first dev-01 convicts in both schedulers' books.
  diverge_out_of_band(fleet, device_id(1));
  heartbeat.run_until(50);
  diverge_out_of_band(fleet, device_id(1));
  windowed.run_until(100);
  ASSERT_TRUE(entry_for(heartbeat.records(), device_id(1)).convicted);
  ASSERT_EQ(entry_for(heartbeat.records(), device_id(1)).heartbeats, 5u);
  ASSERT_TRUE(entry_for(windowed.summaries(), device_id(1)).convicted());

  fleet.decommission(device_id(1));
  DeviceSession& again =
      fleet.provision(device_id(1), firmware(0), "fw",
                      EnforcementPolicy::kCfaBaseline,
                      {.cfa = {.log_capacity = 65536}});
  again.run_to_symbol("halt", 100000);
  const size_t boot_edges = again.cfa_monitor()->log_size();
  ASSERT_GT(boot_edges, 0u);

  // Rounds at 110..150 drain the new device's boot evidence clean.
  windowed.run_until(150);
  const AttestSummary fresh = entry_for(windowed.summaries(), device_id(1));
  EXPECT_FALSE(fresh.convicted());
  EXPECT_EQ(fresh.edges, boot_edges);
  EXPECT_EQ(fresh.device_id, device_id(1));

  // Re-adopted at tick 150: beats at 160..200 only.
  heartbeat.run_until(200);
  const FreshnessRecord record = entry_for(heartbeat.records(), device_id(1));
  EXPECT_FALSE(record.convicted);
  EXPECT_EQ(record.enrolled_tick, 150u);
  EXPECT_EQ(record.heartbeats, 5u);
  EXPECT_EQ(record.last_ok_tick, 200u);
  // The devices that stayed keep their history.
  EXPECT_EQ(entry_for(heartbeat.records(), device_id(0)).heartbeats, 20u);
  EXPECT_EQ(entry_for(heartbeat.records(), device_id(0)).enrolled_tick, 0u);
  EXPECT_EQ(heartbeat.records().size(), 3u);

  // A decommissioned id that is not deployed again leaves both
  // schedulers' books at their next round.
  fleet.decommission(device_id(2));
  windowed.run_until(210);
  heartbeat.run_until(210);
  auto ids = [](const auto& books) {
    std::vector<std::string> out;
    for (const auto& entry : books) out.push_back(entry.device_id);
    return out;
  };
  const std::vector<std::string> kept = {device_id(0), device_id(1)};
  EXPECT_EQ(ids(windowed.summaries()), kept);
  EXPECT_EQ(ids(heartbeat.records()), kept);

  // Churn: devices that come, are windowed and go leave no summaries.
  fleet.decommission(device_id(0));
  fleet.decommission(device_id(1));
  for (size_t i = 0; i < 20; ++i) {
    const std::string id = "churn-" + std::to_string(i);
    fleet.provision(id, firmware(0), "fw", EnforcementPolicy::kCfaBaseline)
        .run_to_symbol("halt", 100000);
    windowed.run_until(fleet.clock().now() + 10);
    EXPECT_EQ(entry_for(windowed.summaries(), id).device_id, id);
    fleet.decommission(id);
  }
  windowed.run_until(fleet.clock().now() + 10);
  heartbeat.run_until(fleet.clock().now());
  EXPECT_TRUE(windowed.summaries().empty());
  EXPECT_TRUE(heartbeat.records().empty());

  // A late deploy with no decommission since both schedulers last ran
  // joins the next window round and the next heartbeat run.
  DeviceSession& late = fleet.provision("late", firmware(0), "fw",
                                        EnforcementPolicy::kCfaBaseline);
  late.run_to_symbol("halt", 100000);
  const size_t late_edges = late.cfa_monitor()->log_size();
  windowed.run_until(fleet.clock().now() + 10);
  heartbeat.run_until(fleet.clock().now());
  EXPECT_EQ(ids(windowed.summaries()), std::vector<std::string>{"late"});
  EXPECT_EQ(entry_for(windowed.summaries(), "late").edges, late_edges);
  EXPECT_EQ(ids(heartbeat.records()), std::vector<std::string>{"late"});
  EXPECT_EQ(entry_for(heartbeat.records(), "late").enrolled_tick,
            fleet.clock().now());
}

// ------------------------------------------------- heartbeat backoff

TEST(HeartbeatBackoffTest, UnreachableDevicesBackOffExponentially) {
  Fleet fleet;
  provision_fleet(fleet, 2);
  fleet.at(device_id(1)).set_online(false);
  HeartbeatScheduler scheduler(fleet,
                               {.period = 10, .max_backoff_exponent = 3});
  // dev-00 beats every 10 ticks. dev-01 misses back off: due at 10,
  // then +20, +40, +80, then capped at +80.
  scheduler.run_until(400);
  const FreshnessRecord offline = entry_for(scheduler.records(), device_id(1));
  EXPECT_EQ(offline.misses, offline.consecutive_misses);
  // Misses at t = 10, 30, 70, 150, 230, 310, 390 -> 7 in 400 ticks;
  // without backoff it would be 40.
  EXPECT_EQ(offline.misses, 7u);
  EXPECT_EQ(offline.next_due, 470u);
  const FreshnessRecord online = entry_for(scheduler.records(), device_id(0));
  EXPECT_EQ(online.heartbeats, 40u);
  EXPECT_EQ(online.consecutive_misses, 0u);

  // The device comes back: one verdict snaps the cadence back to the
  // base period.
  fleet.at(device_id(1)).set_online(true);
  scheduler.run_until(475);
  const FreshnessRecord back = entry_for(scheduler.records(), device_id(1));
  EXPECT_EQ(back.consecutive_misses, 0u);
  EXPECT_EQ(back.next_due, 480u);
  EXPECT_EQ(back.heartbeats, 1u);
}

TEST(HeartbeatBackoffTest, BackoffScheduleIsDeterministicAndPoolInvariant) {
  auto run = [](common::ThreadPool* pool) {
    Fleet fleet;
    provision_fleet(fleet, 8, /*mixed=*/true);
    fleet.at(device_id(0)).set_online(false);
    fleet.at(device_id(3)).set_online(false);
    HeartbeatScheduler scheduler(
        fleet, {.period = 7, .jitter = 5, .max_backoff_exponent = 4});
    HeartbeatReport report = pool == nullptr ? scheduler.run_until(600)
                                             : scheduler.run_until(600, *pool);
    return std::make_pair(std::move(report), scheduler.records());
  };
  auto [report_a, records_a] = run(nullptr);
  auto [report_b, records_b] = run(nullptr);
  EXPECT_EQ(records_a.size(), 5u);  // the mix's CFA devices only
  EXPECT_EQ(report_a, report_b);
  EXPECT_EQ(records_a, records_b);
  common::ThreadPool pool(4);
  auto [report_c, records_c] = run(&pool);
  EXPECT_EQ(report_a, report_c);
  EXPECT_EQ(records_a, records_c);
}

}  // namespace
}  // namespace eilid
