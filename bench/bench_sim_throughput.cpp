// Simulator-core throughput: simulated instructions per wall-clock
// second (MIPS), per enforcement policy, as a THREE-WAY engine oracle:
// interpretive vs superblock pinned per-step (per-instruction dispatch
// from the decoded table, forced by a plain sim::Monitor) vs superblock
// (block-granular dispatch) -- plus a fleet sweep driving
// many devices from a thread pool. This seeds the bench trajectory for
// the hot loop: every future perf PR must beat the table this emits
// (BENCH_sim_throughput.json).
//
// Correctness gates (the bench FAILS on any violation):
//   - per policy, all three arms retire the same instruction count
//     over the same simulated cycles and their retired-instruction
//     traces (from, to, fallthrough per step) have identical
//     fingerprints,
//   - for kCfaBaseline, the attestation verdicts of all three runs are
//     identical (same seq/mac_ok/seq_ok/path_ok/edges/dropped),
//   - the superblock timed run actually dispatched blocks (the fast
//     path engaged; a silently-degraded run would gate green on
//     identity while measuring nothing), and the other two arms did
//     not.
// Wall-clock numbers are reported but not gated (host-dependent); the
// CI regression gate (scripts/check_bench_regression.py) compares the
// emitted superblock speedups against the committed baseline instead.
//
// Usage: bench_sim_throughput [--smoke]   (--smoke: CI-sized workload)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/eilid/fleet.h"
#include "src/sim/monitor.h"

using namespace eilid;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

// Decode-heavy compute kernel: tight ALU loop + calls + RAM traffic,
// running forever (the cycle budget bounds each run). Instrumentable,
// so the same source serves every policy including kEilidHw.
const char* kKernelSource = R"(.org 0xE000
main:
    mov #0x1000, r1
    clr r12
    clr r13
loop:
    mov #8, r11
inner:
    add r11, r12
    xor r12, r13
    rra r13
    swpb r12
    inc r13
    dec r11
    jnz inner
    call #mix
    mov r12, &0x0280
    add &0x0280, r13
    jmp loop
mix:
    push r12
    xor r13, r12
    rra r12
    pop r12
    ret
.vector 15, main
)";

// FNV-1a fingerprint over every (from, to, fallthrough) step tuple.
// Deliberately a wants_step() monitor: attaching it pins the machine
// to per-instruction execution in every arm, so the traced runs
// compare the arms' architectural effects, not their dispatch.
class TraceFingerprint : public sim::Monitor {
 public:
  void on_step(uint16_t from_pc, uint16_t to_pc, uint16_t fallthrough) override {
    mix(from_pc);
    mix(to_pc);
    mix(fallthrough);
    ++steps_;
  }
  uint64_t hash() const { return hash_; }
  uint64_t steps() const { return steps_; }

 private:
  void mix(uint16_t v) {
    hash_ ^= v;
    hash_ *= 0x100000001b3ull;
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;
  uint64_t steps_ = 0;
};

constexpr EnforcementPolicy kPolicies[] = {
    EnforcementPolicy::kNone, EnforcementPolicy::kCasu,
    EnforcementPolicy::kCfaBaseline, EnforcementPolicy::kEilidHw};

// The oracle's three arms: the interpretive reference, superblock
// pinned to per-instruction dispatch from the decoded table, and
// superblock.
struct Arm {
  ExecutionEngine engine;
  bool per_step;  // attach step_pin
  const char* name;
};
constexpr Arm kArms[] = {
    {ExecutionEngine::kInterpretive, false, "interpretive"},
    {ExecutionEngine::kSuperblock, true, "superblock-per-step"},
    {ExecutionEngine::kSuperblock, false, "superblock"},
};

sim::Monitor step_pin;  // wants_step(): pins per-instruction dispatch

struct ModeRun {
  double wall_ms = 0;
  uint64_t instructions = 0;
  uint64_t sim_cycles = 0;
  uint64_t blocks = 0;  // superblocks dispatched in the timed run
  uint64_t trace_hash = 0;
  uint64_t trace_steps = 0;
  std::string verdict;  // kCfaBaseline only
  double mips() const {
    return wall_ms > 0 ? static_cast<double>(instructions) / (wall_ms * 1e3)
                       : 0.0;
  }
};

std::string verdict_fingerprint(const VerifierService::AttestResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%d|%u|%llu|%d|%d|%d|%zu|%u", r.attested,
                r.seq, static_cast<unsigned long long>(r.cycle), r.mac_ok,
                r.seq_ok, r.path_ok, r.edges, r.dropped);
  return buf;
}

// One (policy, arm) measurement: a timed run without tracing, then a
// short traced run for the cross-arm fingerprint gate.
ModeRun run_mode(Fleet& fleet, std::shared_ptr<const core::BuildResult> build,
                 EnforcementPolicy policy, const Arm& arm,
                 uint64_t timed_cycles, uint64_t traced_cycles, int* serial) {
  auto deploy = [&](const char* kind) -> DeviceSession& {
    DeviceSession& dev = fleet.deploy(
        std::string(enforcement_policy_name(policy)) + "-" + kind + "-" +
            arm.name + "-" + std::to_string((*serial)++),
        build, policy,
        {.cfa = {.log_capacity = 1 << 12}, .engine = arm.engine});
    if (arm.per_step) dev.machine().add_monitor(&step_pin);
    return dev;
  };
  ModeRun out;
  {
    DeviceSession& dev = deploy("timed");
    auto t0 = clock_type::now();
    dev.run(timed_cycles);
    out.wall_ms = ms_since(t0);
    out.instructions = dev.machine().cpu().instructions_retired();
    out.sim_cycles = dev.machine().cycles();
    out.blocks = dev.machine().blocks_executed();
    if (policy == EnforcementPolicy::kCfaBaseline) {
      out.verdict = verdict_fingerprint(fleet.verifier().attest(dev));
    }
  }
  {
    DeviceSession& dev = deploy("traced");
    TraceFingerprint trace;
    dev.machine().add_monitor(&trace);
    dev.run(traced_cycles);
    out.trace_hash = trace.hash();
    out.trace_steps = trace.steps();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const uint64_t timed_cycles = smoke ? 2'000'000 : 40'000'000;
  const uint64_t traced_cycles = smoke ? 500'000 : 2'000'000;
  const size_t fleet_devices = smoke ? 32 : 256;
  const size_t fleet_threads = 8;
  const uint64_t fleet_cycles = smoke ? 500'000 : 4'000'000;

  Fleet fleet;
  auto plain = fleet.build(kKernelSource, "spin_kernel", {.eilid = false});
  auto instrumented = fleet.build(kKernelSource, "spin_kernel", {.eilid = true});

  std::printf("Simulator core throughput (%s: %llu cycles/run)\n\n",
              smoke ? "smoke" : "full",
              static_cast<unsigned long long>(timed_cycles));
  std::printf("%-13s | %-11s | %-11s | %-8s | %-6s | %s\n", "policy",
              "interp MIPS", "superb MIPS", "blk x", "trace", "verdict");
  for (int i = 0; i < 69; ++i) std::putchar('-');
  std::putchar('\n');

  bool ok = true;
  int serial = 0;
  std::string policy_json;
  for (EnforcementPolicy policy : kPolicies) {
    auto build = policy == EnforcementPolicy::kEilidHw ? instrumented : plain;
    ModeRun runs[3];
    for (size_t e = 0; e < 3; ++e) {
      runs[e] = run_mode(fleet, build, policy, kArms[e], timed_cycles,
                         traced_cycles, &serial);
    }
    const ModeRun& interp = runs[0];
    const ModeRun& pinned = runs[1];
    const ModeRun& superb = runs[2];

    bool trace_ok = true;
    bool verdict_ok = true;
    for (const ModeRun& r : {pinned, superb}) {
      trace_ok = trace_ok && r.trace_hash == interp.trace_hash &&
                 r.trace_steps == interp.trace_steps &&
                 r.instructions == interp.instructions &&
                 r.sim_cycles == interp.sim_cycles;
      verdict_ok = verdict_ok && r.verdict == interp.verdict;
    }
    // The superblock run must actually have engaged block dispatch
    // (and the other two arms must not have).
    const bool engaged_ok =
        superb.blocks > 0 && interp.blocks == 0 && pinned.blocks == 0;
    ok = ok && trace_ok && verdict_ok && engaged_ok;
    if (!engaged_ok) {
      std::printf("  !! %s: block dispatch engagement wrong "
                  "(interp %llu, per-step %llu, superblock %llu blocks)\n",
                  std::string(enforcement_policy_name(policy)).c_str(),
                  static_cast<unsigned long long>(interp.blocks),
                  static_cast<unsigned long long>(pinned.blocks),
                  static_cast<unsigned long long>(superb.blocks));
    }

    const double blk_speedup =
        interp.mips() > 0 ? superb.mips() / interp.mips() : 0.0;
    std::printf("%-13s | %11.1f | %11.1f | %7.2fx | %-6s | %s\n",
                std::string(enforcement_policy_name(policy)).c_str(),
                interp.mips(), superb.mips(), blk_speedup,
                trace_ok ? "same" : "DIFFER", verdict_ok ? "same" : "DIFFER");

    char row[640];
    std::snprintf(
        row, sizeof(row),
        "    {\"policy\": \"%s\", \"instructions\": %llu, \"sim_cycles\": "
        "%llu, \"mips_interpretive\": %.1f, \"mips_superblock\": %.1f, "
        "\"speedup_superblock\": %.2f, \"blocks\": %llu, "
        "\"trace_identical\": %s, \"verdict_identical\": %s},\n",
        std::string(enforcement_policy_name(policy)).c_str(),
        static_cast<unsigned long long>(superb.instructions),
        static_cast<unsigned long long>(superb.sim_cycles), interp.mips(),
        superb.mips(), blk_speedup,
        static_cast<unsigned long long>(superb.blocks),
        trace_ok ? "true" : "false", verdict_ok ? "true" : "false");
    policy_json += row;
  }
  if (!policy_json.empty()) policy_json.resize(policy_json.size() - 2);

  // --- fleet sweep: N devices, shared builds, pooled drive ----------
  // Deployed with default SessionOptions, i.e. the superblock engine:
  // the sweep measures the shipping configuration.
  std::vector<DeviceSession*> devices;
  devices.reserve(fleet_devices);
  for (size_t i = 0; i < fleet_devices; ++i) {
    EnforcementPolicy policy = kPolicies[i % 4];
    auto build = policy == EnforcementPolicy::kEilidHw ? instrumented : plain;
    devices.push_back(&fleet.deploy("fleet-" + std::to_string(i), build, policy,
                                    {.cfa = {.log_capacity = 1 << 12}}));
  }
  common::ThreadPool pool(fleet_threads);
  auto tf = clock_type::now();
  pool.parallel_for(devices.size(), [&](size_t i) {
    std::lock_guard<std::mutex> lock(devices[i]->mutex());
    devices[i]->run(fleet_cycles);
  });
  double fleet_ms = ms_since(tf);
  uint64_t fleet_instructions = 0;
  for (DeviceSession* dev : devices) {
    fleet_instructions += dev->machine().cpu().instructions_retired();
  }
  double fleet_mips =
      fleet_ms > 0 ? static_cast<double>(fleet_instructions) / (fleet_ms * 1e3)
                   : 0.0;
  std::printf("\nfleet sweep: %zu devices x %llu cycles on %zu threads: "
              "%.1f ms, aggregate %.1f MIPS\n",
              fleet_devices, static_cast<unsigned long long>(fleet_cycles),
              fleet_threads, fleet_ms, fleet_mips);

  FILE* json = std::fopen("BENCH_sim_throughput.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"sim_throughput\",\n  \"mode\": \"%s\",\n"
                 "  \"cycles_per_run\": %llu,\n  \"policies\": [\n%s\n  ],\n"
                 "  \"fleet\": {\"devices\": %zu, \"threads\": %zu, "
                 "\"cycles_per_device\": %llu, \"wall_ms\": %.1f, "
                 "\"aggregate_mips\": %.1f},\n  \"ok\": %s\n}\n",
                 smoke ? "smoke" : "full",
                 static_cast<unsigned long long>(timed_cycles), policy_json.c_str(),
                 fleet_devices, fleet_threads,
                 static_cast<unsigned long long>(fleet_cycles), fleet_ms,
                 fleet_mips, ok ? "true" : "false");
    std::fclose(json);
  }

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
