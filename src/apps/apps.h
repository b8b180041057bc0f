// The seven evaluation workloads from the paper's Table IV, hand-ported
// to MSP430 assembly (the originals are tiny Arduino/LaunchPad C
// sketches; the instrumenter operates on assembly either way):
//
//   light_sensor       Seeed LaunchPad kit: ADC sampling + LED + UART
//   ultrasonic_ranger  Seeed LaunchPad kit: HC-SR04 ranging
//   fire_sensor        Seeed LaunchPad kit: flame+temp fusion, alarm
//   syringe_pump       OpenSyringePump: UART commands, stepper motor,
//                      *indirect dispatch through function pointers*
//   temp_sensor        ticepd/msp430-examples: conversion + min/max
//   charlieplexing     ticepd/msp430-examples: 6-LED multiplexing
//   lcd_sensor         ticepd/msp430-examples: HD44780 text output
//
// Each app boots at `main` (reset vector), performs a fixed bounded
// workload and parks at the `halt` label, which benchmarks use as the
// completion breakpoint. Stimulus (ADC series, UART input, distances)
// is installed by `setup` and is deterministic.
#ifndef EILID_APPS_APPS_H
#define EILID_APPS_APPS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "eilid/rollout.h"
#include "eilid/session.h"
#include "sim/machine.h"

namespace eilid::apps {

struct AppSpec {
  std::string name;
  std::string source;                 // complete MSP430 assembly
  void (*setup)(sim::Machine&);       // install peripheral stimulus
  uint64_t cycle_budget;              // generous bound for the workload
  // A host check that the app did its job (used by integration tests);
  // returns an empty string on success, else a failure description.
  std::string (*check)(sim::Machine&);
};

// The seven Table IV workloads, in the paper's order.
const std::vector<AppSpec>& table4_apps();

// Lookup by name; throws eilid::ConfigError if unknown.
const AppSpec& app_by_name(const std::string& name);

// The deliberately vulnerable UART gateway used by the attack demos
// (stack overflow in recv_packet, function pointer in RAM).
const AppSpec& vuln_gateway();

// --- Fleet-session workload runner ---------------------------------
// Outcome of running one AppSpec workload on a provisioned session.
struct WorkloadOutcome {
  bool reached_halt = false;
  uint64_t cycles = 0;        // cycles consumed by this run
  size_t violations = 0;      // enforcement resets observed
  std::string last_reset;     // "" when the device never enforced
  std::string check_failure;  // "" when the app's host check passed
};

// Install the app's stimulus on the session's machine, run to the
// `halt` label and apply the app's host check. `cycle_budget` of 0
// uses 8x the spec's budget (room for instrumented builds).
WorkloadOutcome run_workload(DeviceSession& session, const AppSpec& app,
                             uint64_t cycle_budget = 0);

// One unit of fleet-wide work: run `app` on `session`.
struct FleetWorkload {
  DeviceSession* session = nullptr;
  const AppSpec* app = nullptr;
  uint64_t cycle_budget = 0;  // 0: 8x the spec's budget
};

// Drive a whole fleet over `pool` (sessions must be distinct), each
// session locked via DeviceSession::mutex() for the duration so a
// concurrent attestation sweep never observes a device mid-run. The
// serial pool runs the items in input order; either way outcomes are
// returned in input order, and the first exception any workload
// throws is rethrown.
std::vector<WorkloadOutcome> run_workload_all(
    const std::vector<FleetWorkload>& items,
    common::ThreadPool& pool = common::ThreadPool::serial());

// Rollout-wave probe: drives `app` on every device of a wave between
// the wave's apply and its attestation gate, so freshly updated
// devices produce post-update evidence for the gate to judge. Runs
// the wave through run_workload_all() over the scheduler's pool, so
// each session's mutex() is held while it is driven (per the
// WaveProbe contract). The spec is copied into the probe, so a
// temporary AppSpec is safe to pass.
eilid::WaveProbe wave_workload(const AppSpec& app, uint64_t cycle_budget = 0);

}  // namespace eilid::apps

#endif  // EILID_APPS_APPS_H
