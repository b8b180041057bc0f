// Self-checking differential harness: ties the program generator and
// the attack mutators to the three oracles the stack gives away for
// free --
//
//   1. engine identity: every generated program, run under every
//      enforcement policy, must produce bit-identical final state
//      (registers, cycles, retired count, resets, RAM) and, where a
//      CFA monitor is present, bit-identical attestation evidence
//      (edges, drop count, cycle, MAC) across kInterpretive,
//      kSuperblock pinned per-step (a plain sim::Monitor) and kSuperblock;
//   2. sweep identity: a pooled VerifierService sweep over a cohort
//      must return verdict-for-verdict the same results as a serial
//      sweep over an identical cohort;
//   3. convict-or-refuse: every mutated case -- a diverted jump, a
//      gadget-repointed dispatch table, a tampered report, a
//      bit-flipped package, a corrupted chunk stream -- must be
//      convicted by CFA replay, refused by EILID's run-time checks, or
//      refused by MAC/structure validation. An attack that sails
//      through is a fuzzer failure.
//
// Reproduce-and-minimize workflow: run() prints each failing seed to
// stderr as it happens; check_program(seed)/check_mutation(seed)
// replay exactly one case; shrink() greedily walks shrink_candidates()
// while the failure predicate keeps reproducing, yielding the minimal
// spec a regression test commits (tests/test_fuzz_regressions.cpp).
#ifndef EILID_FUZZ_HARNESS_H
#define EILID_FUZZ_HARNESS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/attack_mutator.h"
#include "fuzz/program_generator.h"

namespace eilid::fuzz {

struct HarnessOptions {
  uint64_t seed = 1;
  int programs = 24;   // seeds fed to check_program
  int mutations = 16;  // seeds fed to check_mutation (each seed runs
                       // every applicable mutation family)
  // Cycle budget for a benign run (scaled 4x for instrumented builds).
  // Generated programs terminate well under this; exhausting it is
  // itself a failure (a program that escaped the termination rules).
  uint64_t benign_budget = 2'000'000;
  // Cycle budget for a mutated run, which may legitimately never halt
  // (diverted control flow can spin); the evidence gathered up to the
  // budget must convict regardless.
  uint64_t mutated_budget = 400'000;
  GeneratorOptions generator;
};

struct HarnessReport {
  int programs = 0;        // generated programs checked
  int engine_runs = 0;     // engine x policy benign runs executed
  int mutation_cases = 0;  // mutated cases checked
  int convicted = 0;       // mutated cases convicted by CFA replay
  int refused = 0;         // mutated cases refused up front (EILID
                           // check, MAC, parse, transport)
  std::vector<std::string> failures;  // "seed 0x...: what diverged"

  bool ok() const { return failures.empty(); }
};

class DifferentialHarness {
 public:
  explicit DifferentialHarness(HarnessOptions options = {})
      : options_(options) {}

  // One generated program through oracles 1 and 2. Failures append to
  // report.failures; exceptions are caught and recorded as failures.
  void check_program(uint64_t seed, HarnessReport& report);

  // One generated program through every applicable mutation family
  // (oracle 3).
  void check_mutation(uint64_t seed, HarnessReport& report);

  // The full sweep per options, printing each failing seed to stderr
  // the moment it fails (the reproduce handle survives a crash later
  // in the run).
  HarnessReport run();

  // Greedy spec minimization: repeatedly adopt the first one-step
  // shrink for which `reproduces` still holds, until none does.
  ProgramSpec shrink(
      ProgramSpec spec,
      const std::function<bool(const ProgramSpec&)>& reproduces) const;

 private:
  HarnessOptions options_;
};

}  // namespace eilid::fuzz

#endif  // EILID_FUZZ_HARNESS_H
