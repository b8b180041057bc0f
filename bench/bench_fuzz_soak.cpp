// Scenario-fuzzer soak: generative workloads + attack mutators through
// the differential harness (src/fuzz/harness.h). Every generated
// program runs under all four enforcement policies x all three
// execution engines demanding bit-identical state and attestation
// evidence, pooled-vs-serial verifier sweeps must agree verdict for
// verdict, and every mutated case (diverted jumps, gadget-repointed
// dispatch tables, tampered reports, bit-flipped packages, corrupted
// chunk streams) must be convicted or refused. Any divergence FAILS
// the bench and prints the reproducing seed on stderr.
//
// Reproduce a failure:
//   bench_fuzz_soak --seed 0x<printed seed> --programs 1 --mutations 1
// then minimize it with DifferentialHarness::shrink (see
// tests/test_fuzz_regressions.cpp for pinned examples).
//
// Usage: bench_fuzz_soak [--seed N] [--programs N] [--mutations N]
//   The default is the local soak (2000 programs, 64 mutation seeds).
//   The CI-sized corpus runs in ctest, with exact counts, as
//   DifferentialCorpus.SmokeCorpusCountsAreExact (tests/test_fuzz.cpp).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/fuzz/harness.h"

using namespace eilid;

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::HarnessOptions options;
  options.programs = 2000;
  options.mutations = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      options.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--programs") == 0 && i + 1 < argc) {
      options.programs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--mutations") == 0 && i + 1 < argc) {
      options.mutations = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--programs N] [--mutations N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("Scenario-fuzzer soak (%d programs, %d mutation seeds, "
              "base seed 0x%llx)\n",
              options.programs, options.mutations,
              static_cast<unsigned long long>(options.seed));

  fuzz::DifferentialHarness harness(options);
  const auto t0 = clock_type::now();
  const fuzz::HarnessReport report = harness.run();
  const double wall_ms = ms_since(t0);

  std::printf("\n%-28s %d\n", "programs checked", report.programs);
  std::printf("%-28s %d\n", "engine x policy runs", report.engine_runs);
  std::printf("%-28s %d\n", "mutated cases", report.mutation_cases);
  std::printf("%-28s %d\n", "  convicted by CFA replay", report.convicted);
  std::printf("%-28s %d\n", "  refused up front", report.refused);
  std::printf("%-28s %zu\n", "divergences", report.failures.size());
  std::printf("%-28s %.1f ms\n", "wall clock", wall_ms);

  if (!report.ok()) {
    std::fprintf(stderr,
                 "\nreproduce: bench_fuzz_soak --seed <failing seed above> "
                 "--programs 1 --mutations 1\n");
  }
  std::printf("%s\n", report.ok() ? "OK" : "FAILED");
  return report.ok() ? 0 : 1;
}
