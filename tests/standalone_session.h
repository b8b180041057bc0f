// One standalone DeviceSession for the single-device suites. The
// enforcement policy follows the build: kEilidHw when it carries the
// EILIDsw ROM (an instrumented build), kCasu otherwise. With
// halt_on_reset, run() stops at the first enforcement reset.
#ifndef EILID_TESTS_STANDALONE_SESSION_H
#define EILID_TESTS_STANDALONE_SESSION_H

#include <memory>

#include "eilid/pipeline.h"
#include "eilid/session.h"

namespace eilid {

inline EnforcementPolicy standalone_policy(const core::BuildResult& build) {
  return build.rom.unit.image.size_bytes() != 0 ? EnforcementPolicy::kEilidHw
                                                : EnforcementPolicy::kCasu;
}

inline DeviceSession standalone_session(const core::BuildResult& build,
                                        bool halt_on_reset = false) {
  SessionOptions options;
  options.halt_on_reset = halt_on_reset;
  return DeviceSession("device",
                       std::make_shared<const core::BuildResult>(build),
                       standalone_policy(build), options);
}

}  // namespace eilid

#endif  // EILID_TESTS_STANDALONE_SESSION_H
