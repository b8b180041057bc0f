// Exception hierarchy shared by all EILID modules.
//
// Toolchain-facing errors (assembler syntax errors, instrumenter
// failures, configuration mistakes) are reported with exceptions, per
// E.2: they are programmer/user errors that cannot be handled locally.
// Simulated-device outcomes (CPU resets, monitor violations) are NOT
// exceptions -- they are ordinary values (see sim::ResetReason), because
// a device reset is expected behaviour, not an error in the host program.
#ifndef EILID_COMMON_ERROR_H
#define EILID_COMMON_ERROR_H

#include <stdexcept>
#include <string>

namespace eilid {

// Root of the EILID exception hierarchy.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Malformed assembly source: unknown mnemonic, bad operand, duplicate
// label, value out of range, etc. Carries file/line context.
class AsmError : public Error {
 public:
  AsmError(std::string file, int line, const std::string& message)
      : Error(file + ":" + std::to_string(line) + ": " + message),
        file_(std::move(file)),
        line_(line) {}

  const std::string& file() const { return file_; }
  int line() const { return line_; }

 private:
  std::string file_;
  int line_;
};

// Linker/image-builder errors: overlapping sections, image too large,
// undefined symbols at link time.
class LinkError : public Error {
 public:
  explicit LinkError(const std::string& what) : Error(what) {}
};

// Instrumenter errors: unresolvable call target, reserved-register
// conflict that cannot be spilled, shadow-stack budget exceeded.
class InstrumentError : public Error {
 public:
  explicit InstrumentError(const std::string& what) : Error(what) {}
};

// Misuse of a simulator/monitor API by the host program (not by the
// simulated software): invalid memory map, bad configuration.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

// Misuse of the Fleet/session facade: duplicate or unknown device ids,
// a policy/build mismatch (e.g. kEilidHw on an uninstrumented build),
// enrolling a session that carries no attestation monitor or whose
// build has no CFG. Derives from ConfigError: facade misuse is a
// configuration error, so code catching ConfigError sees it too.
class FleetError : public ConfigError {
 public:
  explicit FleetError(const std::string& what) : ConfigError(what) {}
};

}  // namespace eilid

#endif  // EILID_COMMON_ERROR_H
