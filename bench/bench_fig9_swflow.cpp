// Reproduces Fig. 9: the EILIDsw software flow (non-secure -> entry ->
// body -> leave -> non-secure) and the shadow-stack layout, traced
// from an actual simulated secure-state round trip.
#include <cstdio>

#include "src/common/hex.h"
#include "src/eilid/fleet.h"
#include "src/eilid/inspect.h"
#include "src/sim/monitor.h"

using namespace eilid;

namespace {

// Captures every PC the device fetches, annotated by ROM section. It
// keeps the default wants_step() (true): section changes inside one
// predecoded range are only visible with a hook on every fetch.
class FlowTracer : public sim::Monitor {
 public:
  FlowTracer(const core::RomInfo& rom) : rom_(rom) {}

  bool on_fetch(uint16_t pc, uint16_t prev_pc) override {
    (void)prev_pc;
    const char* section = "app";
    if (pc >= rom_.entry_start && pc <= rom_.entry_end) {
      section = "entry";
    } else if (pc >= rom_.leave_start && pc <= rom_.leave_end) {
      section = "leave";
    } else if (pc >= sim::kRomStart && pc <= sim::kRomEnd) {
      section = "body";
    }
    if (section != last_section_) {
      transitions_.push_back({pc, section});
      last_section_ = section;
    }
    return true;
  }

  struct Transition {
    uint16_t pc;
    const char* section;
  };
  const std::vector<Transition>& transitions() const { return transitions_; }

 private:
  const core::RomInfo& rom_;
  const char* last_section_ = "";
  std::vector<Transition> transitions_;
};

const char* kApp = R"(.org 0xe000
main:
    mov #0x1000, r1
    call #foo
    call #foo
halt:
    jmp halt
foo:
    ret
.vector 15, main
.end
)";

}  // namespace

int main() {
  Fleet fleet;
  DeviceSession& device =
      fleet.provision("flow", kApp, "flow", EnforcementPolicy::kEilidHw);
  const core::BuildResult& build = device.build();
  FlowTracer tracer(build.rom);
  device.machine().add_monitor(&tracer);

  device.run_to_symbol("halt", 10000);

  std::printf("Fig. 9(a): EILID software flow (one store_ra round trip):\n");
  int shown = 0;
  for (const auto& t : tracer.transitions()) {
    std::printf("  %-5s @ %s\n", t.section, hex16(t.pc).c_str());
    if (++shown == 9) break;  // app -> entry -> body -> leave -> app x2
  }

  core::ShadowInspector inspector(device);
  std::printf("\nFig. 9(b): shadow-stack layout after both calls returned:\n");
  std::printf("  base %s, index register r5 = %u (stack empty again)\n",
              hex16(build.rom.config.shadow_base_addr()).c_str(),
              inspector.depth());
  std::printf("  slot addressing: base + 2*r5 (r5 increments on store, "
              "decrements on check)\n");
  std::printf("  device resets observed: %zu (must be 0)\n",
              device.violation_count());
  return device.violation_count() == 0 ? 0 : 1;
}
