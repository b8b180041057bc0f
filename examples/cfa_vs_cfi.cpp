// The paper's motivating comparison, executable: a control-flow
// attestation (CFA) device detects a hijack only when the verifier
// next attests -- after the malicious code already ran -- while the
// EILID device prevents the hijack outright. Uses the same exploit on
// both fleet devices; the fleet's VerifierService owns the CFA
// device's key, nonces and replay state.
#include <cstdio>

#include "src/apps/apps.h"
#include "src/attacks/attack.h"
#include "src/eilid/fleet.h"

using namespace eilid;

int main() {
  const auto& app = apps::vuln_gateway();
  Fleet fleet;

  // --- CFA device: unprotected app + logging monitor + verifier. ---
  // Generous on-device log so no evidence is lost to overflow (with the
  // default 256-edge log the hijack edge is dropped before the first
  // report).
  DeviceSession& cfa_device =
      fleet.provision("gw-cfa", app.source, app.name,
                      EnforcementPolicy::kCfaBaseline,
                      {.cfa = {.log_capacity = 8192}});

  cfa_device.machine().uart().feed(
      attacks::overflow_ret_payload(cfa_device.symbol("unlock")));

  std::printf("== CFA device ==\n");
  bool detected = false;
  for (int window = 0; window < 8 && !detected; ++window) {
    cfa_device.run(25000);  // attestation window
    bool hijack_visible =
        cfa_device.machine().uart().tx_text().find('U') != std::string::npos;
    auto result = fleet.verifier().attest(cfa_device);
    std::printf("  window %d: %4zu edges logged, hijack already ran: %-3s, "
                "verifier says: %s\n",
                window, result.edges, hijack_visible ? "YES" : "no",
                result.path_ok ? "path ok" : "PATH VIOLATION");
    if (!result.path_ok) {
      detected = true;
      std::printf("  -> bad edge 0x%04x -> 0x%04x reported %llu cycles into "
                  "the run; the attacker's code finished long before.\n",
                  result.first_bad->from, result.first_bad->to,
                  static_cast<unsigned long long>(result.cycle));
    }
  }

  // --- EILID device: same exploit. ---
  std::printf("\n== EILID device ==\n");
  DeviceSession& eilid_device =
      fleet.provision("gw-eilid", app.source, app.name,
                      EnforcementPolicy::kEilidHw, {.halt_on_reset = true});
  eilid_device.machine().uart().feed(
      attacks::overflow_ret_payload(eilid_device.symbol("unlock")));
  eilid_device.run_to_symbol("halt", 200000);
  bool hijacked =
      eilid_device.machine().uart().tx_text().find('U') != std::string::npos;
  std::printf("  hijack ran: %s; device reset: %s\n", hijacked ? "YES" : "no",
              eilid_device.violation_count()
                  ? eilid_device.last_reset_reason().c_str()
                  : "none");
  std::printf(
      "\nCFA is after-the-fact evidence; EILID is a real-time countermeasure\n"
      "-- the exact gap the paper sets out to close (§I).\n");
  return 0;
}
