// Control-flow attestation baseline (hardware-logged, LO-FAT/ACFA
// style): a bus monitor records every non-sequential control transfer;
// on a verifier challenge the device emits an HMAC'd log slice. This
// is the comparison point for the paper's core argument (§II-C): CFA
// *detects* hijacks only at the next attestation, while EILID
// *prevents* them in real time.
#ifndef EILID_CFA_ATTESTATION_H
#define EILID_CFA_ATTESTATION_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cfa/cfg.h"
#include "crypto/hmac.h"
#include "sim/bus.h"
#include "sim/monitor.h"

namespace eilid::cfa {

struct LoggedEdge {
  uint16_t from = 0;
  uint16_t to = 0;
  bool irq = false;     // asynchronous interrupt entry
  bool reset = false;   // device reset marker (execution restarts)
  bool update = false;  // authenticated update applied (code epoch
                        // boundary: the CFG changes here)

  // Serialized size of one edge record inside a MAC'd report: from,
  // to, and one flags byte (irq | reset | update). The single source
  // of truth for the wire format -- mac_report() and total_log_bytes()
  // both derive from it.
  static constexpr size_t kWireBytes = 5;

  bool operator==(const LoggedEdge&) const = default;
};

struct Report {
  uint32_t seq = 0;
  uint64_t cycle = 0;            // device cycle at emission
  uint32_t dropped = 0;          // edges lost to log overflow
  std::vector<LoggedEdge> edges;
  crypto::Digest mac{};
};

struct CfaConfig {
  size_t log_capacity = 256;  // edges held on-device between reports
};

// The on-device half: logging monitor + report generation. Needs no
// bus reference: control transfers are detected from the fall-through
// address the machine already decoded (see on_step).
class CfaMonitor : public sim::Monitor {
 public:
  explicit CfaMonitor(const crypto::Digest& key, CfaConfig config = {})
      : config_(config), key_(key) {}

  // sim::Monitor. Note: the log *survives* device resets (ACFA keeps
  // the log slice in attested memory so that evidence of the pre-reset
  // path is preserved); a reset marker edge is appended instead.
  // Block-granular: the monitor consumes only the control-transfer
  // notification (sequential steps carry no evidence), so it never
  // claims wants_step() and CFA-policed devices run full superblock
  // dispatch -- the machine fires on_control_transfer exactly when
  // to_pc != fallthrough under every engine, so the logged edge stream
  // and the MACs over it are bit-identical across engines.
  bool wants_step() const override { return false; }
  void on_control_transfer(uint16_t from_pc, uint16_t to_pc,
                           uint16_t fallthrough) override;
  // The k identical edges of a marked loop the core retired at once
  // (a counted delay loop or a peripheral poll loop; sim/monitor.h),
  // appended in bulk under the same full-log rule as a single edge.
  void on_repeated_transfer(uint16_t from_pc, uint16_t to_pc,
                            uint16_t fallthrough, uint32_t count) override;
  void on_interrupt(int vector_index, uint16_t from_pc, uint16_t to_pc) override;
  void on_device_reset() override;

  // Called by the device's update path right after an authenticated
  // update lands: the code epoch changes at exactly this point in the
  // evidence stream, so the verifier knows where to swap replay CFGs.
  // The marker is an ordinary logged edge, MAC'd with the rest of the
  // evidence -- a device cannot splice an epoch boundary in or out
  // without failing authentication.
  void on_update_applied();

  // Verifier challenge: drain the log (oldest first) into a MAC'd
  // report. `max_edges` bounds the slice -- 0 drains everything (the
  // barrier sweep); a bounded drain leaves the remainder for the next
  // slice, in order, so a sequence of bounded reports carries exactly
  // the evidence one unbounded report would (ACFA-style slices sized
  // to verifier memory; see eilid::IncrementalVerifier). Pending
  // overflow drops are reported on the first slice that drains them.
  Report take_report(uint64_t nonce, uint64_t device_cycle,
                     size_t max_edges = 0);
  // The same drain into `out`, whose edge storage is reused: a caller
  // judging many reports keeps one buffer instead of first-touching a
  // fresh multi-page allocation per report.
  void take_report(uint64_t nonce, uint64_t device_cycle, size_t max_edges,
                   Report& out);

  size_t log_size() const { return count_; }
  uint64_t total_edges() const { return total_edges_; }
  // Resident bytes of the log's storage arena (active + recycled
  // chunks). The arena grows in chunk steps up to the configured
  // capacity's worth of edges and is recycled -- never freed and
  // re-grown -- across reports, so long soaks stop allocating once the
  // high-water mark is reached. This is the CFA share of a device's
  // resident_memory_bytes().
  uint64_t total_log_bytes() const {
    return (chunks_.size() + free_chunks_.size()) * kChunkEdges *
           sizeof(LoggedEdge);
  }

  // MAC over the challenge nonce, every header field the verifier
  // consumes (seq, cycle, dropped) and the edge records. `report.mac`
  // itself is not an input. Covering cycle/dropped matters: an
  // attacker who can rewrite either in transit could backdate
  // evidence or hide log overflow without touching the edge stream.
  static crypto::Digest mac_report(const crypto::HmacKey& key, uint64_t nonce,
                                   const Report& report);

 private:
  // Chunked FIFO arena replacing the old per-device edge vector: edges
  // append into fixed 256-edge chunks, bounded drains consume from the
  // front, and spent chunks recycle through a free list. No per-edge
  // reallocation/copy as the log grows, and take_report no longer
  // surrenders the backing storage (the old move-out re-grew the
  // vector from scratch every attestation period).
  static constexpr size_t kChunkEdges = 256;

  // The one full-log rule: append `count` copies of `edge` while the
  // log holds fewer than log_capacity edges, count the rest in
  // dropped_, and count all of them in total_edges_.
  void log_edges(LoggedEdge edge, uint32_t count);
  void log_edge(LoggedEdge edge) { log_edges(edge, 1); }
  LoggedEdge* grow_chunk();

  // The logging state every control transfer touches comes first; the
  // key is read once per report.
  CfaConfig config_;
  std::vector<std::unique_ptr<LoggedEdge[]>> chunks_;  // live FIFO, in order
  std::vector<std::unique_ptr<LoggedEdge[]>> free_chunks_;
  size_t head_ = 0;   // index of the oldest live edge within chunks_[0]
  size_t count_ = 0;  // live edges across chunks_
  uint32_t dropped_ = 0;
  uint32_t seq_ = 0;
  uint64_t total_edges_ = 0;
  crypto::HmacKey key_;
};

// The verifier half: MAC check + stateful path replay against the CFG.
class CfaVerifier {
 public:
  struct Result {
    bool mac_ok = false;
    bool path_ok = false;
    std::optional<LoggedEdge> first_bad;
  };

  CfaVerifier(Cfg cfg, const crypto::Digest& key)
      : CfaVerifier(std::make_shared<const Cfg>(std::move(cfg)), key) {}
  // Fleet-scale form: N verifiers replaying against one shared
  // (immutable) CFG, extracted once per build instead of once per
  // device.
  CfaVerifier(std::shared_ptr<const Cfg> cfg, const crypto::Digest& key)
      : cfg_(std::move(cfg)), key_(key) {}

  // Verify the next report in sequence. Replay state (call stack,
  // interrupt frames) persists across reports.
  Result verify(const Report& report, uint64_t nonce);

  // Bound on replay state, in device stack words: a call pushes one
  // return word and an interrupt entry two (PC and SR), as on the
  // device, whose whole 64 KiB address space holds 32768 words.
  // Evidence nesting deeper than that cannot come from a real device;
  // the edge that would exceed it fails the path check (first_bad), so
  // adversarial evidence costs the verifier bounded memory.
  static constexpr size_t kMaxStackWords = 0x10000 / 2;

  // Discard replay state (stacks and staged epoch swaps). The current
  // CFG is kept: it reflects what code the device runs now, which a
  // replay restart does not change.
  void reset_replay();

  // Stage a CFG swap that takes effect when replay reaches the next
  // update-marker edge in the evidence stream (FIFO when several are
  // staged): edges before the marker keep replaying against the
  // current CFG, edges after it against `cfg`. An update marker with
  // no staged CFG is an *unsanctioned* code change and fails the
  // path check.
  void queue_cfg_swap(std::shared_ptr<const Cfg> cfg);
  size_t pending_cfg_swaps() const { return pending_cfgs_.size(); }

 private:
  bool replay_edge(const LoggedEdge& edge);
  // Update, reset and interrupt-entry edges: no site lookup.
  bool replay_marker(const LoggedEdge& edge);
  // Whether `words` more stack words still fit under kMaxStackWords.
  bool stack_fits(size_t words) const {
    return call_stack_.size() + 2 * irq_stack_.size() + words <=
           kMaxStackWords;
  }

  std::shared_ptr<const Cfg> cfg_;
  crypto::HmacKey key_;
  std::vector<uint16_t> call_stack_;  // expected return addresses
  std::vector<uint16_t> irq_stack_;   // expected resume addresses
  std::deque<std::shared_ptr<const Cfg>> pending_cfgs_;
};

}  // namespace eilid::cfa

#endif  // EILID_CFA_ATTESTATION_H
