// CASU authenticated software update.
//
// CASU's only path for modifying PMEM is an update authorised by a MAC
// computed with a device-unique key and bound to a monotonic version
// (anti-rollback). The API splits the protocol the way the protocol
// itself splits:
//
//   - UpdateAuthority is the sender (vendor/verifier) side: it holds a
//     device's update key and builds correctly MAC'd packages. It
//     never touches a machine.
//   - UpdateEngine is the receiver (device) side: it is bound at
//     construction to the one machine its monitor polices -- an engine
//     cannot be aimed at a foreign machine -- and owns that device's
//     anti-rollback version counter (per device, never shared across
//     a fleet).
//
// A package carries any number of disjoint PMEM regions, so a whole
// build-to-build image diff ships as one atomic, MAC'd unit. The
// verification logic (HMAC-SHA256, version check) is real; the bytes
// are applied to PMEM under an open monitor session, mirroring the ROM
// update routine's effect.
//
// Chunked transport (lossy-pipe OTA)
// ----------------------------------
// apply() is the atomic handoff: the whole package arrives in one
// piece. Real deliveries arrive over a pipe that drops, reorders,
// duplicates and corrupts, and the device may lose power at any byte.
// The chunked path models that without weakening any guarantee:
//
//   serialize_package() -> chunk_package() splits the MAC'd package
//   into fixed-size TransferChunks, each carrying the package MAC as
//   its transfer id (content-addressing: a chunk can never be confused
//   between two campaigns) and an FNV checksum -- transport integrity
//   against line noise, NOT security; an adversary forges checksums
//   trivially, and is caught by the package MAC at reassembly instead.
//
//   receive_chunk() reassembles into a staged slot modeled as
//   non-volatile (it survives power_cycle, like an inactive mcuboot
//   image slot): a reset at any chunk boundary keeps the progress, and
//   resume negotiation (staged_chunk_map()) lets the sender ship only
//   what is missing. A chunk for a different transfer id preempts the
//   staged transfer (interleaved campaigns: last sender wins; the
//   loser restarts from zero).
//
//   finalize_transfer() verifies the reassembled package exactly like
//   apply() (structure, regions, MAC, anti-rollback -- a tampered or
//   replayed chunk stream fails here and latches the same monitor
//   violations), then commits in two phases: the verified package
//   moves into a commit journal (non-volatile), and only then is
//   replayed into PMEM. Power loss mid-replay leaves the journal
//   pending; recover_after_reset() -- the bootloader half, run at
//   every boot before application code -- finishes the idempotent
//   replay, so the device is only ever *observed* running exactly the
//   old or exactly the new image, never a half-flashed one. The
//   version counter bumps with the journal retiring, so anti-rollback
//   state is consistent across a reset at any point.
#ifndef EILID_CASU_UPDATE_H
#define EILID_CASU_UPDATE_H

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "casu/monitor.h"
#include "crypto/hmac.h"
#include "sim/machine.h"

namespace eilid::casu {

struct UpdateRegion {
  uint16_t target_addr = 0;
  std::vector<uint8_t> payload;
};

struct UpdatePackage {
  uint32_t version = 0;
  std::vector<UpdateRegion> regions;
  crypto::Digest mac{};

  size_t payload_bytes() const;
};

enum class UpdateStatus : uint8_t {
  kApplied,
  kBadMac,
  kRollback,       // version <= device's current version
  kBadRegion,      // a region does not fit in PMEM
  kInterrupted,    // chunked path only: the transfer is incomplete, or
                   // a simulated power cut stopped the commit replay
                   // (journal pending -- recover_after_reset finishes
                   // it at next boot). Nothing observable was half
                   // done; the attempt is resumable.
};

std::string_view update_status_name(UpdateStatus status);

// MAC over version || (addr, len, bytes) per region, all fields
// fixed-width LE. Shared by the authority (signing) and the engine
// (verification), each holding the update key's HMAC midstates.
crypto::Digest package_mac(const crypto::HmacKey& update_key,
                           const UpdatePackage& package);

// --- wire format ----------------------------------------------------
// version(4) | region_count(4) | per region: addr(2) len(4) bytes |
// mac(32); all integers LE. parse_package returns nullopt on any
// structural damage (truncation, trailing bytes, length overflow) --
// the caller treats that as failed authentication, since only
// tampering produces it.
std::vector<uint8_t> serialize_package(const UpdatePackage& package);
std::optional<UpdatePackage> parse_package(std::span<const uint8_t> bytes);

// One fragment of a serialized package in flight. `transfer_id` is the
// package MAC -- the transfer is addressed by content, so chunks of
// two concurrent campaigns can never be spliced together. `checksum`
// (chunk_checksum over every field) is the transport CRC: a corrupted
// chunk is NACKed and retransmitted instead of poisoning reassembly.
struct TransferChunk {
  crypto::Digest transfer_id{};
  uint32_t index = 0;        // chunk ordinal in [0, total)
  uint32_t total = 0;        // chunks in the whole transfer
  uint32_t offset = 0;       // byte offset of payload in the stream
  uint32_t total_bytes = 0;  // serialized package size
  std::vector<uint8_t> payload;
  uint64_t checksum = 0;
};

uint64_t chunk_checksum(const TransferChunk& chunk);

// Split a package into checksummed chunks of at most `chunk_size`
// payload bytes (the last chunk may be shorter; at least one chunk is
// always produced). chunk_size must be > 0 (ConfigError otherwise).
std::vector<TransferChunk> chunk_package(const UpdatePackage& package,
                                         size_t chunk_size);

// Receiver's per-chunk verdict -- what the ack/nack wire carries back.
enum class ChunkAck : uint8_t {
  kAccepted,   // staged; more chunks outstanding
  kComplete,   // staged; the transfer is now fully assembled
  kDuplicate,  // already staged (retransmit or duplicated in flight)
  kCorrupt,    // checksum mismatch: dropped, sender must retransmit
  kMalformed,  // inconsistent geometry (index/total/offset/size):
               // dropped without touching the staged transfer
};

std::string_view chunk_ack_name(ChunkAck ack);

// Sender side. `device_key` is the device's master key provisioned at
// manufacture (for a fleet, the per-device key derived from the fleet
// master); the update key is derived as HMAC(master, "casu-update").
class UpdateAuthority {
 public:
  explicit UpdateAuthority(std::span<const uint8_t> device_key);

  UpdatePackage make_package(uint32_t version,
                             std::vector<UpdateRegion> regions) const;
  // Single-region convenience (raw patch, not a build transition).
  UpdatePackage make_package(uint16_t target_addr, uint32_t version,
                             std::vector<uint8_t> payload) const;

 private:
  crypto::HmacKey update_key_;
};

// Receiver side: one engine per device, bound to that device's machine
// and monitor for its whole life.
class UpdateEngine {
 public:
  // `monitor` must be the monitor policing `machine` (null for an
  // unprotected device: updates still verify and apply, but there is
  // no hardware to latch auth failures on).
  UpdateEngine(std::span<const uint8_t> device_key, sim::Machine& machine,
               CasuMonitor* monitor);

  // Verify and apply against this engine's machine. On kBadMac or
  // kRollback the monitor latches a violation so the device resets
  // (CASU heals on abuse); region checks precede authentication so a
  // malformed package is never MAC'd.
  UpdateStatus apply(const UpdatePackage& package);

  uint32_t current_version() const { return version_; }

  // --- chunked transport receiver ----------------------------------
  // Accept one chunk into the staged slot (see the header comment).
  // The slot and the commit journal are modeled as non-volatile: both
  // survive the device resetting -- that is the whole point.
  ChunkAck receive_chunk(const TransferChunk& chunk);

  // Resume negotiation: which chunks of transfer `id` are already
  // staged. Empty when no transfer (or a different one) is staged --
  // the sender then starts from chunk 0.
  std::vector<bool> staged_chunk_map(const crypto::Digest& id) const;
  bool transfer_complete() const;

  // Verify the staged transfer and commit it. Phase 1 parses and
  // checks the reassembled package (structure -> regions -> MAC ->
  // version; structural damage counts as an authentication failure,
  // since only tampering produces it) and moves it into the commit
  // journal. Phase 2 replays the journal's regions into PMEM and
  // retires the journal together with the version bump.
  // `power_cut_after_regions` is the fault-injection hook: when set,
  // the simulated supply fails after that many regions have been
  // replayed -- kInterrupted comes back with the journal pending, and
  // recover_after_reset() finishes the replay at the next boot.
  // kInterrupted is also returned (nothing touched) when no complete
  // transfer is staged.
  UpdateStatus finalize_transfer(
      std::optional<size_t> power_cut_after_regions = std::nullopt);

  // The bootloader half of the A/B swap: finish a pending commit
  // journal, idempotently, before application code runs. Returns true
  // when a pending swap was completed (the caller logs the update
  // marker exactly as for a live apply). A no-op at every ordinary
  // boot. Staged (pre-commit) chunks are deliberately untouched.
  bool recover_after_reset();

  // Discard the staged transfer (not the commit journal). The next
  // chunk starts a fresh assembly.
  void abandon_transfer();

 private:
  struct StagedTransfer {
    crypto::Digest id{};  // the package MAC the chunks carried
    uint32_t total_chunks = 0;
    uint32_t total_bytes = 0;
    std::vector<uint8_t> bytes;
    std::vector<bool> received;
    uint32_t received_count = 0;

    bool complete() const {
      return total_chunks != 0 && received_count == total_chunks;
    }
  };
  // A verified package mid-commit. Pending from the moment
  // verification passes until the last region byte is in PMEM and the
  // version has bumped; replaying it is idempotent (same bytes, same
  // addresses), which is what makes power loss at any point safe.
  struct CommitJournal {
    UpdatePackage package;
  };

  // The one check sequence of apply() and finalize_transfer(): regions
  // -> MAC -> anti-rollback, with the same latches. kApplied: passed.
  UpdateStatus check(const UpdatePackage& package);
  // Write the regions and bump the version, or stop after
  // `power_cut_after_regions` regions with kInterrupted.
  UpdateStatus write(const UpdatePackage& package,
                     std::optional<size_t> power_cut_after_regions);
  UpdateStatus commit(std::optional<size_t> power_cut_after_regions);

  crypto::HmacKey update_key_;
  sim::Machine& machine_;
  CasuMonitor* monitor_;
  uint32_t version_ = 0;
  std::optional<StagedTransfer> staged_;
  std::optional<CommitJournal> journal_;
};

}  // namespace eilid::casu

#endif  // EILID_CASU_UPDATE_H
