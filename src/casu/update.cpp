#include "casu/update.h"

#include "common/error.h"

namespace eilid::casu {

namespace {

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

// Cursor-based LE readers; each returns false on truncation.
struct Reader {
  std::span<const uint8_t> bytes;
  size_t pos = 0;

  bool u32(uint32_t& v) {
    if (bytes.size() - pos < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(bytes[pos + i]) << (8 * i);
    pos += 4;
    return true;
  }
  bool u16(uint16_t& v) {
    if (bytes.size() - pos < 2) return false;
    v = static_cast<uint16_t>(bytes[pos] | (bytes[pos + 1] << 8));
    pos += 2;
    return true;
  }
  bool blob(size_t n, std::vector<uint8_t>& out) {
    if (bytes.size() - pos < n) return false;
    out.assign(bytes.begin() + static_cast<ptrdiff_t>(pos),
               bytes.begin() + static_cast<ptrdiff_t>(pos + n));
    pos += n;
    return true;
  }
};

}  // namespace

size_t UpdatePackage::payload_bytes() const {
  size_t n = 0;
  for (const auto& region : regions) n += region.payload.size();
  return n;
}

std::string_view update_status_name(UpdateStatus status) {
  switch (status) {
    case UpdateStatus::kApplied: return "applied";
    case UpdateStatus::kBadMac: return "bad-mac";
    case UpdateStatus::kRollback: return "rollback";
    case UpdateStatus::kBadRegion: return "bad-region";
    case UpdateStatus::kInterrupted: return "interrupted";
  }
  return "?";
}

crypto::Digest package_mac(const crypto::HmacKey& update_key,
                           const UpdatePackage& package) {
  crypto::HmacSha256 mac(update_key);
  uint8_t header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(package.version >> (8 * i));
  }
  mac.update(std::span<const uint8_t>(header, sizeof(header)));
  for (const auto& region : package.regions) {
    const uint32_t len = static_cast<uint32_t>(region.payload.size());
    uint8_t rh[6];
    rh[0] = static_cast<uint8_t>(region.target_addr);
    rh[1] = static_cast<uint8_t>(region.target_addr >> 8);
    for (int i = 0; i < 4; ++i) rh[2 + i] = static_cast<uint8_t>(len >> (8 * i));
    mac.update(std::span<const uint8_t>(rh, sizeof(rh)));
    mac.update(std::span<const uint8_t>(region.payload.data(),
                                        region.payload.size()));
  }
  return mac.finish();
}

// --- wire format ----------------------------------------------------

std::vector<uint8_t> serialize_package(const UpdatePackage& package) {
  std::vector<uint8_t> out;
  out.reserve(8 + package.payload_bytes() + 6 * package.regions.size() +
              package.mac.size());
  put_u32(out, package.version);
  put_u32(out, static_cast<uint32_t>(package.regions.size()));
  for (const auto& region : package.regions) {
    put_u16(out, region.target_addr);
    put_u32(out, static_cast<uint32_t>(region.payload.size()));
    out.insert(out.end(), region.payload.begin(), region.payload.end());
  }
  out.insert(out.end(), package.mac.begin(), package.mac.end());
  return out;
}

std::optional<UpdatePackage> parse_package(std::span<const uint8_t> bytes) {
  Reader r{bytes};
  UpdatePackage pkg;
  uint32_t region_count = 0;
  if (!r.u32(pkg.version) || !r.u32(region_count)) return std::nullopt;
  // A region is at least 6 header bytes: an absurd count is structural
  // damage, refuse before reserving memory for it.
  if (region_count > bytes.size() / 6 + 1) return std::nullopt;
  pkg.regions.reserve(region_count);
  for (uint32_t i = 0; i < region_count; ++i) {
    UpdateRegion region;
    uint32_t len = 0;
    if (!r.u16(region.target_addr) || !r.u32(len)) return std::nullopt;
    if (!r.blob(len, region.payload)) return std::nullopt;
    pkg.regions.push_back(std::move(region));
  }
  std::vector<uint8_t> mac_bytes;
  if (!r.blob(pkg.mac.size(), mac_bytes)) return std::nullopt;
  std::copy(mac_bytes.begin(), mac_bytes.end(), pkg.mac.begin());
  if (r.pos != bytes.size()) return std::nullopt;  // trailing garbage
  return pkg;
}

uint64_t chunk_checksum(const TransferChunk& chunk) {
  // FNV-1a over every field but the checksum itself. Transport
  // integrity only -- detects line noise so the sender retransmits;
  // an adversary recomputes it trivially and is caught by the package
  // MAC at reassembly instead.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (uint8_t b : chunk.transfer_id) mix(b);
  for (uint32_t v : {chunk.index, chunk.total, chunk.offset, chunk.total_bytes}) {
    for (int i = 0; i < 4; ++i) mix(static_cast<uint8_t>(v >> (8 * i)));
  }
  for (uint8_t b : chunk.payload) mix(b);
  return h;
}

std::vector<TransferChunk> chunk_package(const UpdatePackage& package,
                                         size_t chunk_size) {
  if (chunk_size == 0) {
    throw ConfigError("chunk_package: chunk_size must be > 0");
  }
  const std::vector<uint8_t> bytes = serialize_package(package);
  const size_t total =
      bytes.empty() ? 1 : (bytes.size() + chunk_size - 1) / chunk_size;
  std::vector<TransferChunk> chunks;
  chunks.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    TransferChunk chunk;
    chunk.transfer_id = package.mac;
    chunk.index = static_cast<uint32_t>(i);
    chunk.total = static_cast<uint32_t>(total);
    chunk.offset = static_cast<uint32_t>(i * chunk_size);
    chunk.total_bytes = static_cast<uint32_t>(bytes.size());
    const size_t end = std::min(bytes.size(), (i + 1) * chunk_size);
    chunk.payload.assign(bytes.begin() + static_cast<ptrdiff_t>(i * chunk_size),
                         bytes.begin() + static_cast<ptrdiff_t>(end));
    chunk.checksum = chunk_checksum(chunk);
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

std::string_view chunk_ack_name(ChunkAck ack) {
  switch (ack) {
    case ChunkAck::kAccepted: return "accepted";
    case ChunkAck::kComplete: return "complete";
    case ChunkAck::kDuplicate: return "duplicate";
    case ChunkAck::kCorrupt: return "corrupt";
    case ChunkAck::kMalformed: return "malformed";
  }
  return "?";
}

// --- authority ------------------------------------------------------

UpdateAuthority::UpdateAuthority(std::span<const uint8_t> device_key)
    : update_key_(crypto::derive_key(device_key, "casu-update")) {}

UpdatePackage UpdateAuthority::make_package(
    uint32_t version, std::vector<UpdateRegion> regions) const {
  UpdatePackage pkg;
  pkg.version = version;
  pkg.regions = std::move(regions);
  pkg.mac = package_mac(update_key_, pkg);
  return pkg;
}

UpdatePackage UpdateAuthority::make_package(
    uint16_t target_addr, uint32_t version,
    std::vector<uint8_t> payload) const {
  std::vector<UpdateRegion> regions;
  regions.push_back({target_addr, std::move(payload)});
  return make_package(version, std::move(regions));
}

// --- engine ---------------------------------------------------------

UpdateEngine::UpdateEngine(std::span<const uint8_t> device_key,
                           sim::Machine& machine, CasuMonitor* monitor)
    : update_key_(crypto::derive_key(device_key, "casu-update")),
      machine_(machine),
      monitor_(monitor) {}

UpdateStatus UpdateEngine::check(const UpdatePackage& package) {
  for (const auto& region : package.regions) {
    if (!sim::is_pmem(region.target_addr) ||
        region.target_addr + region.payload.size() > 0x10000) {
      return UpdateStatus::kBadRegion;
    }
  }
  crypto::Digest expected = package_mac(update_key_, package);
  if (!crypto::digest_equal(expected, package.mac)) {
    // Authentication failure is a monitored event: the ROM update
    // routine reports it and the device resets at the next step.
    if (monitor_ != nullptr) monitor_->report_update_auth_failure();
    return UpdateStatus::kBadMac;
  }
  if (package.version <= version_) {
    if (monitor_ != nullptr) monitor_->report_update_rollback();
    return UpdateStatus::kRollback;
  }
  return UpdateStatus::kApplied;
}

UpdateStatus UpdateEngine::apply(const UpdatePackage& package) {
  const UpdateStatus status = check(package);
  if (status != UpdateStatus::kApplied) return status;
  return write(package, std::nullopt);
}

ChunkAck UpdateEngine::receive_chunk(const TransferChunk& chunk) {
  if (chunk_checksum(chunk) != chunk.checksum) return ChunkAck::kCorrupt;
  if (chunk.total == 0 || chunk.index >= chunk.total ||
      chunk.total_bytes == 0 ||
      static_cast<size_t>(chunk.offset) + chunk.payload.size() >
          chunk.total_bytes) {
    return ChunkAck::kMalformed;
  }
  // A chunk of a different transfer preempts the staged one: the pipe
  // carries one campaign at a time, and content addressing means the
  // two can never be spliced (interleaved campaigns: last sender wins,
  // the preempted transfer restarts from zero if it ever resumes).
  if (staged_.has_value() &&
      !crypto::digest_equal(staged_->id, chunk.transfer_id)) {
    staged_.reset();
  }
  if (!staged_.has_value()) {
    StagedTransfer fresh;
    fresh.id = chunk.transfer_id;
    fresh.total_chunks = chunk.total;
    fresh.total_bytes = chunk.total_bytes;
    fresh.bytes.assign(chunk.total_bytes, 0);
    fresh.received.assign(chunk.total, false);
    staged_.emplace(std::move(fresh));
  }
  StagedTransfer& staged = *staged_;
  if (chunk.total != staged.total_chunks ||
      chunk.total_bytes != staged.total_bytes) {
    return ChunkAck::kMalformed;  // same id, inconsistent geometry
  }
  if (staged.received[chunk.index]) return ChunkAck::kDuplicate;
  std::copy(chunk.payload.begin(), chunk.payload.end(),
            staged.bytes.begin() + chunk.offset);
  staged.received[chunk.index] = true;
  ++staged.received_count;
  return staged.complete() ? ChunkAck::kComplete : ChunkAck::kAccepted;
}

std::vector<bool> UpdateEngine::staged_chunk_map(
    const crypto::Digest& id) const {
  if (!staged_.has_value() || !crypto::digest_equal(staged_->id, id)) {
    return {};
  }
  return staged_->received;
}

bool UpdateEngine::transfer_complete() const {
  return staged_.has_value() && staged_->complete();
}

void UpdateEngine::abandon_transfer() { staged_.reset(); }

UpdateStatus UpdateEngine::finalize_transfer(
    std::optional<size_t> power_cut_after_regions) {
  if (!staged_.has_value() || !staged_->complete()) {
    return UpdateStatus::kInterrupted;  // nothing to finalize; staged kept
  }
  std::optional<UpdatePackage> parsed = parse_package(std::span<const uint8_t>(
      staged_->bytes.data(), staged_->bytes.size()));
  staged_.reset();  // every verdict below consumes the transfer
  if (!parsed.has_value()) {
    // Structurally damaged reassembly: the transport CRC passed (else
    // the chunk was NACKed), so this is tampering, not noise -- it
    // fails authentication like any forged package.
    if (monitor_ != nullptr) monitor_->report_update_auth_failure();
    return UpdateStatus::kBadMac;
  }
  const UpdateStatus status = check(*parsed);
  if (status != UpdateStatus::kApplied) return status;
  // Phase 1 done: the package is authentic and monotonic. Journal it
  // (non-volatile) so the swap survives any reset, then replay.
  journal_.emplace(CommitJournal{std::move(*parsed)});
  return commit(power_cut_after_regions);
}

UpdateStatus UpdateEngine::write(
    const UpdatePackage& package,
    std::optional<size_t> power_cut_after_regions) {
  if (monitor_ != nullptr) monitor_->begin_update_session();
  size_t written = 0;
  for (const auto& region : package.regions) {
    if (power_cut_after_regions.has_value() &&
        written == *power_cut_after_regions) {
      // The supply fails mid-swap. The journal stays pending; the
      // half-written PMEM is never executed -- recover_after_reset()
      // replays the whole journal before application code runs.
      if (monitor_ != nullptr) monitor_->end_update_session();
      return UpdateStatus::kInterrupted;
    }
    machine_.bus().raw_store_bytes(
        region.target_addr, std::span<const uint8_t>(region.payload.data(),
                                                     region.payload.size()));
    ++written;
  }
  if (monitor_ != nullptr) monitor_->end_update_session();
  version_ = package.version;
  return UpdateStatus::kApplied;
}

UpdateStatus UpdateEngine::commit(
    std::optional<size_t> power_cut_after_regions) {
  const UpdateStatus status =
      write(journal_->package, power_cut_after_regions);
  // The version bump and the journal retiring are the atomic commit
  // point: before it the device is (after recovery replay) the old
  // image with the old counter, after it the new image with the new.
  if (status == UpdateStatus::kApplied) journal_.reset();
  return status;
}

bool UpdateEngine::recover_after_reset() {
  if (!journal_.has_value()) return false;
  commit(std::nullopt);  // idempotent full replay; always completes
  return true;
}

}  // namespace eilid::casu
