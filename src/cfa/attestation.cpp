#include "cfa/attestation.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace eilid::cfa {

LoggedEdge* CfaMonitor::grow_chunk() {
  if (!free_chunks_.empty()) {
    chunks_.push_back(std::move(free_chunks_.back()));
    free_chunks_.pop_back();
  } else {
    chunks_.push_back(std::make_unique<LoggedEdge[]>(kChunkEdges));
  }
  return chunks_.back().get();
}

void CfaMonitor::log_edges(LoggedEdge edge, uint32_t count) {
  total_edges_ += count;
  const size_t room =
      count_ < config_.log_capacity ? config_.log_capacity - count_ : 0;
  size_t kept = std::min<size_t>(count, room);
  // The paper's "voluminous logs" problem, made visible.
  dropped_ += static_cast<uint32_t>(count - kept);
  size_t pos = head_ + count_;
  count_ += kept;
  while (kept > 0) {
    const size_t chunk = pos / kChunkEdges;
    LoggedEdge* slab =
        chunk < chunks_.size() ? chunks_[chunk].get() : grow_chunk();
    const size_t offset = pos % kChunkEdges;
    const size_t n = std::min(kept, kChunkEdges - offset);
    std::fill_n(slab + offset, n, edge);
    pos += n;
    kept -= n;
  }
}

void CfaMonitor::on_control_transfer(uint16_t from_pc, uint16_t to_pc,
                                     uint16_t fallthrough) {
  // The machine only fires this when to_pc != fallthrough -- exactly
  // the predicate the per-step hook used to apply itself -- so every
  // invocation is a loggable transfer. (Illegal-instruction steps have
  // fallthrough == from_pc == to_pc and are never reported here.)
  (void)fallthrough;
  log_edge({from_pc, to_pc, false});
}

void CfaMonitor::on_repeated_transfer(uint16_t from_pc, uint16_t to_pc,
                                      uint16_t fallthrough, uint32_t count) {
  (void)fallthrough;
  log_edges({from_pc, to_pc, false}, count);
}

void CfaMonitor::on_interrupt(int vector_index, uint16_t from_pc,
                              uint16_t to_pc) {
  (void)vector_index;
  log_edge({from_pc, to_pc, true});
}

void CfaMonitor::on_device_reset() {
  // Keep the accumulated evidence; mark the discontinuity.
  LoggedEdge marker;
  marker.reset = true;
  log_edge(marker);
}

void CfaMonitor::on_update_applied() {
  LoggedEdge marker;
  marker.update = true;
  log_edge(marker);
}

crypto::Digest CfaMonitor::mac_report(const crypto::HmacKey& key,
                                      uint64_t nonce, const Report& report) {
  // Stream the report through an incremental HMAC instead of
  // materializing a header|edges byte vector: a drained 2^17-edge
  // log would otherwise allocate ~640 KB per report just to hash it.
  //
  // The header authenticates *every* field the verifier consumes:
  // nonce (8) | seq (4) | cycle (8) | dropped (4), little-endian.
  // Found by the scenario fuzzer (tests/test_fuzz_regressions.cpp):
  // the original header stopped at seq, so a man-in-the-middle could
  // bump cycle (backdating when evidence was emitted) or zero dropped
  // (hiding log overflow) without failing authentication.
  crypto::HmacSha256 mac(key);
  uint8_t header[24];
  for (int i = 0; i < 8; ++i) header[i] = static_cast<uint8_t>(nonce >> (8 * i));
  for (int i = 0; i < 4; ++i) {
    header[8 + i] = static_cast<uint8_t>(report.seq >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    header[12 + i] = static_cast<uint8_t>(report.cycle >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    header[20 + i] = static_cast<uint8_t>(report.dropped >> (8 * i));
  }
  mac.update(std::span<const uint8_t>(header, sizeof(header)));
  // Batch edge records through a block-sized buffer so Sha256::update
  // sees chunks, not per-edge dribbles. 64 records is a multiple of
  // the SHA-256 block size for the current 5-byte record. Each record
  // goes out as one 8-byte little-endian store (from | to | flags),
  // advancing 5: the next record overwrites the 3 spare bytes, and the
  // slack at the end of `buf` absorbs the last store.
  constexpr size_t kRecords = 64;
  uint8_t buf[kRecords * LoggedEdge::kWireBytes + 3];
  const auto put_le64 = [](uint8_t* out, uint64_t v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &v, sizeof(v));
    } else {
      for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  const LoggedEdge* e = report.edges.data();
  for (size_t left = report.edges.size(); left > 0;) {
    const size_t n = std::min(left, kRecords);
    for (size_t i = 0; i < n; ++i, ++e) {
      const uint64_t flags = (e->irq ? 1u : 0u) | (e->reset ? 2u : 0u) |
                             (e->update ? 4u : 0u);
      put_le64(buf + i * LoggedEdge::kWireBytes,
               e->from | (uint64_t{e->to} << 16) | (flags << 32));
    }
    mac.update(std::span<const uint8_t>(buf, n * LoggedEdge::kWireBytes));
    left -= n;
  }
  return mac.finish();
}

Report CfaMonitor::take_report(uint64_t nonce, uint64_t device_cycle,
                               size_t max_edges) {
  Report r;
  take_report(nonce, device_cycle, max_edges, r);
  return r;
}

void CfaMonitor::take_report(uint64_t nonce, uint64_t device_cycle,
                             size_t max_edges, Report& r) {
  r.seq = seq_++;
  r.cycle = device_cycle;
  // Overflow drops ride the first report that drains them: a bounded
  // slice sequence reports the same total drop count as the one
  // unbounded report would have.
  r.dropped = dropped_;
  dropped_ = 0;
  const size_t take =
      max_edges == 0 ? count_ : (max_edges < count_ ? max_edges : count_);
  // Copy whole chunk runs: the slice is at most one partial run at
  // each end and full chunks in between.
  r.edges.clear();
  r.edges.reserve(take);
  for (size_t left = take; left > 0;) {
    const LoggedEdge* run = chunks_[head_ / kChunkEdges].get();
    const size_t offset = head_ % kChunkEdges;
    const size_t n = std::min(left, kChunkEdges - offset);
    r.edges.insert(r.edges.end(), run + offset, run + offset + n);
    head_ += n;
    left -= n;
  }
  count_ -= take;
  // Recycle fully-drained leading chunks; a fully-drained log resets
  // the cursor so the arena's steady state is independent of history.
  const size_t drained = head_ / kChunkEdges;
  for (size_t i = 0; i < drained; ++i) {
    free_chunks_.push_back(std::move(chunks_[i]));
  }
  chunks_.erase(chunks_.begin(),
                chunks_.begin() + static_cast<ptrdiff_t>(drained));
  head_ -= drained * kChunkEdges;
  if (count_ == 0) {
    while (!chunks_.empty()) {
      free_chunks_.push_back(std::move(chunks_.back()));
      chunks_.pop_back();
    }
    head_ = 0;
  }
  r.mac = mac_report(key_, nonce, r);
}

bool CfaVerifier::replay_edge(const LoggedEdge& edge) {
  if (edge.update || edge.reset || edge.irq) [[unlikely]] {
    return replay_marker(edge);
  }
  // One site lookup judges every synchronous transfer. Jumps -- most
  // of any loop-heavy trace -- are tested before the switch, so the
  // common edge costs one well-predicted branch, not a jump table.
  const Site* site = cfg_->site(edge.from);
  if (site == nullptr) return false;
  if (site->kind == SiteKind::kJump) return site->target == edge.to;
  const auto enter_call = [&] {
    if (!stack_fits(1)) return false;
    call_stack_.push_back(site->return_addr);
    return true;
  };
  switch (site->kind) {
    case SiteKind::kCall:
      return site->target == edge.to && enter_call();
    case SiteKind::kIndirectCall:
      return cfg_->is_call_target(edge.to) && enter_call();
    case SiteKind::kRet:
      if (call_stack_.empty() || call_stack_.back() != edge.to) return false;
      call_stack_.pop_back();
      return true;
    case SiteKind::kReti:
      if (irq_stack_.empty() || irq_stack_.back() != edge.to) return false;
      irq_stack_.pop_back();
      return true;
    case SiteKind::kJump:
    case SiteKind::kOther:
      break;
  }
  return false;
}

bool CfaVerifier::replay_marker(const LoggedEdge& edge) {
  if (edge.update) {
    // Code epoch boundary: legitimate only if the verifier sanctioned
    // an update for this device (stage_cfg_swap / queue_cfg_swap). The
    // old CFG -- and the call/irq expectations pointing into the old
    // code -- die here; replay continues against the new build's CFG.
    if (pending_cfgs_.empty()) return false;
    cfg_ = std::move(pending_cfgs_.front());
    pending_cfgs_.pop_front();
    call_stack_.clear();
    irq_stack_.clear();
    return true;
  }
  if (edge.reset) {
    // Device rebooted: discard replay state, execution restarts clean.
    call_stack_.clear();
    irq_stack_.clear();
    return true;
  }
  // Interrupt entry.
  if (!cfg_->is_isr_entry(edge.to)) return false;
  if (!stack_fits(2)) return false;
  irq_stack_.push_back(edge.from);  // resume point
  return true;
}

CfaVerifier::Result CfaVerifier::verify(const Report& report, uint64_t nonce) {
  Result result;
  crypto::Digest expected = CfaMonitor::mac_report(key_, nonce, report);
  result.mac_ok = crypto::digest_equal(expected, report.mac);
  if (!result.mac_ok) return result;

  result.path_ok = true;
  for (const auto& edge : report.edges) {
    if (!replay_edge(edge)) {
      result.path_ok = false;
      result.first_bad = edge;
      break;
    }
  }
  return result;
}

void CfaVerifier::reset_replay() {
  call_stack_.clear();
  irq_stack_.clear();
  // Staged-but-unconsumed epoch swaps die with the replay state: a
  // fresh evidence stream starts from the device's current code, so a
  // stale queued CFG must not be consumed by some later, unrelated
  // update marker. cfg_ itself stays at the current epoch -- it tracks
  // what code the device runs, not how far replay got.
  pending_cfgs_.clear();
}

void CfaVerifier::queue_cfg_swap(std::shared_ptr<const Cfg> cfg) {
  pending_cfgs_.push_back(std::move(cfg));
}

}  // namespace eilid::cfa
