#include "cfa/attestation.h"

#include <algorithm>

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

crypto::Digest CfaMonitor::mac_report(const crypto::Digest& key, uint64_t nonce,
                                      const Report& report) {
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
  crypto::HmacSha256 mac(std::span<const uint8_t>(key.data(), key.size()));
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
  // the SHA-256 block size for the current 5-byte record.
  uint8_t buf[64 * LoggedEdge::kWireBytes];
  size_t fill = 0;
  for (const auto& e : report.edges) {
    buf[fill++] = static_cast<uint8_t>(e.from);
    buf[fill++] = static_cast<uint8_t>(e.from >> 8);
    buf[fill++] = static_cast<uint8_t>(e.to);
    buf[fill++] = static_cast<uint8_t>(e.to >> 8);
    buf[fill++] = static_cast<uint8_t>((e.irq ? 1 : 0) | (e.reset ? 2 : 0) |
                                       (e.update ? 4 : 0));
    if (fill == sizeof(buf)) {
      mac.update(std::span<const uint8_t>(buf, fill));
      fill = 0;
    }
  }
  if (fill != 0) mac.update(std::span<const uint8_t>(buf, fill));
  return mac.finish();
}

Report CfaMonitor::take_report(uint64_t nonce, uint64_t device_cycle,
                               size_t max_edges) {
  Report r;
  r.seq = seq_++;
  r.cycle = device_cycle;
  // Overflow drops ride the first report that drains them: a bounded
  // slice sequence reports the same total drop count as the one
  // unbounded report would have.
  r.dropped = dropped_;
  dropped_ = 0;
  const size_t take =
      max_edges == 0 ? count_ : (max_edges < count_ ? max_edges : count_);
  r.edges.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    const size_t pos = head_ + i;
    r.edges.push_back(chunks_[pos / kChunkEdges][pos % kChunkEdges]);
  }
  head_ += take;
  count_ -= take;
  // Recycle fully-drained leading chunks; a fully-drained log resets
  // the cursor so the arena's steady state is independent of history.
  while (head_ >= kChunkEdges) {
    free_chunks_.push_back(std::move(chunks_.front()));
    chunks_.erase(chunks_.begin());
    head_ -= kChunkEdges;
  }
  if (count_ == 0) {
    while (!chunks_.empty()) {
      free_chunks_.push_back(std::move(chunks_.back()));
      chunks_.pop_back();
    }
    head_ = 0;
  }
  r.mac = mac_report(key_, nonce, r);
  return r;
}

bool CfaVerifier::replay_edge(const LoggedEdge& edge) {
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
  if (edge.irq) {
    if (cfg_->isr_entries.count(edge.to) == 0) return false;
    if (!stack_fits(2)) return false;
    irq_stack_.push_back(edge.from);  // resume point
    return true;
  }
  // Direct jump/branch edge?
  if (cfg_->has_jump_edge(edge.from, edge.to)) return true;
  // Call site?
  auto call = cfg_->call_sites.find(edge.from);
  if (call != cfg_->call_sites.end()) {
    if (call->second.indirect) {
      if (cfg_->call_targets.count(edge.to) == 0) return false;
    } else if (call->second.target != edge.to) {
      return false;
    }
    if (!stack_fits(1)) return false;
    call_stack_.push_back(call->second.return_addr);
    return true;
  }
  // Return?
  if (cfg_->ret_addrs.count(edge.from) != 0) {
    if (call_stack_.empty() || call_stack_.back() != edge.to) return false;
    call_stack_.pop_back();
    return true;
  }
  // Return from interrupt?
  if (cfg_->reti_addrs.count(edge.from) != 0) {
    if (irq_stack_.empty() || irq_stack_.back() != edge.to) return false;
    irq_stack_.pop_back();
    return true;
  }
  return false;
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
