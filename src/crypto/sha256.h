// SHA-256 (FIPS 180-4). Implemented from scratch: CASU's authenticated
// software update and the CFA baselines both need a MAC, and low-end RoT
// papers (VRASED/CASU lineage) standardise on HMAC-SHA256.
//
// Two compression kernels compute the same function: a portable one
// (the fallback, and the oracle the other is tested against) and an
// x86 SHA-NI one. The kernel is chosen once per process from the CPU's
// feature bits and cannot be overridden; both run multi-block, so a
// long update() hands its whole run of blocks to the kernel in one
// call. Every compression the dispatched kernel runs bumps a per-thread
// counter (sha256_compressions), which lets tests pin the exact hash
// work a protocol step costs.
#ifndef EILID_CRYPTO_SHA256_H
#define EILID_CRYPTO_SHA256_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace eilid::crypto {

using Digest = std::array<uint8_t, 32>;

// Incremental SHA-256. Typical use:
//   Sha256 h; h.update(a); h.update(b); Digest d = h.finish();
// finish() resets the object so it can be reused.
class Sha256 {
 public:
  static constexpr size_t kBlockSize = 64;
  // The eight-word chaining value.
  using State = std::array<uint32_t, 8>;

  Sha256();
  // Resume from `state`, the chaining value after `blocks` whole
  // blocks of some prefix (an HMAC key's ipad/opad midstate).
  Sha256(const State& state, uint64_t blocks);

  void reset();
  void update(std::span<const uint8_t> data);
  void update(std::string_view text);
  Digest finish();

  // The chaining value; a midstate only while no partial block is
  // buffered (i.e. after updates totalling a multiple of kBlockSize).
  const State& state() const { return state_; }

 private:
  State state_;
  std::array<uint8_t, kBlockSize> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_bits_ = 0;
};

// The compression kernels: fold `blocks` consecutive 64-byte blocks
// into `state`. sha256_compress is the dispatched kernel every Sha256
// uses, and counts; sha256_compress_portable is the reference kernel
// and does not count.
void sha256_compress(Sha256::State& state, const uint8_t* data, size_t blocks);
void sha256_compress_portable(Sha256::State& state, const uint8_t* data,
                              size_t blocks);

enum class Sha256Kernel { kPortable, kShaNi };
// The kernel sha256_compress dispatches to on this CPU: kShaNi on x86
// CPUs reporting the SHA extensions (and SSE4.1), else kPortable.
Sha256Kernel sha256_kernel();

// Compressions the dispatched kernel has run on the calling thread.
uint64_t sha256_compressions();

// One-shot helpers.
Digest sha256(std::span<const uint8_t> data);
Digest sha256(std::string_view text);

// Lowercase hex rendering of a digest.
std::string digest_hex(const Digest& d);

}  // namespace eilid::crypto

#endif  // EILID_CRYPTO_SHA256_H
