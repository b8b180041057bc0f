// HMAC-SHA256 (RFC 2104 / FIPS 198-1), plus constant-time comparison.
// Used by the CASU secure-update protocol and the CFA attestation engine.
//
// A key is absorbed once: HmacKey holds the SHA-256 midstates after
// the ipad and opad blocks, so each MAC under a long-lived key (a
// device's attestation or update key) costs only its message blocks,
// its padding and the one outer block -- not the two key blocks again.
#ifndef EILID_CRYPTO_HMAC_H
#define EILID_CRYPTO_HMAC_H

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/sha256.h"

namespace eilid::crypto {

// A MAC key in absorbed form: the inner (key ^ ipad) and outer
// (key ^ opad) one-block midstates. Computing it costs two
// compressions (three for keys longer than a block); holders compute
// it once per key.
class HmacKey {
 public:
  explicit HmacKey(std::span<const uint8_t> key);
  explicit HmacKey(const Digest& key)
      : HmacKey(std::span<const uint8_t>(key.data(), key.size())) {}

 private:
  friend class HmacSha256;
  Sha256::State inner_{};
  Sha256::State outer_{};
};

// Incremental HMAC-SHA256: stream the message through update() and
// call finish() once; one instance MACs one message. Lets callers (e.g.
// the CFA report MAC) stream large messages instead of materializing a
// contiguous byte vector.
class HmacSha256 {
 public:
  explicit HmacSha256(const HmacKey& key)
      : outer_(key.outer_), inner_(key.inner_, 1) {}

  void update(std::span<const uint8_t> data) { inner_.update(data); }
  Digest finish();

 private:
  Sha256::State outer_;
  Sha256 inner_;
};

// MAC = HMAC-SHA256(key, message).
Digest hmac_sha256(std::span<const uint8_t> key, std::span<const uint8_t> message);
Digest hmac_sha256(std::string_view key, std::string_view message);

// Constant-time digest equality; RoT code must never early-exit on a
// MAC mismatch (timing side channel on the verifier path).
bool digest_equal(const Digest& a, const Digest& b);

// Simple KDF used to derive per-purpose device keys from a master key:
// HMAC(master, label). Mirrors how VRASED-family RoTs separate the
// attestation key from the update key.
Digest derive_key(std::span<const uint8_t> master, std::string_view label);

}  // namespace eilid::crypto

#endif  // EILID_CRYPTO_HMAC_H
