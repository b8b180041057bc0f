#include "crypto/hmac.h"

#include <array>

namespace eilid::crypto {

HmacKey::HmacKey(std::span<const uint8_t> key) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  std::array<uint8_t, kBlock> k0{};

  if (key.size() > kBlock) {
    Digest kd = sha256(key);
    std::copy(kd.begin(), kd.end(), k0.begin());
  } else {
    std::copy(key.begin(), key.end(), k0.begin());
  }

  std::array<uint8_t, kBlock> ipad;
  std::array<uint8_t, kBlock> opad;
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<uint8_t>(k0[i] ^ 0x36);
    opad[i] = static_cast<uint8_t>(k0[i] ^ 0x5c);
  }
  Sha256 h;
  h.update(std::span<const uint8_t>(ipad.data(), ipad.size()));
  inner_ = h.state();
  h.reset();
  h.update(std::span<const uint8_t>(opad.data(), opad.size()));
  outer_ = h.state();
}

Digest HmacSha256::finish() {
  const Digest inner_digest = inner_.finish();
  Sha256 outer(outer_, 1);
  outer.update(
      std::span<const uint8_t>(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Digest hmac_sha256(std::span<const uint8_t> key, std::span<const uint8_t> message) {
  HmacSha256 mac{HmacKey(key)};
  mac.update(message);
  return mac.finish();
}

Digest hmac_sha256(std::string_view key, std::string_view message) {
  return hmac_sha256(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(key.data()), key.size()),
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message.data()),
                               message.size()));
}

bool digest_equal(const Digest& a, const Digest& b) {
  uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc = static_cast<uint8_t>(acc | (a[i] ^ b[i]));
  return acc == 0;
}

Digest derive_key(std::span<const uint8_t> master, std::string_view label) {
  return hmac_sha256(master,
                     std::span<const uint8_t>(
                         reinterpret_cast<const uint8_t*>(label.data()), label.size()));
}

}  // namespace eilid::crypto
