#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace eilid::crypto {
namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr uint32_t rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

constexpr Sha256::State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                         0xa54ff53a, 0x510e527f, 0x9b05688c,
                                         0x1f83d9ab, 0x5be0cd19};

void compress_block_portable(Sha256::State& state, const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
           (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__) || defined(__i386__)
// SHA-NI: each sha256rnds2 runs two rounds on the state split as
// ABEF/CDGH; sha256msg1/msg2 extend the message schedule four words at
// a time. Sixteen four-round groups make one block.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    Sha256::State& state, const uint8_t* data, size_t blocks) {
  // Byte swap within each 32-bit word: the message is big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);               // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);             // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);     // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);          // CDGH

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // schedule words 4(i-4) .. 4i-1, by group mod 4
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i m;
      if (i < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            kByteSwap);
      } else {
        // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]), four at once.
        m = _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, w[(i + 3) & 3]);
      }
      w[i & 3] = m;
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(&kRoundConstants[4 * i])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);              // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);             // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);          // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);             // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}
#endif

Sha256Kernel detect_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return Sha256Kernel::kShaNi;
  }
#endif
  return Sha256Kernel::kPortable;
}

using CompressFn = void (*)(Sha256::State&, const uint8_t*, size_t);

CompressFn dispatched_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  if (sha256_kernel() == Sha256Kernel::kShaNi) return compress_shani;
#endif
  return sha256_compress_portable;
}

thread_local uint64_t t_compressions = 0;

}  // namespace

void sha256_compress_portable(Sha256::State& state, const uint8_t* data,
                              size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    compress_block_portable(state, data);
  }
}

Sha256Kernel sha256_kernel() {
  static const Sha256Kernel kernel = detect_kernel();
  return kernel;
}

void sha256_compress(Sha256::State& state, const uint8_t* data, size_t blocks) {
  static const CompressFn kernel = dispatched_kernel();
  t_compressions += blocks;
  kernel(state, data, blocks);
}

uint64_t sha256_compressions() { return t_compressions; }

Sha256::Sha256() { reset(); }

Sha256::Sha256(const State& state, uint64_t blocks)
    : state_(state), total_bits_(blocks * kBlockSize * 8) {}

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_bits_ = 0;
}

void Sha256::update(std::span<const uint8_t> data) {
  if (data.empty()) return;  // data() may be null: no memcpy from it
  total_bits_ += static_cast<uint64_t>(data.size()) * 8;
  const uint8_t* in = data.data();
  size_t len = data.size();
  // Top up a partly filled block first; whole blocks then go straight
  // from the input to the kernel in one call, and only the tail is
  // buffered.
  if (buffer_len_ != 0) {
    const size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, in, take);
    buffer_len_ += take;
    in += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    sha256_compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const size_t whole = len / kBlockSize;
  if (whole != 0) sha256_compress(state_, in, whole);
  in += whole * kBlockSize;
  len -= whole * kBlockSize;
  if (len != 0) std::memcpy(buffer_.data(), in, len);
  buffer_len_ = len;
}

void Sha256::update(std::string_view text) {
  update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                  text.size()));
}

Digest Sha256::finish() {
  // Padding: 0x80, zeros, 64-bit big-endian bit length. The length
  // needs the last 8 bytes of a block; when the 0x80 leaves less room
  // than that, the zeros run on through one more block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    sha256_compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 1 - static_cast<size_t>(i)] =
        static_cast<uint8_t>(total_bits_ >> (i * 8));
  }
  sha256_compress(state_, buffer_.data(), 1);

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<uint8_t>(state_[static_cast<size_t>(i)] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[static_cast<size_t>(i)] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[static_cast<size_t>(i)] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[static_cast<size_t>(i)]);
  }
  reset();
  return out;
}

Digest sha256(std::span<const uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::string_view text) {
  Sha256 h;
  h.update(text);
  return h.finish();
}

std::string digest_hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace eilid::crypto
