// Crypto substrate tests: SHA-256 against FIPS/NIST vectors, the
// dispatched compression kernel against the portable one, HMAC-SHA256
// (one-shot and through reused HmacKey midstates) against RFC 4231,
// the per-thread compression counter, and structural properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace eilid::crypto {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  std::string m(64, 'a');
  EXPECT_EQ(digest_hex(sha256(m)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, FinishResetsForReuse) {
  Sha256 h;
  h.update("abc");
  Digest first = h.finish();
  h.update("abc");
  Digest second = h.finish();
  EXPECT_EQ(first, second);
}

class Sha256Incremental : public ::testing::TestWithParam<int> {};

TEST_P(Sha256Incremental, SplitEqualsOneShot) {
  std::string msg;
  for (int i = 0; i < 200; ++i) msg.push_back(static_cast<char>('A' + i % 23));
  int split = GetParam();
  Sha256 h;
  h.update(msg.substr(0, static_cast<size_t>(split)));
  h.update(msg.substr(static_cast<size_t>(split)));
  EXPECT_EQ(h.finish(), sha256(msg)) << "split at " << split;
}

INSTANTIATE_TEST_SUITE_P(Splits, Sha256Incremental,
                         ::testing::Values(0, 1, 31, 32, 55, 56, 63, 64, 65,
                                           127, 128, 199, 200));

TEST(Hmac, Rfc4231Case1) {
  std::vector<uint8_t> key(20, 0x0b);
  auto mac = hmac_sha256(
      std::span<const uint8_t>(key.data(), key.size()),
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>("Hi There"), 8));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  auto mac = hmac_sha256("Jefe", "what do ya want for nothing?");
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  std::vector<uint8_t> key(20, 0xaa);
  std::vector<uint8_t> msg(50, 0xdd);
  auto mac = hmac_sha256(std::span<const uint8_t>(key.data(), key.size()),
                         std::span<const uint8_t>(msg.data(), msg.size()));
  EXPECT_EQ(digest_hex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  std::vector<uint8_t> key(131, 0xaa);
  auto mac = hmac_sha256(
      std::span<const uint8_t>(key.data(), key.size()),
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(
              "Test Using Larger Than Block-Size Key - Hash Key First"),
          54));
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DigestEqualDetectsDifference) {
  Digest a = sha256("x");
  Digest b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Hmac, DerivedKeysAreDomainSeparated) {
  std::vector<uint8_t> master(32, 0x11);
  auto k1 = derive_key(std::span<const uint8_t>(master.data(), master.size()),
                       "casu-update");
  auto k2 = derive_key(std::span<const uint8_t>(master.data(), master.size()),
                       "cfa-attest");
  EXPECT_FALSE(digest_equal(k1, k2));
}

// ------------------------------------------------ compression kernels

std::vector<uint8_t> random_bytes(std::mt19937_64& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

// FIPS 180-4 SHA-256 over the portable kernel alone: the oracle the
// dispatched path is held to.
Digest portable_sha256(const std::vector<uint8_t>& msg) {
  Sha256::State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::vector<uint8_t> padded = msg;
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  sha256_compress_portable(state, padded.data(),
                           padded.size() / Sha256::kBlockSize);
  Digest out{};
  for (size_t i = 0; i < 8; ++i) {
    for (size_t b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

TEST(Sha256Kernel, DispatchedMatchesPortableFromRandomStates) {
  std::mt19937_64 rng(0x5AA256);
  for (int trial = 0; trial < 500; ++trial) {
    Sha256::State state;
    for (auto& word : state) word = static_cast<uint32_t>(rng());
    const size_t blocks = 1 + rng() % 8;
    const auto data = random_bytes(rng, blocks * Sha256::kBlockSize);
    Sha256::State want = state;
    sha256_compress_portable(want, data.data(), blocks);
    sha256_compress(state, data.data(), blocks);
    ASSERT_EQ(state, want) << "trial " << trial << ", " << blocks << " blocks";
  }
}

TEST(Sha256Kernel, RandomSplitsMatchPortableOracle) {
  std::mt19937_64 rng(0x5EED5);
  Sha256 h;  // reused: finish() resets it
  for (size_t len = 0; len <= 2048; ++len) {
    const auto msg = random_bytes(rng, len);
    // Feed the message in random pieces (empty ones included), so
    // every buffered/whole-block/tail path of update() is exercised.
    size_t pos = 0;
    while (pos < len) {
      const size_t piece = std::min<size_t>(len - pos, rng() % 200);
      h.update(std::span<const uint8_t>(msg.data() + pos, piece));
      pos += piece;
    }
    ASSERT_EQ(h.finish(), portable_sha256(msg)) << "length " << len;
  }
}

TEST(Sha256Kernel, ChosenKernelMatchesCpuFeatureBits) {
  bool sha_ni = false;
#if defined(__x86_64__) || defined(__i386__)
  // CPUID leaf 7 EBX bit 29: SHA extensions; leaf 1 ECX bit 19: SSE4.1.
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  const bool sse41 = __get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & (1u << 19));
  const bool sha = __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) &&
                   (ebx & (1u << 29));
  sha_ni = sha && sse41;
#endif
  EXPECT_EQ(sha256_kernel(),
            sha_ni ? Sha256Kernel::kShaNi : Sha256Kernel::kPortable);
}

TEST(Sha256Counter, CountsEveryDispatchedCompression) {
  const uint64_t before = sha256_compressions();
  sha256("abc");                     // one padded block
  EXPECT_EQ(sha256_compressions() - before, 1u);
  sha256(std::string(55, 'a'));      // 55 + 0x80 + length: still one block
  EXPECT_EQ(sha256_compressions() - before, 2u);
  sha256(std::string(56, 'a'));      // the length spills into a second
  EXPECT_EQ(sha256_compressions() - before, 4u);
  Sha256 h;
  h.update(std::string(3 * Sha256::kBlockSize, 'b'));  // one kernel call
  EXPECT_EQ(sha256_compressions() - before, 7u);
  h.finish();
  EXPECT_EQ(sha256_compressions() - before, 8u);
  // The oracle kernel does not count.
  Sha256::State state{};
  const std::vector<uint8_t> block(Sha256::kBlockSize, 0);
  sha256_compress_portable(state, block.data(), 1);
  EXPECT_EQ(sha256_compressions() - before, 8u);
}

// ------------------------------------------------ HMAC key midstates

std::span<const uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const uint8_t*>(text.data()), text.size()};
}

Digest mac_with(const HmacKey& key, std::span<const uint8_t> message) {
  HmacSha256 mac(key);
  mac.update(message);
  return mac.finish();
}

TEST(HmacKey, Rfc4231CasesThroughReusedMidstates) {
  struct Case {
    const char* name;
    std::vector<uint8_t> key;
    std::vector<uint8_t> message;
    const char* mac;
  };
  const auto text = [](std::string_view s) {
    return std::vector<uint8_t>(s.begin(), s.end());
  };
  const Case cases[] = {
      {"1", std::vector<uint8_t>(20, 0x0b), text("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"2", text("Jefe"), text("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {"3", std::vector<uint8_t>(20, 0xaa), std::vector<uint8_t>(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {"6", std::vector<uint8_t>(131, 0xaa),
       text("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {"7", std::vector<uint8_t>(131, 0xaa),
       text("This is a test using a larger than block-size key and a larger "
            "than block-size data. The key needs to be hashed before being "
            "used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  std::mt19937_64 rng(4231);
  for (const Case& c : cases) {
    const HmacKey key(std::span<const uint8_t>(c.key.data(), c.key.size()));
    EXPECT_EQ(digest_hex(mac_with(key, c.message)), c.mac) << "case " << c.name;
    // The same midstates MAC further messages of every length class
    // (empty, sub-block, multi-block) exactly as a fresh key would.
    for (size_t len : {0u, 1u, 55u, 64u, 200u, 1000u}) {
      const auto msg = random_bytes(rng, len);
      const std::span<const uint8_t> m(msg.data(), msg.size());
      EXPECT_EQ(mac_with(key, m),
                hmac_sha256(std::span<const uint8_t>(c.key.data(), c.key.size()), m))
          << "case " << c.name << ", length " << len;
    }
    EXPECT_EQ(digest_hex(mac_with(key, c.message)), c.mac)
        << "case " << c.name << " after reuse";
  }
}

TEST(HmacKey, MacUnderAbsorbedKeyCostsMessageBlocksPlusOne) {
  const HmacKey key(bytes_of("key"));
  uint64_t before = sha256_compressions();
  mac_with(key, bytes_of(""));  // inner pad block + outer block
  EXPECT_EQ(sha256_compressions() - before, 2u);
  before = sha256_compressions();
  const std::vector<uint8_t> msg(200, 0x42);  // 200 + 9 bytes: 4 blocks
  mac_with(key, std::span<const uint8_t>(msg.data(), msg.size()));
  EXPECT_EQ(sha256_compressions() - before, 5u);
}

}  // namespace
}  // namespace eilid::crypto
