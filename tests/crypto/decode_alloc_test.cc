// Counting-allocator proof that the client-side decoders allocate nothing
// per ciphertext or per row: Benaloh decryption runs on per-key tables and
// per-thread scratch, and PIR decoding allocates its output and one
// Legendre workspace per response, however many rows it holds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bignum/modmath.h"
#include "crypto/benaloh.h"
#include "crypto/pir.h"

// -- Counting global allocator (this test binary only) ----------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace embellish::crypto {
namespace {

uint64_t Allocs() { return g_alloc_count.load(std::memory_order_relaxed); }

TEST(DecodeAllocationTest, BenalohDecryptIsAllocationFreeInSteadyState) {
  for (uint64_t r : {59049ULL, 175ULL}) {  // split and BSGS
    Rng rng(1);
    BenalohKeyOptions options;
    options.key_bits = 256;
    options.r = r;
    auto kp = BenalohKeyPair::Generate(options, &rng);
    ASSERT_TRUE(kp.ok());
    std::vector<BenalohCiphertext> cs;
    for (uint64_t m = 0; m < 16; ++m) {
      cs.push_back(*kp->public_key().Encrypt(m * 7 % r, &rng));
    }
    const BenalohPrivateKey& sk = kp->private_key();
    // Warm-up sizes this thread's workspace.
    ASSERT_TRUE(sk.Decrypt(cs[0]).ok());

    const uint64_t before = Allocs();
    uint64_t sum = 0;
    for (const BenalohCiphertext& c : cs) {
      for (auto mode : {BenalohDecryptMode::kAuto,
                        BenalohDecryptMode::kBabyStepGiantStep,
                        BenalohDecryptMode::kPowerOfThreeDigits}) {
        if (mode == BenalohDecryptMode::kPowerOfThreeDigits && r != 59049) {
          continue;
        }
        auto d = sk.DecryptWith(c, mode);
        sum += d.ok() ? *d : 0;
      }
    }
    EXPECT_EQ(Allocs() - before, 0u) << "r=" << r;
    EXPECT_GT(sum, 0u);
  }
}

TEST(DecodeAllocationTest, PirDecodeAllocationsDoNotGrowWithRows) {
  Rng rng(2);
  auto client = PirClient::Create(256, &rng);
  ASSERT_TRUE(client.ok());
  PirResponse small;
  PirResponse large;
  for (int i = 0; i < 512; ++i) {
    bignum::BigInt v = bignum::RandomUnit(client->n(), &rng);
    if (i < 8) small.gamma.push_back(v);
    large.gamma.push_back(std::move(v));
  }
  const auto allocs_for = [&](const PirResponse& response) {
    const uint64_t before = Allocs();
    auto bits = client->DecodeResponse(response);
    const uint64_t after = Allocs();
    EXPECT_TRUE(bits.ok());
    return after - before;
  };
  EXPECT_EQ(allocs_for(small), allocs_for(large));
}

}  // namespace
}  // namespace embellish::crypto
