// Counting-allocator proof that the client-side decoders allocate nothing
// per ciphertext or per row: Benaloh decryption runs on per-key tables and
// per-thread scratch, PIR decoding allocates its output, its memo and one
// Legendre workspace per response, and the PIR server's answer and payload
// encoding allocate per query, however many rows the matrix holds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bignum/modmath.h"
#include "crypto/benaloh.h"
#include "crypto/pir.h"
#include "server/framing.h"

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
  std::vector<bignum::BigInt> values;
  for (int i = 0; i < 512; ++i) {
    values.push_back(bignum::RandomUnit(client->n(), &rng));
  }
  const auto small = PirResponse::FromValues(
      std::span<const bignum::BigInt>(values).first(8), client->key_bytes());
  const auto large = PirResponse::FromValues(values, client->key_bytes());
  const auto allocs_for = [&](const PirResponse& response) {
    const uint64_t before = Allocs();
    auto bits = client->DecodeResponse(response);
    const uint64_t after = Allocs();
    EXPECT_TRUE(bits.ok());
    return after - before;
  };
  EXPECT_EQ(allocs_for(small), allocs_for(large));
}

TEST(DecodeAllocationTest, PirAnswerAndEncodeAllocationsDoNotGrowWithRows) {
  // AnswerBatch plus EncodePirResponse on one serial server: per-query
  // plans, tables and response buffers, nothing per row — on the pattern
  // path (cols 4), the multi-group path (cols 16) and the naive chain
  // (cols 3).
  Rng rng(3);
  auto client = PirClient::Create(256, &rng);
  ASSERT_TRUE(client.ok());
  for (size_t cols : {4u, 16u, 3u}) {
    std::vector<PirQuery> queries;
    for (size_t q = 0; q < 2; ++q) {
      queries.push_back(*client->BuildQuery(q % cols, cols, &rng));
    }
    const auto allocs_for = [&](size_t rows) {
      auto db = std::make_shared<PirDatabase>(rows, cols);
      for (size_t i = 0; i < rows; ++i) db->SetBit(i, i % cols, true);
      PirServer server(db);
      const uint64_t before = Allocs();
      auto batch = server.AnswerBatch(std::span<const PirQuery>(queries));
      EXPECT_TRUE(batch.ok());
      size_t bytes = 0;
      for (const PirResponse& response : *batch) {
        bytes += server::EncodePirResponse(response).size();
      }
      const uint64_t after = Allocs();
      EXPECT_GT(bytes, rows);
      return after - before;
    };
    EXPECT_EQ(allocs_for(256), allocs_for(1024)) << "cols=" << cols;
  }
}

}  // namespace
}  // namespace embellish::crypto
