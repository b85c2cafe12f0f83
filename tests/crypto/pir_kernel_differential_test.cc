// Differential test of the PIR answer kernel: AnswerBatch's encoded payloads
// must equal, byte for byte, the seed-style naive chain with every residue
// encoded as a padded BigInt — across column counts that cover the naive
// chain (cols < 4), single-group pattern copies (4..8) and multi-group
// combined tables (9, 16, 24), key widths (including one that is not a
// whole number of limbs), batch widths, every Montgomery
// kernel tier the CPU supports, serial and pooled servers, and budget
// splits and the naive fallback.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/cpuinfo.h"
#include "common/thread_pool.h"
#include "crypto/pir.h"
#include "crypto/pir_reference.h"
#include "server/framing.h"

namespace embellish::crypto {
namespace {

using bignum::BigInt;

// 130 rows keep the table path on at every cols >= 4 (cols=24 needs more
// than 102 rows to beat the naive chain).
constexpr size_t kRows = 130;

std::shared_ptr<PirDatabase> RandomDatabase(size_t rows, size_t cols,
                                            uint64_t seed) {
  auto db = std::make_shared<PirDatabase>(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) db->SetBit(i, j, rng.Bernoulli(0.5));
  }
  return db;
}

// The payload the BigInt-per-row code produced for this query.
std::vector<uint8_t> ReferencePayload(const PirDatabase& db,
                                      const PirQuery& query) {
  return reference::EncodePirResponseValues(
      reference::AnswerValues(db, query), (query.n.BitLength() + 7) / 8);
}

std::vector<MontKernel> SupportedKernels() {
  std::vector<MontKernel> out;
  for (MontKernel kernel : {MontKernel::kScalar, MontKernel::kAdx,
                            MontKernel::kAvx2, MontKernel::kIfma}) {
    if (ClampToCpu(kernel) == kernel) out.push_back(kernel);
  }
  return out;
}

class PirKernelDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PirKernelDifferentialTest, PayloadsMatchTheNaiveReference) {
  const size_t key_bits = GetParam();
  Rng rng(900 + key_bits);
  std::vector<PirClient> clients;
  for (int c = 0; c < 3; ++c) {
    auto client = PirClient::Create(key_bits, &rng);
    ASSERT_TRUE(client.ok());
    clients.push_back(std::move(client).value());
  }
  ThreadPool pool(3);
  const MontKernel restore = SelectedKernel();
  for (size_t cols : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 16u, 24u}) {
    auto db = RandomDatabase(kRows, cols, key_bits * 100 + cols);
    for (size_t q_count : {1u, 2u, 3u, 8u}) {
      std::vector<PirQuery> queries;
      std::vector<std::vector<uint8_t>> expected;
      for (size_t i = 0; i < q_count; ++i) {
        auto query =
            clients[i % clients.size()].BuildQuery(i % cols, cols, &rng);
        ASSERT_TRUE(query.ok());
        expected.push_back(ReferencePayload(*db, *query));
        queries.push_back(std::move(query).value());
      }
      for (MontKernel kernel : SupportedKernels()) {
        SetKernelOverride(kernel);
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          SCOPED_TRACE(::testing::Message()
                       << "cols=" << cols << " Q=" << q_count << " kernel="
                       << KernelName(kernel) << (p ? " pooled" : " serial"));
          PirServer server(db, p);
          PirBatchStats stats;
          auto batch =
              server.AnswerBatch(std::span<const PirQuery>(queries), &stats);
          ASSERT_TRUE(batch.ok());
          EXPECT_EQ(stats.table_queries, cols >= 4 ? q_count : 0u);
          for (size_t i = 0; i < q_count; ++i) {
            ASSERT_EQ(server::EncodePirResponse((*batch)[i]), expected[i])
                << "query " << i;
          }
        }
      }
    }
  }
  SetKernelOverride(restore);
}

// 200 bits: a 25-byte value width, not a whole number of limbs.
INSTANTIATE_TEST_SUITE_P(KeyWidths, PirKernelDifferentialTest,
                         ::testing::Values(128, 200, 256, 512, 1024));

TEST(PirKernelDifferentialTest, BudgetSplitsAndNaiveFallbackMatch) {
  // cols=16 at 256 bits: one query's combined tables are 2 * 256 * 4 * 8 =
  // 16 KiB. A 40 KiB budget splits a batch of 8 into four sweeps of two; a
  // 1 KiB budget sends every query down the naive chain.
  Rng rng(77);
  std::vector<PirClient> clients;
  for (int c = 0; c < 2; ++c) clients.push_back(*PirClient::Create(256, &rng));
  const size_t cols = 16;
  auto db = RandomDatabase(kRows, cols, 5);
  std::vector<PirQuery> queries;
  std::vector<std::vector<uint8_t>> expected;
  for (size_t i = 0; i < 8; ++i) {
    queries.push_back(*clients[i % 2].BuildQuery(i, cols, &rng));
    expected.push_back(ReferencePayload(*db, queries.back()));
  }
  ThreadPool pool(2);
  const MontKernel restore = SelectedKernel();
  for (MontKernel kernel : SupportedKernels()) {
    SetKernelOverride(kernel);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(::testing::Message() << KernelName(kernel)
                                        << (p ? " pooled" : " serial"));
      PirServer server(db, p);
      server.set_table_budget_bytes(40 << 10);
      PirBatchStats split;
      auto batch = server.AnswerBatch(std::span<const PirQuery>(queries),
                                      &split);
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(split.sweeps, 4u);
      EXPECT_EQ(split.table_queries, 8u);
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(server::EncodePirResponse((*batch)[i]), expected[i]);
      }

      server.set_table_budget_bytes(1 << 10);
      PirBatchStats naive;
      batch = server.AnswerBatch(std::span<const PirQuery>(queries), &naive);
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(naive.table_queries, 0u);
      EXPECT_EQ(naive.mont_muls, 8 * kRows * cols);
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(server::EncodePirResponse((*batch)[i]), expected[i]);
      }
    }
  }
  SetKernelOverride(restore);
}

}  // namespace
}  // namespace embellish::crypto
