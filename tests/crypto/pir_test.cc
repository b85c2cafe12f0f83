#include "crypto/pir.h"

#include <gtest/gtest.h>

#include "bignum/modmath.h"

namespace embellish::crypto {
namespace {

using bignum::BigInt;

std::shared_ptr<PirDatabase> RandomDatabase(size_t rows, size_t cols,
                                            uint64_t seed) {
  auto db = std::make_shared<PirDatabase>(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      db->SetBit(i, j, rng.Bernoulli(0.5));
    }
  }
  return db;
}

TEST(PirDatabaseTest, BitAccessors) {
  PirDatabase db(10, 3);
  EXPECT_FALSE(db.GetBit(4, 1));
  db.SetBit(4, 1, true);
  EXPECT_TRUE(db.GetBit(4, 1));
  db.SetBit(4, 1, false);
  EXPECT_FALSE(db.GetBit(4, 1));
  EXPECT_EQ(db.rows(), 10u);
  EXPECT_EQ(db.cols(), 3u);
}

TEST(PirDatabaseTest, ColumnFromBytesIsMsbFirst) {
  PirDatabase db(16, 2);
  db.SetColumnFromBytes(1, {0x80, 0x01});
  EXPECT_TRUE(db.GetBit(0, 1));    // MSB of byte 0
  EXPECT_FALSE(db.GetBit(1, 1));
  EXPECT_TRUE(db.GetBit(15, 1));   // LSB of byte 1
  EXPECT_FALSE(db.GetBit(0, 0));   // other column untouched
}

TEST(PirClientTest, CreateRejectsBadKeyBits) {
  Rng rng(1);
  EXPECT_FALSE(PirClient::Create(64, &rng).ok());
  EXPECT_FALSE(PirClient::Create(8192, &rng).ok());
}

TEST(PirClientTest, QueryValidation) {
  Rng rng(2);
  auto client = PirClient::Create(128, &rng);
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client->BuildQuery(3, 3, &rng).ok());  // col out of range
  EXPECT_FALSE(client->BuildQuery(0, 0, &rng).ok());  // empty database
  EXPECT_TRUE(client->BuildQuery(2, 3, &rng).ok());
}

TEST(PirClientTest, QueryValuesHaveJacobiOne) {
  // Security property: every q_j (QR or QNR) has Jacobi symbol +1, so the
  // server cannot spot the target column via the Jacobi symbol.
  Rng rng(3);
  auto client = PirClient::Create(128, &rng);
  ASSERT_TRUE(client.ok());
  auto query = client->BuildQuery(2, 6, &rng);
  ASSERT_TRUE(query.ok());
  for (const BigInt& q : query->q) {
    EXPECT_EQ(bignum::Jacobi(q, query->n), 1);
  }
}

TEST(PirClientTest, ExactlyTargetColumnIsQnr) {
  Rng rng(4);
  auto client = PirClient::Create(128, &rng);
  ASSERT_TRUE(client.ok());
  auto query = client->BuildQuery(2, 5, &rng);
  ASSERT_TRUE(query.ok());
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(client->IsQuadraticResidue(query->q[j]), j != 2) << j;
  }
}

TEST(PirEndToEndTest, RetrievesEveryColumnCorrectly) {
  auto db = RandomDatabase(96, 6, 55);
  Rng rng(5);
  auto client = PirClient::Create(128, &rng);
  ASSERT_TRUE(client.ok());
  PirServer server(db);
  for (size_t col = 0; col < 6; ++col) {
    auto query = client->BuildQuery(col, 6, &rng);
    ASSERT_TRUE(query.ok());
    auto response = server.Answer(*query);
    ASSERT_TRUE(response.ok());
    auto bits = client->DecodeResponse(*response);
    ASSERT_TRUE(bits.ok());
    ASSERT_EQ(bits->size(), 96u);
    for (size_t row = 0; row < 96; ++row) {
      EXPECT_EQ((*bits)[row], db->GetBit(row, col))
          << "col " << col << " row " << row;
    }
  }
}

TEST(PirEndToEndTest, AllZeroAndAllOneColumns) {
  auto db = std::make_shared<PirDatabase>(32, 2);
  for (size_t i = 0; i < 32; ++i) db->SetBit(i, 1, true);
  Rng rng(6);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  for (size_t col = 0; col < 2; ++col) {
    auto query = client->BuildQuery(col, 2, &rng);
    auto response = server.Answer(*query);
    auto bits = client->DecodeResponse(*response);
    ASSERT_TRUE(bits.ok());
    for (size_t row = 0; row < 32; ++row) {
      EXPECT_EQ((*bits)[row], col == 1);
    }
  }
}

TEST(PirServerTest, RejectsWidthMismatch) {
  auto db = RandomDatabase(8, 4, 7);
  Rng rng(7);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  auto query = client->BuildQuery(1, 3, &rng);  // 3 != 4 columns
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(server.Answer(*query).ok());
}

TEST(PirServerTest, ReportsMultiplicationCount) {
  auto db = RandomDatabase(16, 3, 8);
  Rng rng(8);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  auto query = client->BuildQuery(0, 3, &rng);
  uint64_t ops = 0;
  auto response = server.Answer(*query, &ops);
  ASSERT_TRUE(response.ok());
  // cols < 4 stays on the naive chain: rows x cols products.
  EXPECT_EQ(ops, 16u * 3u);
}

TEST(PirServerTest, ReportsTablePathCountWhenTablesPay) {
  // 16 x 4: one width-4 group costs 2*(16-4-1) = 22 subset-chain muls plus
  // 16 fold muls, and its rows cost none: 38 < the naive 64, so the
  // cost-model gate takes the tables even though rows < 128 (the old cliff
  // kept small matrices naive).
  auto db = RandomDatabase(16, 4, 8);
  Rng rng(8);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  auto query = client->BuildQuery(0, 4, &rng);
  uint64_t ops = 0;
  auto response = server.Answer(*query, &ops);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ops, 22u + 16u);
}

TEST(PirWireTest, QueryAndResponseSizes) {
  // Appendix A.1: response is KeyLen x max|Li| -> rows x key_bytes bytes.
  auto db = RandomDatabase(64, 5, 9);
  Rng rng(9);
  auto client = PirClient::Create(256, &rng);
  PirServer server(db);
  auto query = client->BuildQuery(2, 5, &rng);
  EXPECT_EQ(query->WireBytes(), (1 + 5) * client->key_bytes());
  auto response = server.Answer(*query);
  EXPECT_EQ(response->WireBytes(client->key_bytes()),
            64 * client->key_bytes());
}

TEST(PirClientTest, DecodeRejectsCorruptResponse) {
  Rng rng(10);
  auto client = PirClient::Create(128, &rng);
  const size_t width = client->key_bytes() + 1;
  const std::vector<BigInt> zero{BigInt(0)};  // zero is not in Z*_n
  EXPECT_FALSE(client->DecodeResponse(PirResponse::FromValues(zero, width))
                   .ok());
  const std::vector<BigInt> big{client->n() + BigInt(5)};
  EXPECT_FALSE(
      client->DecodeResponse(PirResponse::FromValues(big, width)).ok());
}

TEST(PirEndToEndTest, DistinctClientsInteroperate) {
  // Two clients with different keys query the same server.
  auto db = RandomDatabase(40, 3, 11);
  PirServer server(db);
  for (uint64_t seed : {20ULL, 21ULL}) {
    Rng rng(seed);
    auto client = PirClient::Create(128, &rng);
    auto query = client->BuildQuery(1, 3, &rng);
    auto response = server.Answer(*query);
    auto bits = client->DecodeResponse(*response);
    ASSERT_TRUE(bits.ok());
    for (size_t row = 0; row < 40; ++row) {
      EXPECT_EQ((*bits)[row], db->GetBit(row, 1));
    }
  }
}

class PirMatrixSweepTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(PirMatrixSweepTest, FullMatrixRecovery) {
  auto [rows, cols] = GetParam();
  auto db = RandomDatabase(rows, cols, rows * 100 + cols);
  Rng rng(12);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  // Recover the full matrix one column at a time.
  for (size_t col = 0; col < cols; ++col) {
    auto query = client->BuildQuery(col, cols, &rng);
    auto response = server.Answer(*query);
    auto bits = client->DecodeResponse(*response);
    ASSERT_TRUE(bits.ok());
    for (size_t row = 0; row < rows; ++row) {
      ASSERT_EQ((*bits)[row], db->GetBit(row, col));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PirMatrixSweepTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{8, 1},
                      std::pair<size_t, size_t>{1, 8},
                      std::pair<size_t, size_t>{64, 2},
                      std::pair<size_t, size_t>{33, 7}));

// Euler's criterion, the residuosity test the Legendre-symbol decode
// replaced: v is a QR mod p iff v^{(p-1)/2} == 1 (mod p), so a multiple of p
// (v^{(p-1)/2} == 0) counts as a non-residue.
bool EulerQr(const BigInt& v, const BigInt& p) {
  return bignum::ModExp(v, (p - BigInt(1)) >> 1, p).IsOne();
}

// The Euler-criterion query sampler BuildQuery used before, draw for draw.
std::vector<BigInt> EulerQuery(const PirClient& client, size_t target,
                               size_t cols, Rng* rng) {
  std::vector<BigInt> q;
  for (size_t j = 0; j < cols; ++j) {
    if (j == target) {
      while (true) {
        BigInt z = bignum::RandomUnit(client.n(), rng);
        if (EulerQr(z, client.p1())) continue;
        if (EulerQr(z, client.p2())) continue;
        q.push_back(std::move(z));
        break;
      }
    } else {
      BigInt w = bignum::RandomUnit(client.n(), rng);
      q.push_back(bignum::ModMulReduced(w, w, client.n()));
    }
  }
  return q;
}

class PirDecodeDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PirDecodeDifferentialTest, DecodeMatchesEulerOnEveryResidueClass) {
  const size_t bits = GetParam();
  Rng rng(700 + bits);
  auto client = PirClient::Create(bits, &rng);
  ASSERT_TRUE(client.ok());
  const BigInt& n = client->n();
  const BigInt& p1 = client->p1();
  const BigInt& p2 = client->p2();

  // Rows drawn until every (QR mod p1?, QR mod p2?) class has 6 members,
  // plus multiples of p1 and of p2 (nonzero, below n: not units).
  std::vector<BigInt> gamma;
  int classes[2][2] = {{0, 0}, {0, 0}};
  while (classes[0][0] < 6 || classes[0][1] < 6 || classes[1][0] < 6 ||
         classes[1][1] < 6) {
    BigInt v = bignum::RandomUnit(n, &rng);
    int& seen = classes[EulerQr(v, p1)][EulerQr(v, p2)];
    if (seen < 6) {
      ++seen;
      gamma.push_back(std::move(v));
    }
  }
  for (uint64_t m : {1ULL, 2ULL, 3ULL, 1000003ULL}) {
    gamma.push_back(p1 * BigInt(m));
    gamma.push_back(p2 * BigInt(m));
  }
  gamma.push_back(p1 * (p2 - BigInt(1)));
  gamma.push_back(p2 * (p1 - BigInt(1)));

  auto decoded = client->DecodeResponse(
      PirResponse::FromValues(gamma, client->key_bytes()));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), gamma.size());
  for (size_t i = 0; i < gamma.size(); ++i) {
    const BigInt& v = gamma[i];
    const bool qr = EulerQr(v, p1) && EulerQr(v, p2);
    EXPECT_EQ((*decoded)[i], !qr) << "row " << i << " v=" << v.ToHexString();
    EXPECT_EQ(client->IsQuadraticResidue(v), qr) << "row " << i;
  }
  // Unreduced and zero inputs to the public residuosity test.
  EXPECT_EQ(client->IsQuadraticResidue(gamma[0] + n * BigInt(3)),
            EulerQr(gamma[0], p1) && EulerQr(gamma[0], p2));
  EXPECT_FALSE(client->IsQuadraticResidue(BigInt(0)));
}

TEST_P(PirDecodeDifferentialTest, BuildQueryMatchesEulerSampler) {
  const size_t bits = GetParam();
  Rng key_rng(800 + bits);
  auto client = PirClient::Create(bits, &key_rng);
  ASSERT_TRUE(client.ok());
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (size_t target : {size_t{0}, size_t{4}, size_t{7}}) {
      Rng a(seed);
      Rng b(seed);
      auto query = client->BuildQuery(target, 8, &a);
      ASSERT_TRUE(query.ok());
      EXPECT_EQ(query->q, EulerQuery(*client, target, 8, &b))
          << "seed " << seed << " target " << target;
      // Both samplers consumed the same draws.
      EXPECT_EQ(a.Next64(), b.Next64());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KeyWidths, PirDecodeDifferentialTest,
                         ::testing::Values(128, 256, 512, 1024));

}  // namespace
}  // namespace embellish::crypto
