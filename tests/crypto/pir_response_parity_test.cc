// Untrusted-input parity of the flat PIR response path: DecodePirResponse
// followed by PirClient::DecodeResponse must accept and reject exactly the
// payloads the BigInt-per-row path accepted and rejected, with the same
// bits and the same status codes — on hand-made malformed payloads and on a
// seeded mutation loop over captured valid ones.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bignum/modmath.h"
#include "common/endian.h"
#include "crypto/pir.h"
#include "crypto/pir_reference.h"
#include "server/framing.h"

namespace embellish::crypto {
namespace {

using bignum::BigInt;

struct Outcome {
  StatusCode code = StatusCode::kOk;
  std::vector<bool> bits;

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "code " << static_cast<int>(o.code) << ", " << o.bits.size()
            << " bits";
}

Outcome FlatPath(const PirClient& client, const std::vector<uint8_t>& payload) {
  auto response = server::DecodePirResponse(payload);
  if (!response.ok()) return {response.status().code(), {}};
  auto bits = client.DecodeResponse(*response);
  if (!bits.ok()) return {bits.status().code(), {}};
  return {StatusCode::kOk, std::move(bits).value()};
}

Outcome BigIntPath(const PirClient& client,
                   const std::vector<uint8_t>& payload) {
  auto values = reference::DecodePirResponseValues(payload);
  if (!values.ok()) return {values.status().code(), {}};
  auto bits = reference::DecodeValues(client, *values);
  if (!bits.ok()) return {bits.status().code(), {}};
  return {StatusCode::kOk, std::move(bits).value()};
}

// [u32 value_size][u32 count] followed by `body`.
std::vector<uint8_t> Payload(uint32_t value_size, uint32_t count,
                             const std::vector<uint8_t>& body) {
  std::vector<uint8_t> out;
  PutU32(&out, value_size);
  PutU32(&out, count);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// Each value's low `width` bytes, big-endian.
std::vector<uint8_t> Body(const std::vector<BigInt>& values, size_t width) {
  std::vector<uint8_t> out(values.size() * width);
  for (size_t i = 0; i < values.size(); ++i) {
    const std::vector<uint64_t>& limbs = values[i].limbs();
    bignum::LimbsToBigEndian(limbs.data(), limbs.size(),
                             out.data() + i * width, width);
  }
  return out;
}

class PirResponseParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(31);
    client_ = std::make_unique<PirClient>(*PirClient::Create(256, &rng));
    // Captured server payloads: a 4-column bucket (pattern copies, many
    // repeated residues) and a 16-column one (combined tables).
    for (size_t cols : {4u, 16u}) {
      const size_t rows = cols == 4 ? 48 : 120;
      auto db = std::make_shared<PirDatabase>(rows, cols);
      for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < cols; ++j) db->SetBit(i, j, rng.Bernoulli(0.5));
      }
      PirServer server(db);
      auto query = client_->BuildQuery(1, cols, &rng);
      ASSERT_TRUE(query.ok());
      auto response = server.Answer(*query);
      ASSERT_TRUE(response.ok());
      valid_.push_back(server::EncodePirResponse(*response));
    }
  }

  void ExpectParity(const std::vector<uint8_t>& payload, const char* what) {
    const Outcome flat = FlatPath(*client_, payload);
    const Outcome reference = BigIntPath(*client_, payload);
    EXPECT_EQ(flat, reference) << what << " (" << payload.size() << " bytes)";
  }

  std::unique_ptr<PirClient> client_;
  std::vector<std::vector<uint8_t>> valid_;
};

TEST_F(PirResponseParityTest, ValidPayloadsDecodeIdentically) {
  for (const auto& payload : valid_) {
    const Outcome flat = FlatPath(*client_, payload);
    EXPECT_EQ(flat.code, StatusCode::kOk);
    EXPECT_EQ(flat, BigIntPath(*client_, payload));
  }
  ExpectParity(Payload(32, 0, {}), "empty response");
}

TEST_F(PirResponseParityTest, MalformedFramingIsRejectedIdentically) {
  const std::vector<uint8_t>& valid = valid_[0];
  ExpectParity({}, "no header");
  ExpectParity(Payload(0, 0, {}), "value_size 0, no rows");
  ExpectParity(Payload(0, 3, {1, 2, 3}), "value_size 0 with rows");
  ExpectParity(Payload(32, 0xFFFFFFFFu, std::vector<uint8_t>(64, 1)),
               "count overflowing the bytes present");
  ExpectParity(Payload(0xFFFFFFFFu, 2, std::vector<uint8_t>(64, 1)),
               "value_size overflowing the bytes present");
  for (size_t cut = 0; cut < valid.size(); cut += 7) {
    ExpectParity(std::vector<uint8_t>(valid.begin(),
                                      valid.begin() + static_cast<long>(cut)),
                 "truncated");
  }
  std::vector<uint8_t> trailing = valid;
  trailing.push_back(0);
  ExpectParity(trailing, "one trailing byte");
  trailing.insert(trailing.end(), 31, 0);
  ExpectParity(trailing, "a whole value of trailing bytes");
}

TEST_F(PirResponseParityTest, OutOfRangeResiduesAndWidthsMatch) {
  const BigInt& n = client_->n();
  const size_t kb = client_->key_bytes();
  Rng rng(37);
  std::vector<BigInt> units;
  for (int i = 0; i < 6; ++i) units.push_back(bignum::RandomUnit(n, &rng));

  for (const BigInt& bad : {BigInt(0), n, n + BigInt(1), n + n - BigInt(1)}) {
    for (size_t at : {size_t{0}, size_t{3}, size_t{6}}) {
      std::vector<BigInt> values = units;
      values.insert(values.begin() + static_cast<long>(at), bad);
      const size_t width = (bad.BitLength() + 7) / 8 > kb ? kb + 1 : kb;
      ExpectParity(Payload(static_cast<uint32_t>(width),
                           static_cast<uint32_t>(values.size()),
                           Body(values, width)),
                   "out-of-range residue");
    }
  }
  // Wider than n: zero-padded values decode as before; a nonzero extra
  // byte puts the value above n.
  for (size_t width : {kb + 1, kb + 8, 2 * kb}) {
    std::vector<uint8_t> body = Body(units, width);
    ExpectParity(Payload(static_cast<uint32_t>(width),
                         static_cast<uint32_t>(units.size()), body),
                 "zero-padded wide values");
    body[width] = 1;  // second value's top byte
    ExpectParity(Payload(static_cast<uint32_t>(width),
                         static_cast<uint32_t>(units.size()), body),
                 "wide value above n");
  }
  // Narrower than n: each value's low bytes, below n by width alone, may
  // still be zero or a non-unit.
  for (size_t width : {kb - 1, size_t{8}, size_t{1}}) {
    std::vector<uint8_t> body = Body(units, width);
    ExpectParity(Payload(static_cast<uint32_t>(width),
                         static_cast<uint32_t>(units.size()), body),
                 "narrow values");
    std::fill(body.begin() + static_cast<long>(width),
              body.begin() + static_cast<long>(2 * width), 0);
    ExpectParity(Payload(static_cast<uint32_t>(width),
                         static_cast<uint32_t>(units.size()), body),
                 "narrow zero value");
  }
  // Every row the same value, valid and invalid.
  ExpectParity(Payload(static_cast<uint32_t>(kb), 40,
                       Body(std::vector<BigInt>(40, units[0]), kb)),
               "one repeated residue");
  ExpectParity(Payload(static_cast<uint32_t>(kb), 40,
                       Body(std::vector<BigInt>(40, n), kb)),
               "one repeated residue equal to n");
}

TEST_F(PirResponseParityTest, SeededMutationLoop) {
  Rng rng(41);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<uint8_t> payload = valid_[rng.Uniform(valid_.size())];
    const int mutations = 1 + static_cast<int>(rng.Uniform(3));
    for (int m = 0; m < mutations && !payload.empty(); ++m) {
      switch (rng.Uniform(5)) {
        case 0:
        case 1: {  // bit flip anywhere, header included
          const size_t pos = rng.Uniform(payload.size());
          payload[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
          break;
        }
        case 2:  // truncation
          payload.resize(rng.Uniform(payload.size()));
          break;
        case 3: {  // length lie in value_size or count
          if (payload.size() < 8) break;
          const size_t field = rng.Uniform(2) * 4;
          uint32_t v = GetU32(payload.data() + field);
          switch (rng.Uniform(3)) {
            case 0: v += 1; break;
            case 1: v -= 1; break;
            default: v = static_cast<uint32_t>(rng.Next64()); break;
          }
          std::vector<uint8_t> bytes;
          PutU32(&bytes, v);
          std::copy(bytes.begin(), bytes.end(), payload.begin() + field);
          break;
        }
        default:  // trailing garbage
          payload.resize(payload.size() + 1 + rng.Uniform(40),
                         static_cast<uint8_t>(rng.Uniform(256)));
          break;
      }
    }
    const Outcome flat = FlatPath(*client_, payload);
    const Outcome reference = BigIntPath(*client_, payload);
    ASSERT_EQ(flat, reference) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace embellish::crypto
