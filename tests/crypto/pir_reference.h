// Test-only references for the PIR response path, as it stood when every
// row was a BigInt: the seed-style naive answer (one GetBit and one
// allocating MontMul per (row, column)) with each residue zero-padded to
// the byte length of n, the payload parser that read a BigInt per
// row, and the decoder that range-checked and tested each BigInt. The flat
// production path must match them byte for byte and status for status.

#ifndef EMBELLISH_TESTS_CRYPTO_PIR_REFERENCE_H_
#define EMBELLISH_TESTS_CRYPTO_PIR_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bignum/montgomery.h"
#include "common/endian.h"
#include "crypto/pir.h"

namespace embellish::crypto::reference {

// gamma_i = prod_j (b_ij ? q_j : q_j^2), one row at a time.
inline std::vector<bignum::BigInt> AnswerValues(const PirDatabase& db,
                                                const PirQuery& query) {
  auto mont_res = bignum::MontgomeryContext::Create(query.n);
  EXPECT_TRUE(mont_res.ok());
  const bignum::MontgomeryContext& mont = mont_res.value();
  const size_t cols = db.cols();
  std::vector<std::vector<uint64_t>> q_mont(cols);
  std::vector<std::vector<uint64_t>> q2_mont(cols);
  for (size_t j = 0; j < cols; ++j) {
    q_mont[j] = mont.ToMontgomery(query.q[j]);
    q2_mont[j] = mont.MontMul(q_mont[j], q_mont[j]);
  }
  std::vector<bignum::BigInt> gamma;
  for (size_t i = 0; i < db.rows(); ++i) {
    std::vector<uint64_t> acc = mont.One();
    for (size_t j = 0; j < cols; ++j) {
      acc = mont.MontMul(acc, db.GetBit(i, j) ? q_mont[j] : q2_mont[j]);
    }
    gamma.push_back(mont.FromMontgomery(acc));
  }
  return gamma;
}

// `v` as `width` big-endian bytes, zero-padded; `v` must fit. Built on the
// minimal serialization, so it shares no code with the padded limb writer
// the production path uses.
inline void AppendPadded(const bignum::BigInt& v, size_t width,
                         std::vector<uint8_t>* out) {
  const std::vector<uint8_t> raw = v.ToBigEndianBytes();
  EXPECT_LE(raw.size(), width);
  out->insert(out->end(), width - std::min(width, raw.size()), 0);
  out->insert(out->end(), raw.begin(), raw.end());
}

// The naive answer encoded the old way: each BigInt padded to the byte
// length of n, concatenated.
inline PirResponse AnswerSerialReference(const PirDatabase& db,
                                         const PirQuery& query) {
  const size_t width = (query.n.BitLength() + 7) / 8;
  std::vector<uint8_t> bytes;
  for (const bignum::BigInt& g : AnswerValues(db, query)) {
    AppendPadded(g, width, &bytes);
  }
  return PirResponse(width, std::move(bytes));
}

// The old EncodePirResponse: [u32 value_size][u32 count], then each value
// padded to value_size bytes.
inline std::vector<uint8_t> EncodePirResponseValues(
    const std::vector<bignum::BigInt>& gamma, size_t value_size) {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(value_size));
  PutU32(&out, static_cast<uint32_t>(gamma.size()));
  for (const bignum::BigInt& g : gamma) AppendPadded(g, value_size, &out);
  return out;
}

// The old DecodePirResponse: [u32 value_size][u32 count], then count
// BigInts of value_size bytes and nothing after them.
inline Result<std::vector<bignum::BigInt>> DecodePirResponseValues(
    const std::vector<uint8_t>& payload) {
  if (payload.size() < 8) return Status::Corruption("truncated header");
  const size_t value_size = GetU32(payload.data());
  const size_t count = GetU32(payload.data() + 4);
  if (value_size == 0) return Status::Corruption("zero value size");
  const size_t remaining = payload.size() - 8;
  if (count > remaining / value_size) {
    return Status::Corruption("count overflows payload");
  }
  std::vector<bignum::BigInt> gamma;
  size_t pos = 8;
  for (size_t i = 0; i < count; ++i, pos += value_size) {
    gamma.push_back(bignum::BigInt::FromBigEndianBytes(std::vector<uint8_t>(
        payload.begin() + static_cast<long>(pos),
        payload.begin() + static_cast<long>(pos + value_size))));
  }
  if (pos != payload.size()) return Status::Corruption("trailing bytes");
  return gamma;
}

// The old PirClient::DecodeResponse: every row in [1, n), then one
// residuosity test per row.
inline Result<std::vector<bool>> DecodeValues(
    const PirClient& client, const std::vector<bignum::BigInt>& gamma) {
  std::vector<bool> bits;
  for (const bignum::BigInt& g : gamma) {
    if (g.IsZero() || g >= client.n()) {
      return Status::Corruption("PIR response value outside Z*_n");
    }
    bits.push_back(!client.IsQuadraticResidue(g));
  }
  return bits;
}

// Equal shapes and equal bytes, naming the first row that differs.
inline ::testing::AssertionResult SameResponse(const PirResponse& actual,
                                               const PirResponse& expected) {
  if (actual.value_size() != expected.value_size() ||
      actual.rows() != expected.rows()) {
    return ::testing::AssertionFailure()
           << actual.rows() << " rows of " << actual.value_size()
           << " bytes, expected " << expected.rows() << " of "
           << expected.value_size();
  }
  for (size_t i = 0; i < actual.rows(); ++i) {
    if (!std::ranges::equal(actual.value(i), expected.value(i))) {
      return ::testing::AssertionFailure() << "row " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace embellish::crypto::reference

#endif  // EMBELLISH_TESTS_CRYPTO_PIR_REFERENCE_H_
