#include "crypto/benaloh.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <unordered_map>

#include "bignum/modmath.h"

namespace embellish::crypto {
namespace {

using bignum::BigInt;

// The textbook full-width decryption, kept as the test oracle for the
// subgroup-mod-p1 path: a = c^{phi/r} mod n = x^m with x = g^{phi/r} mod n,
// then either the Appendix A.2 digit procedure or baby-step/giant-step over
// x with hex-keyed tables, all on allocating value arithmetic mod n.
Result<uint64_t> ReferenceDecrypt(const BenalohPublicKey& pk,
                                  const BenalohPrivateKey& sk,
                                  const BenalohCiphertext& c, bool digits) {
  const BigInt& n = pk.n();
  const uint64_t r = pk.r();
  if (c.value.IsZero() || c.value >= n) {
    return Status::CryptoError("ciphertext outside Z*_n");
  }
  const uint64_t k = ExactPowerOfThree(r);
  if (digits && k == 0) {
    return Status::InvalidArgument("r is not a power of three");
  }
  const BigInt phi_over_r =
      (sk.p1() - BigInt(1)) * (sk.p2() - BigInt(1)) / BigInt(r);
  const BigInt x = bignum::ModExp(pk.g(), phi_over_r, n);
  EMB_ASSIGN_OR_RETURN(BigInt x_inv, bignum::ModInverse(x, n));
  const BigInt a = bignum::ModExp(c.value, phi_over_r, n);

  if (!digits) {
    const auto t = static_cast<uint64_t>(
        std::ceil(std::sqrt(static_cast<double>(r))));
    std::unordered_map<std::string, uint64_t> baby;
    BigInt cur(1);
    for (uint64_t j = 0; j < t; ++j) {
      baby.emplace(cur.ToHexString(), j);
      cur = cur * x % n;
    }
    const BigInt giant = bignum::ModExp(x_inv, BigInt(t), n);
    BigInt gamma = a;
    for (uint64_t i = 0; i * t < r + t; ++i) {
      auto it = baby.find(gamma.ToHexString());
      if (it != baby.end() && i * t + it->second < r) {
        return i * t + it->second;
      }
      gamma = gamma * giant % n;
    }
    return Status::CryptoError("BSGS discrete log not found");
  }

  BigInt pow3_km1(1);
  for (uint64_t i = 0; i + 1 < k; ++i) pow3_km1 = pow3_km1 * BigInt(3);
  const BigInt w = bignum::ModExp(x, pow3_km1, n);
  const BigInt w2 = w * w % n;
  uint64_t m = 0;
  uint64_t pow3_i = 1;
  BigInt residual = a;
  BigInt exp = pow3_km1;
  for (uint64_t i = 0; i < k; ++i) {
    const BigInt probe = bignum::ModExp(residual, exp, n);
    uint64_t digit;
    if (probe.IsOne()) {
      digit = 0;
    } else if (probe == w) {
      digit = 1;
    } else if (probe == w2) {
      digit = 2;
    } else {
      return Status::CryptoError("digit recovery failed");
    }
    if (digit != 0) {
      m += digit * pow3_i;
      residual =
          residual * bignum::ModExp(x_inv, BigInt(digit * pow3_i), n) % n;
    }
    pow3_i *= 3;
    exp = exp / BigInt(3);
  }
  return m;
}

BenalohKeyPair MakeKeys(uint64_t r, size_t bits = 256, uint64_t seed = 1) {
  Rng rng(seed);
  BenalohKeyOptions options;
  options.key_bits = bits;
  options.r = r;
  auto kp = BenalohKeyPair::Generate(options, &rng);
  EXPECT_TRUE(kp.ok()) << kp.status().ToString();
  return std::move(kp).value();
}

TEST(BenalohOptionsTest, Validation) {
  BenalohKeyOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.key_bits = 64;
  EXPECT_FALSE(o.Validate().ok());
  o.key_bits = 8192;
  EXPECT_FALSE(o.Validate().ok());
  o = BenalohKeyOptions{};
  o.r = 1;
  EXPECT_FALSE(o.Validate().ok());
  o = BenalohKeyOptions{};
  o.r = 100;  // even r: gcd(r, p2-1) = 1 is unsatisfiable
  EXPECT_FALSE(o.Validate().ok());
  o = BenalohKeyOptions{};
  o.r = (1ULL << 33) + 1;  // beyond the practical decryption cap
  EXPECT_FALSE(o.Validate().ok());
}

TEST(BenalohHelperTest, ExactPowerOfThree) {
  EXPECT_EQ(ExactPowerOfThree(1), 0u);
  EXPECT_EQ(ExactPowerOfThree(2), 0u);
  EXPECT_EQ(ExactPowerOfThree(3), 1u);
  EXPECT_EQ(ExactPowerOfThree(9), 2u);
  EXPECT_EQ(ExactPowerOfThree(59049), 10u);
  EXPECT_EQ(ExactPowerOfThree(59048), 0u);
  EXPECT_EQ(ExactPowerOfThree(6), 0u);
}

TEST(BenalohHelperTest, DistinctPrimeFactors) {
  EXPECT_EQ(DistinctPrimeFactors(59049), std::vector<uint64_t>{3});
  EXPECT_EQ(DistinctPrimeFactors(12), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(DistinctPrimeFactors(97), std::vector<uint64_t>{97});
  EXPECT_EQ(DistinctPrimeFactors(30), (std::vector<uint64_t>{2, 3, 5}));
}

TEST(BenalohTest, EncryptRejectsOutOfRangeMessage) {
  auto kp = MakeKeys(729);
  Rng rng(2);
  EXPECT_FALSE(kp.public_key().Encrypt(729, &rng).ok());
  EXPECT_FALSE(kp.public_key().Encrypt(100000, &rng).ok());
  EXPECT_TRUE(kp.public_key().Encrypt(728, &rng).ok());
}

TEST(BenalohTest, RoundTripAllMessagesSmallR) {
  auto kp = MakeKeys(27);
  Rng rng(3);
  for (uint64_t m = 0; m < 27; ++m) {
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    auto d = kp.private_key().Decrypt(*c);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, m);
  }
}

TEST(BenalohTest, BothDecryptionModesAgree) {
  auto kp = MakeKeys(729);
  Rng rng(4);
  for (uint64_t m : {0ULL, 1ULL, 2ULL, 3ULL, 26ULL, 364ULL, 728ULL}) {
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    auto bsgs = kp.private_key().DecryptWith(
        *c, BenalohDecryptMode::kBabyStepGiantStep);
    auto digits = kp.private_key().DecryptWith(
        *c, BenalohDecryptMode::kPowerOfThreeDigits);
    ASSERT_TRUE(bsgs.ok());
    ASSERT_TRUE(digits.ok());
    EXPECT_EQ(*bsgs, m);
    EXPECT_EQ(*digits, m);
  }
}

TEST(BenalohTest, NonPowerOfThreeRUsesBsgs) {
  auto kp = MakeKeys(175);  // r = 5^2 * 7
  Rng rng(5);
  for (uint64_t m : {0ULL, 1ULL, 50ULL, 174ULL}) {
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*kp.private_key().Decrypt(*c), m);
    // Digit mode must refuse.
    EXPECT_FALSE(kp.private_key()
                     .DecryptWith(*c, BenalohDecryptMode::kPowerOfThreeDigits)
                     .ok());
  }
}

TEST(BenalohTest, ProbabilisticEncryptionDiffersAcrossCalls) {
  auto kp = MakeKeys(729);
  Rng rng(6);
  auto c1 = kp.public_key().Encrypt(5, &rng);
  auto c2 = kp.public_key().Encrypt(5, &rng);
  EXPECT_NE(c1->value, c2->value);  // fresh randomness per encryption
  EXPECT_EQ(*kp.private_key().Decrypt(*c1), 5u);
  EXPECT_EQ(*kp.private_key().Decrypt(*c2), 5u);
}

TEST(BenalohTest, AdditiveHomomorphism) {
  auto kp = MakeKeys(729);
  Rng rng(7);
  for (auto [a, b] : {std::pair<uint64_t, uint64_t>{0, 0},
                      {1, 2},
                      {100, 200},
                      {364, 364},
                      {728, 1}}) {
    auto ca = kp.public_key().Encrypt(a, &rng);
    auto cb = kp.public_key().Encrypt(b, &rng);
    auto sum = kp.public_key().Add(*ca, *cb);
    EXPECT_EQ(*kp.private_key().Decrypt(sum), (a + b) % 729);
  }
}

TEST(BenalohTest, ScalarMultiplication) {
  auto kp = MakeKeys(729);
  Rng rng(8);
  auto c = kp.public_key().Encrypt(7, &rng);
  EXPECT_EQ(*kp.private_key().Decrypt(kp.public_key().ScalarMul(*c, 3)), 21u);
  EXPECT_EQ(*kp.private_key().Decrypt(kp.public_key().ScalarMul(*c, 104)),
            (7 * 104) % 729);
  // The decoy property of Algorithm 4: E(0)^p stays an encryption of 0.
  auto zero = kp.public_key().Encrypt(0, &rng);
  for (uint64_t p : {1ULL, 17ULL, 255ULL}) {
    EXPECT_EQ(*kp.private_key().Decrypt(kp.public_key().ScalarMul(*zero, p)),
              0u);
  }
}

TEST(BenalohTest, Algorithm4AccumulationPattern) {
  // E(score) = prod E(u_i)^{p_i} must decrypt to sum(u_i * p_i).
  auto kp = MakeKeys(59049);
  Rng rng(9);
  const uint64_t u[] = {1, 0, 1, 0, 1};
  const uint64_t p[] = {200, 255, 13, 99, 1};
  uint64_t expected = 0;
  BenalohCiphertext acc;
  bool first = true;
  for (int i = 0; i < 5; ++i) {
    auto c = kp.public_key().Encrypt(u[i], &rng);
    auto powered = kp.public_key().ScalarMul(*c, p[i]);
    if (first) {
      acc = powered;
      first = false;
    } else {
      acc = kp.public_key().Add(acc, powered);
    }
    expected += u[i] * p[i];
  }
  EXPECT_EQ(*kp.private_key().Decrypt(acc), expected);
}

TEST(BenalohTest, SerializationRoundTrip) {
  auto kp = MakeKeys(729);
  Rng rng(10);
  auto c = kp.public_key().Encrypt(123, &rng);
  auto bytes = kp.public_key().Serialize(*c);
  EXPECT_EQ(bytes.size(), kp.public_key().CiphertextBytes());
  auto back = kp.public_key().Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->value, c->value);
  EXPECT_EQ(*kp.private_key().Decrypt(*back), 123u);
}

TEST(BenalohTest, DeserializeRejectsCorruptInput) {
  auto kp = MakeKeys(729);
  Rng rng(11);
  auto c = kp.public_key().Encrypt(1, &rng);
  auto bytes = kp.public_key().Serialize(*c);
  // Wrong size.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(kp.public_key().Deserialize(truncated).ok());
  // Value >= n.
  std::vector<uint8_t> huge(bytes.size(), 0xFF);
  EXPECT_FALSE(kp.public_key().Deserialize(huge).ok());
}

TEST(BenalohTest, DecryptRejectsOutOfRangeCiphertext) {
  auto kp = MakeKeys(729);
  BenalohCiphertext zero{bignum::BigInt(0)};
  EXPECT_FALSE(kp.private_key().Decrypt(zero).ok());
  BenalohCiphertext big{kp.public_key().n() + bignum::BigInt(1)};
  EXPECT_FALSE(kp.private_key().Decrypt(big).ok());
}

TEST(BenalohTest, TamperedCiphertextDecodesHomomorphically) {
  // Benaloh has no ciphertext integrity: every unit of Z*_n decrypts, so
  // multiplying by the unit 2 shifts the message by Decrypt(2) instead of
  // failing.
  auto kp = MakeKeys(729);
  Rng rng(12);
  for (uint64_t m : {0ULL, 5ULL, 728ULL}) {
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    BenalohCiphertext tampered{c->value * BigInt(2) % kp.public_key().n()};
    auto shift = kp.private_key().Decrypt(BenalohCiphertext{BigInt(2)});
    auto d = kp.private_key().Decrypt(tampered);
    ASSERT_TRUE(shift.ok());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, (m + *shift) % 729);
  }
}

TEST(BenalohTest, DecryptRejectsNonUnits) {
  auto kp = MakeKeys(729);
  const BigInt& p1 = kp.private_key().p1();
  const BigInt& p2 = kp.private_key().p2();
  for (const BigInt& v : {p1, p1 * BigInt(2), p1 * (p2 - BigInt(1)), p2,
                          p2 * BigInt(3), p2 * (p1 - BigInt(1))}) {
    for (auto mode : {BenalohDecryptMode::kAuto,
                      BenalohDecryptMode::kBabyStepGiantStep,
                      BenalohDecryptMode::kPowerOfThreeDigits}) {
      auto d = kp.private_key().DecryptWith(BenalohCiphertext{v}, mode);
      ASSERT_FALSE(d.ok());
      EXPECT_TRUE(d.status().IsCryptoError()) << d.status().ToString();
    }
  }
}

TEST(BenalohTest, ConcurrentDecryptsShareOneKey) {
  // Decryption reads the key's tables and works in per-thread scratch, so
  // threads sharing one key must all decode every ciphertext.
  auto kp = MakeKeys(59049);
  Rng rng(13);
  std::vector<BenalohCiphertext> cs;
  for (uint64_t m = 0; m < 32; ++m) {
    cs.push_back(*kp.public_key().Encrypt(m * 1847 % 59049, &rng));
  }
  std::vector<int> wrong(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < wrong.size(); ++t) {
    threads.emplace_back([&, t] {
      const auto mode = static_cast<BenalohDecryptMode>(t % 3);
      for (int round = 0; round < 4; ++round) {
        for (uint64_t m = 0; m < cs.size(); ++m) {
          auto d = kp.private_key().DecryptWith(cs[m], mode);
          if (!d.ok() || *d != m * 1847 % 59049) ++wrong[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong, std::vector<int>(4, 0));
}

TEST(BenalohTest, KeyGenerationDeterministicPerSeed) {
  auto kp1 = MakeKeys(729, 256, 77);
  auto kp2 = MakeKeys(729, 256, 77);
  EXPECT_EQ(kp1.public_key().n(), kp2.public_key().n());
  EXPECT_EQ(kp1.public_key().g(), kp2.public_key().g());
  auto kp3 = MakeKeys(729, 256, 78);
  EXPECT_NE(kp1.public_key().n(), kp3.public_key().n());
}

TEST(BenalohTest, CiphertextBytesMatchesKeyWidth) {
  auto kp = MakeKeys(729, 256);
  EXPECT_EQ(kp.public_key().CiphertextBytes(), 32u);
  auto kp512 = MakeKeys(729, 512);
  EXPECT_EQ(kp512.public_key().CiphertextBytes(), 64u);
}

class BenalohRSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BenalohRSweepTest, RoundTripRandomMessages) {
  uint64_t r = GetParam();
  auto kp = MakeKeys(r, 256, 1000 + r);
  Rng rng(13 + r);
  for (int i = 0; i < 10; ++i) {
    uint64_t m = rng.Uniform(r);
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*kp.private_key().Decrypt(*c), m);
  }
}

INSTANTIATE_TEST_SUITE_P(MessageSpaces, BenalohRSweepTest,
                         ::testing::Values(3, 27, 125, 729, 3125, 6561,
                                           59049, 121));

// Every mode of the mod-p1 table path against the full-width reference:
// encryptions of 0, 1, r-1 and random messages, random units of Z*_n (which
// are not encryptions the key produced but decrypt all the same), and the
// rejected inputs, whose status codes must match.
class BenalohDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(BenalohDifferentialTest, MatchesFullWidthReference) {
  const auto [r, bits] = GetParam();
  auto kp = MakeKeys(r, bits, 500 + r + bits);
  const BenalohPublicKey& pk = kp.public_key();
  const BenalohPrivateKey& sk = kp.private_key();
  const bool pow3 = ExactPowerOfThree(r) > 0;
  Rng rng(600 + r + bits);

  std::vector<BenalohCiphertext> inputs;
  std::vector<uint64_t> messages = {0, 1, r - 1};
  for (int i = 0; i < 4; ++i) messages.push_back(rng.Uniform(r));
  for (uint64_t m : messages) {
    auto c = pk.Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    inputs.push_back(*c);
    EXPECT_EQ(*sk.Decrypt(*c), m);
  }
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(BenalohCiphertext{bignum::RandomUnit(pk.n(), &rng)});
  }
  const BigInt& p1 = sk.p1();
  const BigInt& p2 = sk.p2();
  for (const BigInt& bad :
       {BigInt(0), pk.n(), pk.n() + BigInt(1), pk.n() * BigInt(2), p1,
        p1 * BigInt(5), p2, p2 * BigInt(7)}) {
    inputs.push_back(BenalohCiphertext{bad});
  }

  for (const BenalohCiphertext& c : inputs) {
    const auto bsgs_ref = ReferenceDecrypt(pk, sk, c, /*digits=*/false);
    const auto digit_ref = ReferenceDecrypt(pk, sk, c, /*digits=*/true);
    const auto expect_same = [&](const Result<uint64_t>& got,
                                 const Result<uint64_t>& want,
                                 const char* mode) {
      ASSERT_EQ(got.ok(), want.ok())
          << mode << " c=" << c.value.ToHexString() << " got "
          << got.status().ToString() << " want " << want.status().ToString();
      if (want.ok()) {
        EXPECT_EQ(*got, *want) << mode << " c=" << c.value.ToHexString();
      } else {
        EXPECT_EQ(got.status().code(), want.status().code())
            << mode << " c=" << c.value.ToHexString();
      }
    };
    expect_same(sk.DecryptWith(c, BenalohDecryptMode::kBabyStepGiantStep),
                bsgs_ref, "bsgs");
    expect_same(sk.DecryptWith(c, BenalohDecryptMode::kPowerOfThreeDigits),
                digit_ref, "digits");
    expect_same(sk.Decrypt(c), pow3 ? digit_ref : bsgs_ref, "auto");
    if (pow3 && digit_ref.ok()) EXPECT_EQ(*digit_ref, *bsgs_ref);
  }
}

// r: 3^1, 3^6, 3^10 (the default), a prime, and an odd composite (even r is
// rejected by BenalohKeyOptions::Validate, see BenalohOptionsTest).
INSTANTIATE_TEST_SUITE_P(
    KeysAndMessageSpaces, BenalohDifferentialTest,
    ::testing::Combine(::testing::Values(3, 729, 59049, 4099, 1001),
                       ::testing::Values(256, 512, 1024)),
    [](const auto& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_bits" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace embellish::crypto
