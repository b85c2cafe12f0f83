#include "bignum/bigint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bignum/modmath.h"
#include "common/rng.h"

namespace embellish::bignum {
namespace {

using u128 = unsigned __int128;

BigInt FromU128(u128 v) {
  return (BigInt(static_cast<uint64_t>(v >> 64)) << 64) +
         BigInt(static_cast<uint64_t>(v));
}

TEST(BigIntTest, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsOdd());
  EXPECT_TRUE(z.IsEven());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToDecimalString(), "0");
  EXPECT_EQ(z.ToHexString(), "0");
  EXPECT_TRUE(z.ToBigEndianBytes().empty());
}

TEST(BigIntTest, SmallValues) {
  BigInt one(1);
  EXPECT_TRUE(one.IsOne());
  EXPECT_TRUE(one.IsOdd());
  EXPECT_EQ(one.BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt(0xFFFFFFFFFFFFFFFFULL).BitLength(), 64u);
}

TEST(BigIntTest, ComparisonOrdersNumerically) {
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_GT(BigInt(1) << 64, BigInt(0xFFFFFFFFFFFFFFFFULL));
  EXPECT_EQ(BigInt(7), BigInt(7));
  EXPECT_LT(BigInt(), BigInt(1));
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt max64(0xFFFFFFFFFFFFFFFFULL);
  BigInt sum = max64 + BigInt(1);
  EXPECT_EQ(sum, BigInt(1) << 64);
  EXPECT_EQ(sum.LimbCount(), 2u);
}

TEST(BigIntTest, SubtractionBorrowsAcrossLimbs) {
  BigInt two64 = BigInt(1) << 64;
  EXPECT_EQ(two64 - BigInt(1), BigInt(0xFFFFFFFFFFFFFFFFULL));
  EXPECT_EQ(two64 - two64, BigInt());
}

TEST(BigIntTest, AdditionMatches128BitReference) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    uint64_t a = rng.Next64(), b = rng.Next64();
    u128 ref = static_cast<u128>(a) + b;
    EXPECT_EQ(BigInt(a) + BigInt(b), FromU128(ref));
  }
}

TEST(BigIntTest, MultiplicationMatches128BitReference) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    uint64_t a = rng.Next64(), b = rng.Next64();
    u128 ref = static_cast<u128>(a) * b;
    EXPECT_EQ(BigInt(a) * BigInt(b), FromU128(ref));
  }
}

TEST(BigIntTest, MultiplicationIsCommutativeAndAssociative) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    BigInt a = RandomBits(100 + i, &rng);
    BigInt b = RandomBits(80 + i, &rng);
    BigInt c = RandomBits(60 + i, &rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
  }
}

TEST(BigIntTest, DistributiveLaw) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    BigInt a = RandomBits(90, &rng);
    BigInt b = RandomBits(90, &rng);
    BigInt c = RandomBits(90, &rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigIntTest, KaratsubaAgreesWithSchoolbook) {
  // Operands above the Karatsuba threshold (24 limbs = 1536 bits); the
  // identity (a*b)/b == a catches mistakes in either path.
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    BigInt a = RandomBits(2048, &rng);
    BigInt b = RandomBits(1800, &rng);
    BigInt p = a * b;
    EXPECT_EQ(p / b, a);
    EXPECT_EQ(p % b, BigInt());
    EXPECT_EQ(p / a, b);
  }
}

TEST(BigIntTest, ShiftsAreInverse) {
  Rng rng(6);
  for (size_t shift : {1u, 7u, 63u, 64u, 65u, 127u, 200u}) {
    BigInt a = RandomBits(300, &rng);
    EXPECT_EQ((a << shift) >> shift, a);
  }
}

TEST(BigIntTest, ShiftMatchesMultiplication) {
  Rng rng(7);
  BigInt a = RandomBits(200, &rng);
  EXPECT_EQ(a << 1, a * BigInt(2));
  EXPECT_EQ(a << 10, a * BigInt(1024));
  EXPECT_EQ(a >> 400, BigInt());
}

TEST(BigIntTest, DivModSingleLimbMatches128BitReference) {
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    u128 a = (static_cast<u128>(rng.Next64()) << 64) | rng.Next64();
    uint64_t b = rng.Next64() | 1;
    BigInt q, r;
    BigInt::DivMod(FromU128(a), BigInt(b), &q, &r);
    EXPECT_EQ(q, FromU128(a / b));
    EXPECT_EQ(r, BigInt(static_cast<uint64_t>(a % b)));
  }
}

class DivModPropertyTest : public ::testing::TestWithParam<
                               std::pair<size_t, size_t>> {};

TEST_P(DivModPropertyTest, QuotientRemainderIdentity) {
  auto [a_bits, b_bits] = GetParam();
  Rng rng(a_bits * 1000 + b_bits);
  for (int i = 0; i < 300; ++i) {
    BigInt a = RandomBits(a_bits, &rng);
    BigInt b = RandomBits(b_bits, &rng);
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, DivModPropertyTest,
    ::testing::Values(std::pair<size_t, size_t>{128, 64},
                      std::pair<size_t, size_t>{256, 128},
                      std::pair<size_t, size_t>{512, 256},
                      std::pair<size_t, size_t>{512, 500},
                      std::pair<size_t, size_t>{1024, 512},
                      std::pair<size_t, size_t>{100, 300},
                      std::pair<size_t, size_t>{65, 64},
                      std::pair<size_t, size_t>{129, 128}));

TEST(BigIntTest, DivModEdgeCases) {
  BigInt q, r;
  // a < b
  BigInt::DivMod(BigInt(3), BigInt(10), &q, &r);
  EXPECT_EQ(q, BigInt());
  EXPECT_EQ(r, BigInt(3));
  // a == b
  BigInt::DivMod(BigInt(10), BigInt(10), &q, &r);
  EXPECT_EQ(q, BigInt(1));
  EXPECT_EQ(r, BigInt());
  // exact division, multi-limb
  Rng rng(9);
  BigInt b = RandomBits(200, &rng);
  BigInt a = b * BigInt(12345);
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(q, BigInt(12345));
  EXPECT_TRUE(r.IsZero());
}

TEST(BigIntTest, DivisorRequiringAddBackStep) {
  // Knuth's D6 add-back triggers rarely; this constructed case exercises
  // near-maximal qhat estimates: a = (B^2 - 1) * B, b = B^2 - B + ...
  BigInt base = BigInt(1) << 64;
  BigInt a = ((base * base) - BigInt(1)) * base;
  BigInt b = (base * base) - BigInt(1);
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigIntTest, DecimalStringRoundTrip) {
  Rng rng(10);
  for (size_t bits : {1u, 8u, 63u, 64u, 65u, 128u, 500u}) {
    BigInt a = RandomBits(bits, &rng);
    auto parsed = BigInt::FromDecimalString(a.ToDecimalString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, a);
  }
}

TEST(BigIntTest, DecimalStringKnownValues) {
  EXPECT_EQ(BigInt::FromDecimalString("0")->ToDecimalString(), "0");
  EXPECT_EQ(
      BigInt::FromDecimalString("18446744073709551616")->ToHexString(),
      "10000000000000000");  // 2^64
  EXPECT_EQ((BigInt(1) << 128).ToDecimalString(),
            "340282366920938463463374607431768211456");
}

TEST(BigIntTest, RejectsMalformedStrings) {
  EXPECT_FALSE(BigInt::FromDecimalString("").ok());
  EXPECT_FALSE(BigInt::FromDecimalString("12a3").ok());
  EXPECT_FALSE(BigInt::FromDecimalString("-5").ok());
  EXPECT_FALSE(BigInt::FromHexString("").ok());
  EXPECT_FALSE(BigInt::FromHexString("xyz").ok());
}

TEST(BigIntTest, HexStringRoundTrip) {
  Rng rng(11);
  BigInt a = RandomBits(333, &rng);
  auto parsed = BigInt::FromHexString(a.ToHexString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, a);
  EXPECT_EQ(*BigInt::FromHexString("DEADbeef"), BigInt(0xDEADBEEFULL));
}

TEST(BigIntTest, BytesRoundTrip) {
  Rng rng(12);
  for (size_t bits : {8u, 12u, 64u, 65u, 256u}) {
    BigInt a = RandomBits(bits, &rng);
    EXPECT_EQ(BigInt::FromBigEndianBytes(a.ToBigEndianBytes()), a);
  }
}

TEST(BigIntTest, PaddedBytesPreserveValue) {
  BigInt a(0x1234);
  auto padded = a.ToBigEndianBytesPadded(8);
  EXPECT_EQ(padded.size(), 8u);
  EXPECT_EQ(padded[0], 0);
  EXPECT_EQ(BigInt::FromBigEndianBytes(padded), a);
}

TEST(BigIntTest, LimbByteConversionsMatchBytewiseReference) {
  // Byte j of a limb value (0 = least significant) is byte j % 8 of limb
  // j / 8; LimbsToBigEndian writes the low `width` of them big-endian,
  // zero above the value, and BigEndianToLimbs reads them back. Widths
  // cover whole limbs, partial top limbs and padding beyond k limbs.
  Rng rng(14);
  for (size_t k = 0; k <= 5; ++k) {
    for (size_t width = 0; width <= 41; ++width) {
      std::vector<uint64_t> limbs(k);
      for (uint64_t& l : limbs) l = rng.Next64();
      std::vector<uint8_t> out(width, 0xAA);
      LimbsToBigEndian(limbs.data(), k, out.data(), width);
      for (size_t j = 0; j < width; ++j) {
        const uint8_t expected =
            j / 8 < k ? static_cast<uint8_t>(limbs[j / 8] >> (8 * (j % 8)))
                      : 0;
        ASSERT_EQ(out[width - 1 - j], expected)
            << "k=" << k << " width=" << width << " byte " << j;
      }
      std::vector<uint64_t> back((width + 7) / 8, ~uint64_t{0});
      BigEndianToLimbs(out.data(), width, back.data());
      for (size_t i = 0; i < back.size(); ++i) {
        uint64_t expected = 0;
        for (size_t j = 8 * i; j < std::min(width, 8 * i + 8); ++j) {
          expected |= static_cast<uint64_t>(out[width - 1 - j])
                      << (8 * (j % 8));
        }
        ASSERT_EQ(back[i], expected) << "width=" << width << " limb " << i;
      }
    }
  }
}

TEST(BigIntTest, BitAccessor) {
  BigInt v = BigInt(0b1011);
  EXPECT_TRUE(v.Bit(0));
  EXPECT_TRUE(v.Bit(1));
  EXPECT_FALSE(v.Bit(2));
  EXPECT_TRUE(v.Bit(3));
  EXPECT_FALSE(v.Bit(100));
  EXPECT_TRUE(BigInt::PowerOfTwo(77).Bit(77));
  EXPECT_EQ(BigInt::PowerOfTwo(77).BitLength(), 78u);
}

TEST(BigIntTest, FromLimbsNormalizes) {
  BigInt v = BigInt::FromLimbs({5, 0, 0});
  EXPECT_EQ(v, BigInt(5));
  EXPECT_EQ(v.LimbCount(), 1u);
  EXPECT_TRUE(BigInt::FromLimbs({}).IsZero());
}

}  // namespace
}  // namespace embellish::bignum
