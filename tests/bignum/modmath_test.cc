#include "bignum/modmath.h"

#include <gtest/gtest.h>

#include "bignum/prime.h"
#include "common/rng.h"

namespace embellish::bignum {
namespace {

TEST(ModMathTest, ModAddSubMulBasics) {
  BigInt m(97);
  EXPECT_EQ(ModAdd(BigInt(90), BigInt(10), m), BigInt(3));
  EXPECT_EQ(ModSub(BigInt(5), BigInt(10), m), BigInt(92));
  EXPECT_EQ(ModSub(BigInt(10), BigInt(5), m), BigInt(5));
  EXPECT_EQ(ModMul(BigInt(96), BigInt(96), m), BigInt(1));
}

TEST(ModMathTest, ModExpSmallKnownValues) {
  EXPECT_EQ(ModExp(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(ModExp(BigInt(3), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(ModExp(BigInt(0), BigInt(5), BigInt(7)), BigInt(0));
  EXPECT_EQ(ModExp(BigInt(5), BigInt(3), BigInt(13)), BigInt(8));
}

TEST(ModMathTest, ModExpModulusOneIsZero) {
  EXPECT_EQ(ModExp(BigInt(5), BigInt(3), BigInt(1)), BigInt());
}

TEST(ModMathTest, FermatLittleTheorem) {
  Rng rng(100);
  BigInt p = RandomPrime(192, &rng);
  for (int i = 0; i < 30; ++i) {
    BigInt a = RandomBelow(p - BigInt(1), &rng) + BigInt(1);
    EXPECT_TRUE(ModExp(a, p - BigInt(1), p).IsOne());
  }
}

TEST(ModMathTest, ModExpLawOfExponents) {
  Rng rng(101);
  BigInt m = RandomBits(128, &rng);
  if (m.IsEven()) m += BigInt(1);
  BigInt a = RandomBelow(m, &rng);
  BigInt e1(12345), e2(67890);
  // a^(e1+e2) == a^e1 * a^e2 (mod m)
  EXPECT_EQ(ModExp(a, e1 + e2, m),
            ModMul(ModExp(a, e1, m), ModExp(a, e2, m), m));
  // (a^e1)^e2 == a^(e1*e2)
  EXPECT_EQ(ModExp(ModExp(a, e1, m), e2, m), ModExp(a, e1 * e2, m));
}

TEST(ModMathTest, ModExpEvenModulusFallback) {
  // Even modulus cannot use Montgomery; exercises the generic path.
  BigInt m(1 << 20);
  EXPECT_EQ(ModExp(BigInt(3), BigInt(7), m), BigInt(2187));
  Rng rng(102);
  BigInt big_even = RandomBits(128, &rng) << 1;
  BigInt a = RandomBelow(big_even, &rng);
  BigInt r1 = ModExp(a, BigInt(5), big_even);
  BigInt expect = a % big_even;
  BigInt acc(1);
  for (int i = 0; i < 5; ++i) acc = acc * expect % big_even;
  EXPECT_EQ(r1, acc);
}

TEST(GcdTest, KnownValues) {
  EXPECT_EQ(Gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(Gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(Gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(Gcd(BigInt(5), BigInt(0)), BigInt(5));
}

TEST(GcdTest, DividesBothAndIsMaximal) {
  Rng rng(103);
  for (int i = 0; i < 100; ++i) {
    BigInt g = RandomBits(40, &rng);
    BigInt a = g * RandomBits(60, &rng);
    BigInt b = g * RandomBits(60, &rng);
    BigInt d = Gcd(a, b);
    EXPECT_TRUE((a % d).IsZero());
    EXPECT_TRUE((b % d).IsZero());
    EXPECT_TRUE((d % g).IsZero());  // g divides the gcd
  }
}

TEST(ModInverseTest, ProducesInverse) {
  Rng rng(104);
  for (int i = 0; i < 200; ++i) {
    BigInt m = RandomBits(100, &rng) + BigInt(2);
    BigInt a = RandomUnit(m, &rng);
    auto inv = ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_TRUE(ModMul(a, *inv, m).IsOne());
  }
}

TEST(ModInverseTest, RejectsNonInvertible) {
  EXPECT_FALSE(ModInverse(BigInt(6), BigInt(9)).ok());
  EXPECT_FALSE(ModInverse(BigInt(0), BigInt(7)).ok());
  EXPECT_FALSE(ModInverse(BigInt(3), BigInt(1)).ok());
}

TEST(JacobiTest, MatchesEulerCriterionForPrimes) {
  Rng rng(105);
  BigInt p = RandomPrime(128, &rng);
  BigInt half = (p - BigInt(1)) >> 1;
  for (int i = 0; i < 200; ++i) {
    BigInt a = RandomBelow(p, &rng);
    if (a.IsZero()) continue;
    BigInt euler = ModExp(a, half, p);
    int expected = euler.IsOne() ? 1 : (euler == p - BigInt(1) ? -1 : 0);
    EXPECT_EQ(Jacobi(a, p), expected);
  }
}

TEST(JacobiTest, MatchesEulerCriterionAt1024Bits) {
  // A 1024-bit prime (the PIR client's factor width at 2048-bit keys) and a
  // 1024-bit product of two primes, whose symbol is the product of the
  // factors' Legendre symbols. Operands are drawn up to twice the modulus
  // width, so the limb routine also reduces.
  Rng rng(110);
  const BigInt p = RandomPrime(1024, &rng);
  const BigInt half = (p - BigInt(1)) >> 1;
  const BigInt q1 = RandomPrime(512, &rng);
  const BigInt q2 = RandomPrime(512, &rng);
  const BigInt n = q1 * q2;
  const auto legendre = [](const BigInt& a, const BigInt& prime) {
    const BigInt e = ModExp(a, (prime - BigInt(1)) >> 1, prime);
    return e.IsOne() ? 1 : (e.IsZero() ? 0 : -1);
  };
  for (int i = 0; i < 40; ++i) {
    const BigInt a = RandomBits(1 + rng.Uniform(2048), &rng);
    EXPECT_EQ(Jacobi(a, p), legendre(a, p));
    EXPECT_EQ(Jacobi(a, n), legendre(a, q1) * legendre(a, q2));
  }
  EXPECT_EQ(Jacobi(p * BigInt(3), p), 0);
  EXPECT_EQ(Jacobi(q1 * BigInt(5), n), 0);
  EXPECT_EQ(Jacobi(BigInt(0), p), 0);
  EXPECT_EQ(Jacobi(BigInt(1), p), 1);
  EXPECT_EQ(Jacobi(p - BigInt(1), p), legendre(p - BigInt(1), p));
  EXPECT_EQ(Jacobi(half, p), legendre(half, p));
}

TEST(JacobiTest, KnownSmallTable) {
  // (a/15) for a = 1..14: standard table.
  const int expected[] = {1, 1, 0, 1, 0, 0, -1, 1, 0, 0, -1, 0, -1, -1};
  for (int a = 1; a <= 14; ++a) {
    EXPECT_EQ(Jacobi(BigInt(static_cast<uint64_t>(a)), BigInt(15)),
              expected[a - 1])
        << "a=" << a;
  }
}

TEST(JacobiTest, Multiplicative) {
  Rng rng(106);
  BigInt n = RandomBits(80, &rng);
  if (n.IsEven()) n += BigInt(1);
  for (int i = 0; i < 100; ++i) {
    BigInt a = RandomBelow(n, &rng);
    BigInt b = RandomBelow(n, &rng);
    EXPECT_EQ(Jacobi(a * b, n), Jacobi(a, n) * Jacobi(b, n));
  }
}

TEST(JacobiTest, SquaresOfUnitsAreResidues) {
  Rng rng(107);
  BigInt n = RandomPrime(64, &rng) * RandomPrime(64, &rng);
  for (int i = 0; i < 50; ++i) {
    BigInt w = RandomUnit(n, &rng);
    EXPECT_EQ(Jacobi(w * w % n, n), 1);
  }
}

TEST(RandomBelowTest, UniformCoverageOfSmallRange) {
  Rng rng(108);
  BigInt bound(10);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 5000; ++i) {
    BigInt v = RandomBelow(bound, &rng);
    ASSERT_LT(v, bound);
    ++counts[v.Low64()];
  }
  for (int c : counts) EXPECT_GT(c, 300);
}

TEST(RandomBitsTest, ExactWidth) {
  Rng rng(109);
  for (size_t bits : {1u, 8u, 63u, 64u, 65u, 257u}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(RandomBits(bits, &rng).BitLength(), bits);
    }
  }
}

TEST(RandomUnitTest, AlwaysCoprime) {
  Rng rng(110);
  BigInt n = BigInt(2 * 3 * 5 * 7 * 11 * 13);
  for (int i = 0; i < 100; ++i) {
    BigInt u = RandomUnit(n, &rng);
    EXPECT_TRUE(Gcd(u, n).IsOne());
    EXPECT_LT(u, n);
    EXPECT_FALSE(u.IsZero());
  }
}

}  // namespace
}  // namespace embellish::bignum
