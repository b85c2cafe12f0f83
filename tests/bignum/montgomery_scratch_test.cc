// Tests for the allocation-free Montgomery kernels: correctness of the
// scratch APIs against the value APIs, and a counting-allocator proof that
// the steady state performs zero heap allocations per operation — the
// property the PIR row loop depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "bignum/prime.h"
#include "common/rng.h"

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

namespace embellish::bignum {
namespace {

class MontgomeryScratchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2024);
    modulus_ = RandomPrime(256, &rng);
    auto ctx = MontgomeryContext::Create(modulus_);
    ASSERT_TRUE(ctx.ok());
    ctx_ = std::make_unique<MontgomeryContext>(std::move(ctx).value());
    a_ = RandomBelow(modulus_, &rng);
    b_ = RandomBelow(modulus_, &rng);
    e_ = RandomBits(256, &rng);
  }

  BigInt modulus_, a_, b_, e_;
  std::unique_ptr<MontgomeryContext> ctx_;
};

TEST_F(MontgomeryScratchTest, MontMulIntoMatchesVectorApi) {
  MontgomeryContext::Scratch scratch(*ctx_);
  const size_t k = ctx_->limb_count();
  auto am = ctx_->ToMontgomery(a_);
  auto bm = ctx_->ToMontgomery(b_);
  std::vector<uint64_t> out(k);
  ctx_->MontMulInto(am.data(), bm.data(), out.data(), &scratch);
  EXPECT_EQ(out, ctx_->MontMul(am, bm));
  EXPECT_EQ(ctx_->FromMontgomery(out), a_ * b_ % modulus_);
}

TEST_F(MontgomeryScratchTest, MontMulIntoSupportsAliasedOutput) {
  MontgomeryContext::Scratch scratch(*ctx_);
  auto am = ctx_->ToMontgomery(a_);
  auto bm = ctx_->ToMontgomery(b_);
  const auto expected = ctx_->MontMul(am, bm);
  // out aliases a.
  auto lhs = am;
  ctx_->MontMulInto(lhs.data(), bm.data(), lhs.data(), &scratch);
  EXPECT_EQ(lhs, expected);
  // out aliases both operands (squaring).
  auto sq = am;
  ctx_->MontMulInto(sq.data(), sq.data(), sq.data(), &scratch);
  EXPECT_EQ(sq, ctx_->MontMul(am, am));
}

TEST_F(MontgomeryScratchTest, ModExpIntoMatchesModExp) {
  MontgomeryContext::Scratch scratch(*ctx_);
  const size_t k = ctx_->limb_count();
  auto base = ctx_->ToMontgomery(a_);
  std::vector<uint64_t> out(k);
  for (const BigInt& e :
       {BigInt(0), BigInt(1), BigInt(2), BigInt(3), BigInt(15), BigInt(16),
        BigInt(65537), e_}) {
    ctx_->ModExpInto(base.data(), e, out.data(), &scratch);
    EXPECT_EQ(ctx_->FromMontgomery(out), ctx_->ModExp(a_, e));
  }
}

TEST_F(MontgomeryScratchTest, SlidingWindowMatchesGenericModExp) {
  // Cross-check against the plain square-and-multiply in modmath's non-
  // Montgomery fallback over many random exponents.
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    BigInt base = RandomBelow(modulus_, &rng);
    BigInt e = RandomBits(1 + rng.Uniform(300), &rng);
    BigInt expected(1);
    BigInt cur = base;
    for (size_t i = 0; i < e.BitLength(); ++i) {
      if (e.Bit(i)) expected = expected * cur % modulus_;
      cur = cur * cur % modulus_;
    }
    EXPECT_EQ(ctx_->ModExp(base, e), expected);
  }
}

TEST_F(MontgomeryScratchTest, FromMontgomeryIntoRoundTrips) {
  MontgomeryContext::Scratch scratch(*ctx_);
  const size_t k = ctx_->limb_count();
  auto am = ctx_->ToMontgomery(a_);
  std::vector<uint64_t> plain(k);
  ctx_->FromMontgomeryInto(am.data(), plain.data(), &scratch);
  EXPECT_EQ(BigInt::FromLimbs(plain), a_);
}

TEST_F(MontgomeryScratchTest, ToMontgomeryIntoMatchesValueApi) {
  MontgomeryContext::Scratch scratch(*ctx_);
  const size_t k = ctx_->limb_count();
  std::vector<uint64_t> out(k);
  // Reduced value, and a k-limb value above the modulus (valid CIOS input).
  for (const BigInt& v : {a_, modulus_ + BigInt(5), BigInt(0), BigInt(1)}) {
    ctx_->ToMontgomeryInto(v, out.data(), &scratch);
    EXPECT_EQ(ctx_->FromMontgomery(out), v % modulus_);
  }
  // Wider than the modulus: the Horner chunk reduction, two and three chunks
  // wide, with full and partial top chunks.
  for (const BigInt& wide :
       {a_ * modulus_ + b_, a_ * b_, a_ * b_ * e_, a_ * a_ * BigInt(3),
        modulus_ * modulus_, BigInt::PowerOfTwo(64 * k) + BigInt(7)}) {
    ctx_->ToMontgomeryInto(wide, out.data(), &scratch);
    EXPECT_EQ(out, ctx_->ToMontgomery(wide));
    EXPECT_EQ(ctx_->FromMontgomery(out), wide % modulus_);
  }
}

TEST(MontgomeryWideReductionTest, MatchesDivisionAtEveryKernelWidth) {
  // k = 1..8 covers the fixed-width kernels (2, 3, 4, 6, 8), the ADX path
  // (4) and the generic CIOS loop (1, 5, 7), with inputs up to 3k limbs.
  Rng rng(31);
  for (size_t k = 1; k <= 8; ++k) {
    const BigInt p = RandomPrime(64 * k - 1, &rng);
    auto ctx = MontgomeryContext::Create(p);
    ASSERT_TRUE(ctx.ok());
    MontgomeryContext::Scratch scratch(*ctx);
    std::vector<uint64_t> out(k);
    for (int trial = 0; trial < 30; ++trial) {
      const BigInt v = RandomBits(1 + rng.Uniform(3 * 64 * k), &rng);
      ctx->ToMontgomeryInto(v, out.data(), &scratch);
      EXPECT_EQ(ctx->FromMontgomery(out), v % p) << "k=" << k;
    }
  }
}

TEST_F(MontgomeryScratchTest, SteadyStateIsAllocationFree) {
  MontgomeryContext::Scratch scratch(*ctx_);
  const size_t k = ctx_->limb_count();
  auto am = ctx_->ToMontgomery(a_);
  auto bm = ctx_->ToMontgomery(b_);
  std::vector<uint64_t> acc(k);
  std::vector<uint64_t> plain(k);
  const BigInt exponent = e_;
  const BigInt wide = a_ * b_ * e_;  // three chunks of k limbs

  // Warm-up sizes the lazily-grown exponentiation buffers.
  ctx_->ModExpInto(am.data(), exponent, acc.data(), &scratch);

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ctx_->MontMulInto(acc.data(), (i & 1) ? am.data() : bm.data(), acc.data(),
                      &scratch);
  }
  ctx_->ToMontgomeryInto(b_, plain.data(), &scratch);
  ctx_->ToMontgomeryInto(wide, plain.data(), &scratch);
  ctx_->ModExpInto(am.data(), exponent, acc.data(), &scratch);
  ctx_->FromMontgomeryInto(acc.data(), plain.data(), &scratch);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "scratch-API Montgomery ops must not touch the heap";
}

}  // namespace
}  // namespace embellish::bignum
