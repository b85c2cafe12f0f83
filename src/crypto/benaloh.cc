#include "crypto/benaloh.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "bignum/modmath.h"
#include "bignum/montgomery_lanes.h"
#include "bignum/prime.h"
#include "common/strings.h"

namespace embellish::crypto {

using bignum::BigInt;

uint64_t ExactPowerOfThree(uint64_t v) {
  if (v < 3) return 0;
  uint64_t k = 0;
  while (v % 3 == 0) {
    v /= 3;
    ++k;
  }
  return v == 1 ? k : 0;
}

std::vector<uint64_t> DistinctPrimeFactors(uint64_t v) {
  std::vector<uint64_t> factors;
  for (uint64_t p = 2; p * p <= v; p += (p == 2 ? 1 : 2)) {
    if (v % p == 0) {
      factors.push_back(p);
      while (v % p == 0) v /= p;
    }
  }
  if (v > 1) factors.push_back(v);
  return factors;
}

Status BenalohKeyOptions::Validate() const {
  if (key_bits < 128) {
    return Status::InvalidArgument("key_bits must be >= 128");
  }
  if (key_bits > 4096) {
    return Status::InvalidArgument("key_bits must be <= 4096");
  }
  if (r < 2) {
    return Status::InvalidArgument("message space r must be >= 2");
  }
  if (r % 2 == 0) {
    // p2 is an odd prime, so p2 - 1 is even and gcd(r, p2 - 1) = 1 is
    // unsatisfiable for even r. Benaloh deployments use odd r (e.g. 3^k).
    return Status::InvalidArgument("message space r must be odd");
  }
  if (r > (1ULL << 32)) {
    return Status::InvalidArgument(
        "message space r above 2^32 (BSGS/decryption impractical)");
  }
  if (BigInt(r).BitLength() + 16 > key_bits / 2) {
    return Status::InvalidArgument(
        "message space r too large relative to key_bits");
  }
  return Status::OK();
}

BenalohPublicKey::BenalohPublicKey(BigInt n, BigInt g, uint64_t r)
    : n_(std::move(n)), g_(std::move(g)), r_(r) {
  auto ctx = bignum::MontgomeryContext::Create(n_);
  assert(ctx.ok() && "modulus from keygen is odd");
  mont_ = std::make_shared<bignum::MontgomeryContext>(std::move(ctx).value());
}

Result<BenalohCiphertext> BenalohPublicKey::Encrypt(uint64_t m,
                                                    Rng* rng) const {
  if (m >= r_) {
    return Status::InvalidArgument(
        StringPrintf("message %llu outside Z_%llu",
                     static_cast<unsigned long long>(m),
                     static_cast<unsigned long long>(r_)));
  }
  BigInt u = bignum::RandomUnit(n_, rng);
  BigInt gm = mont_->ModExp(g_, BigInt(m));
  BigInt ur = mont_->ModExp(u, BigInt(r_));
  return BenalohCiphertext{mont_->Mul(gm, ur)};
}

Result<std::vector<BenalohCiphertext>> BenalohPublicKey::EncryptBatch(
    const std::vector<uint64_t>& ms, Rng* rng, ThreadPool* pool) const {
  for (uint64_t m : ms) {
    if (m >= r_) {
      return Status::InvalidArgument(
          StringPrintf("message %llu outside Z_%llu",
                       static_cast<unsigned long long>(m),
                       static_cast<unsigned long long>(r_)));
    }
  }
  // Nonces come out of the (non-thread-safe) rng up front, in message order.
  std::vector<BigInt> nonces;
  nonces.reserve(ms.size());
  for (size_t i = 0; i < ms.size(); ++i) {
    nonces.push_back(bignum::RandomUnit(n_, rng));
  }

  std::vector<BenalohCiphertext> out(ms.size());
  const bignum::MontgomeryContext& mont = *mont_;
  const size_t k = mont.limb_count();
  const std::vector<uint64_t> g_mont = mont.ToMontgomery(g_);
  const BigInt r_exp(r_);

  // Every message shares this key's modulus, so the batch is exactly the
  // multi-buffer shape the SIMD lane engine wants: up to kMaxLanes
  // encryptions advance in lockstep, g^m via per-lane small exponents and
  // u^r via the shared exponent. Kernel outputs are bit-identical to the
  // scalar path (montgomery_lanes_test pins this), so dispatch is purely a
  // throughput decision.
  constexpr size_t kLanes = bignum::MontgomeryLaneContext::kMaxLanes;
  const bignum::MontgomeryContext* lane_ptrs[kLanes];
  std::fill(std::begin(lane_ptrs), std::end(lane_ptrs), &mont);
  const auto lane_ctx = bignum::MontgomeryLaneContext::Create(lane_ptrs);
  const bool use_lanes = lane_ctx.ok() && lane_ctx->vectorized();

  auto encrypt_range = [&](size_t begin, size_t end) {
    bignum::MontgomeryContext::Scratch scratch(mont);
    if (use_lanes) {
      const bignum::MontgomeryLaneContext& lc = *lane_ctx;
      bignum::MontgomeryLaneContext::Scratch lscratch(lc);
      std::vector<std::vector<uint64_t>> u(kLanes, std::vector<uint64_t>(k));
      std::vector<std::vector<uint64_t>> plain(kLanes,
                                               std::vector<uint64_t>(k));
      std::vector<uint64_t> sink(k);  // padding lanes' discarded output
      auto g_block = lc.MakeBlock();
      auto gm_block = lc.MakeBlock();
      auto u_block = lc.MakeBlock();
      auto ur_block = lc.MakeBlock();
      {
        const uint64_t* gp[kLanes];
        std::fill(std::begin(gp), std::end(gp), g_mont.data());
        lc.Pack(gp, &g_block, &lscratch);
      }
      for (size_t i = begin; i < end; i += kLanes) {
        const size_t group = std::min(kLanes, end - i);
        const uint64_t* up[kLanes];
        uint64_t* outp[kLanes];
        uint64_t exps[kLanes];
        for (size_t l = 0; l < group; ++l) {
          mont.ToMontgomeryInto(nonces[i + l], u[l].data(), &scratch);
          up[l] = u[l].data();
          outp[l] = plain[l].data();
          exps[l] = ms[i + l];
        }
        for (size_t l = group; l < kLanes; ++l) {  // ragged tail: pad lanes
          up[l] = u[0].data();
          outp[l] = sink.data();
          exps[l] = 0;
        }
        lc.Pack(up, &u_block, &lscratch);
        lc.ModExpSmall(g_block, exps, &gm_block, &lscratch);
        lc.ModExpUniform(u_block, r_exp, &ur_block, &lscratch);
        lc.Mul(gm_block, ur_block, &gm_block, &lscratch);
        lc.FromMontgomery(gm_block, outp, &lscratch);
        for (size_t l = 0; l < group; ++l) {
          out[i + l].value = BigInt::FromLimbs(plain[l]);
        }
      }
      return;
    }
    std::vector<uint64_t> gm(k);
    std::vector<uint64_t> u_mont(k);
    std::vector<uint64_t> ur(k);
    for (size_t i = begin; i < end; ++i) {
      mont.ModExpInto(g_mont.data(), BigInt(ms[i]), gm.data(), &scratch);
      mont.ToMontgomeryInto(nonces[i], u_mont.data(), &scratch);
      mont.ModExpInto(u_mont.data(), r_exp, ur.data(), &scratch);
      mont.MontMulInto(gm.data(), ur.data(), gm.data(), &scratch);
      mont.FromMontgomeryInto(gm.data(), ur.data(), &scratch);
      out[i].value = BigInt::FromLimbs(ur);
    }
  };

  if (pool != nullptr) {
    // Grain of one lane group so parallel splits stay lane-aligned and the
    // vector lanes run full except at range tails.
    pool->ParallelFor(0, ms.size(), /*min_grain=*/use_lanes ? kLanes : 1,
                      encrypt_range);
  } else {
    encrypt_range(0, ms.size());
  }
  return out;
}

BenalohCiphertext BenalohPublicKey::Add(const BenalohCiphertext& a,
                                        const BenalohCiphertext& b) const {
  return BenalohCiphertext{mont_->Mul(a.value, b.value)};
}

BenalohCiphertext BenalohPublicKey::ScalarMul(const BenalohCiphertext& c,
                                              uint64_t s) const {
  return BenalohCiphertext{mont_->ModExp(c.value, BigInt(s))};
}

std::vector<uint8_t> BenalohPublicKey::Serialize(
    const BenalohCiphertext& c) const {
  return c.value.ToBigEndianBytesPadded(CiphertextBytes());
}

Result<BenalohCiphertext> BenalohPublicKey::Deserialize(
    const std::vector<uint8_t>& bytes) const {
  if (bytes.size() != CiphertextBytes()) {
    return Status::Corruption("ciphertext wire size mismatch");
  }
  BigInt v = BigInt::FromBigEndianBytes(bytes);
  if (v >= n_) {
    return Status::Corruption("ciphertext not a residue mod n");
  }
  return BenalohCiphertext{std::move(v)};
}

Result<BenalohKeyPair> BenalohKeyPair::Generate(
    const BenalohKeyOptions& options, Rng* rng) {
  EMB_RETURN_NOT_OK(options.Validate());
  const BigInt r_big(options.r);
  const size_t half_bits = options.key_bits / 2;

  EMB_ASSIGN_OR_RETURN(
      BigInt p1, bignum::RandomPrimeCongruentOneModR(half_bits, r_big, rng));
  EMB_ASSIGN_OR_RETURN(
      BigInt p2, bignum::RandomPrimeCoprimePMinus1(
                     options.key_bits - half_bits, r_big, rng));

  BigInt n = p1 * p2;
  BigInt phi = (p1 - BigInt(1)) * (p2 - BigInt(1));

  // Select g whose image x = g^{phi/r} has order exactly r: for every prime
  // q | r we need x^{r/q} != 1, i.e. g^{phi/q} != 1 (mod n).
  std::vector<uint64_t> r_factors = DistinctPrimeFactors(options.r);
  EMB_ASSIGN_OR_RETURN(auto mont, bignum::MontgomeryContext::Create(n));

  BigInt g;
  bool found_g = false;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    g = bignum::RandomUnit(n, rng);
    bool all_nontrivial = true;
    for (uint64_t q : r_factors) {
      BigInt exp = phi / BigInt(q);
      if (mont.ModExp(g, exp).IsOne()) {
        all_nontrivial = false;
        break;
      }
    }
    if (all_nontrivial) {
      found_g = true;
      break;
    }
  }
  if (!found_g) {
    return Status::Internal("failed to find generator g");
  }

  BenalohKeyPair pair;
  pair.public_key_ = std::make_shared<BenalohPublicKey>(n, g, options.r);

  auto priv = std::make_shared<BenalohPrivateKey>();
  EMB_ASSIGN_OR_RETURN(auto mont_p1, bignum::MontgomeryContext::Create(p1));
  EMB_ASSIGN_OR_RETURN(auto mont_p2, bignum::MontgomeryContext::Create(p2));
  priv->mont_p1_ =
      std::make_shared<bignum::MontgomeryContext>(std::move(mont_p1));
  priv->mont_p2_ =
      std::make_shared<bignum::MontgomeryContext>(std::move(mont_p2));
  priv->exponent_ = (p1 - BigInt(1)) / r_big;
  priv->p1_ = std::move(p1);
  priv->p2_ = std::move(p2);
  priv->n_ = n;
  priv->r_ = options.r;
  priv->three_k_ = ExactPowerOfThree(options.r);

  // y = g^{(p1-1)/r} mod p1 generates the order-r subgroup (see header);
  // y^{-1} = y^{r-1}.
  const bignum::MontgomeryContext& m1 = *priv->mont_p1_;
  const size_t k1 = m1.limb_count();
  bignum::MontgomeryContext::Scratch scratch(m1);
  const std::vector<uint64_t> g_mont = m1.ToMontgomery(g);
  std::vector<uint64_t> y(k1), y_inv(k1), tmp(k1);
  m1.ModExpInto(g_mont.data(), priv->exponent_, y.data(), &scratch);
  m1.ModExpInto(y.data(), BigInt(options.r - 1), y_inv.data(), &scratch);
  const auto cube = [&](uint64_t* v) {
    m1.MontMulInto(v, v, tmp.data(), &scratch);
    m1.MontMulInto(tmp.data(), v, v, &scratch);
  };

  priv->bsgs_t_ = static_cast<uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(options.r))));
  priv->baby_.Build(m1, y.data(), priv->bsgs_t_);
  priv->giant_.resize(k1);
  // t < r for every r >= 3, so y^{-t} = y^{r-t}.
  m1.ModExpInto(y.data(), BigInt(options.r - priv->bsgs_t_),
                priv->giant_.data(), &scratch);

  const uint64_t k = priv->three_k_;
  if (k > 0) {
    priv->w_ = y;
    for (uint64_t i = 0; i + 1 < k; ++i) cube(priv->w_.data());
    priv->w2_.resize(k1);
    m1.MontMulInto(priv->w_.data(), priv->w_.data(), priv->w2_.data(),
                   &scratch);
    priv->strips_.resize(2 * k * k1);
    std::vector<uint64_t> strip = y_inv;  // y^{-3^i}
    for (uint64_t i = 0; i < k; ++i) {
      uint64_t* slot = priv->strips_.data() + 2 * i * k1;
      std::copy(strip.begin(), strip.end(), slot);
      m1.MontMulInto(slot, slot, slot + k1, &scratch);
      cube(strip.data());
    }

    priv->split_cubes_ = k / 2;
    priv->split_t_ = options.r;
    for (uint64_t i = 0; i < priv->split_cubes_; ++i) priv->split_t_ /= 3;
    std::vector<uint64_t> y_s = y;
    for (uint64_t i = 0; i < priv->split_cubes_; ++i) cube(y_s.data());
    priv->split_.Build(m1, y_s.data(), priv->split_t_);
    priv->inverse_.resize(priv->split_t_ * k1);
    std::copy(m1.One().begin(), m1.One().end(), priv->inverse_.begin());
    for (uint64_t j = 1; j < priv->split_t_; ++j) {
      m1.MontMulInto(priv->inverse_.data() + (j - 1) * k1, y_inv.data(),
                     priv->inverse_.data() + j * k1, &scratch);
    }
  }

  pair.private_key_ = priv;
  return pair;
}

void BenalohPrivateKey::PowerTable::Build(const bignum::MontgomeryContext& mont,
                                          const uint64_t* base,
                                          uint64_t count) {
  k_ = mont.limb_count();
  values_.resize(count * k_);
  bignum::MontgomeryContext::Scratch scratch(mont);
  std::copy(mont.One().begin(), mont.One().end(), values_.begin());
  for (uint64_t j = 1; j < count; ++j) {
    mont.MontMulInto(values_.data() + (j - 1) * k_, base,
                     values_.data() + j * k_, &scratch);
  }
  slots_.assign(std::bit_ceil(2 * count), 0);
  for (uint64_t j = 0; j < count; ++j) {
    size_t slot = Slot(Entry(j));
    while (slots_[slot] != 0) slot = (slot + 1) & (slots_.size() - 1);
    slots_[slot] = static_cast<uint32_t>(j + 1);
  }
}

size_t BenalohPrivateKey::PowerTable::Slot(const uint64_t* v) const {
  // Montgomery limbs of distinct residues are spread evenly; a Fibonacci
  // multiply folds the low limb's high bits into the slot index anyway.
  return static_cast<size_t>((v[0] * 0x9E3779B97F4A7C15ULL) >> 32) &
         (slots_.size() - 1);
}

bool BenalohPrivateKey::PowerTable::Find(const uint64_t* v,
                                         uint64_t* j) const {
  for (size_t slot = Slot(v); slots_[slot] != 0;
       slot = (slot + 1) & (slots_.size() - 1)) {
    const uint64_t cand = slots_[slot] - 1;
    if (std::equal(v, v + k_, Entry(cand))) {
      *j = cand;
      return true;
    }
  }
  return false;
}

namespace {

// Per-thread decryption buffers, grown to the widest prime seen on the
// thread, so steady-state decryption allocates nothing.
struct DecryptWorkspace {
  std::unique_ptr<bignum::MontgomeryContext::Scratch> scratch;
  std::vector<uint64_t> limbs;  // three k-limb residues
};

DecryptWorkspace& LocalWorkspace(const bignum::MontgomeryContext& widest) {
  thread_local DecryptWorkspace ws;
  const size_t k = widest.limb_count();
  if (ws.scratch == nullptr || ws.scratch->limb_count() < k) {
    ws.scratch = std::make_unique<bignum::MontgomeryContext::Scratch>(widest);
    ws.limbs.assign(3 * k, 0);
  }
  return ws;
}

bool AllZero(const uint64_t* v, size_t k) {
  return std::all_of(v, v + k, [](uint64_t limb) { return limb == 0; });
}

}  // namespace

Result<uint64_t> BenalohPrivateKey::Decrypt(const BenalohCiphertext& c) const {
  return DecryptWith(c, BenalohDecryptMode::kAuto);
}

Result<uint64_t> BenalohPrivateKey::DecryptWith(
    const BenalohCiphertext& c, BenalohDecryptMode mode) const {
  if (c.value.IsZero() || c.value >= n_) {
    return Status::CryptoError("ciphertext outside Z*_n");
  }
  if (mode == BenalohDecryptMode::kPowerOfThreeDigits && three_k_ == 0) {
    return Status::InvalidArgument("r is not a power of three");
  }
  const bignum::MontgomeryContext& m1 = *mont_p1_;
  const bignum::MontgomeryContext& m2 = *mont_p2_;
  DecryptWorkspace& ws =
      LocalWorkspace(m1.limb_count() >= m2.limb_count() ? m1 : m2);
  const size_t stride = ws.scratch->limb_count();
  uint64_t* a = ws.limbs.data();
  uint64_t* t0 = a + stride;
  uint64_t* t1 = t0 + stride;
  bignum::MontgomeryContext::Scratch* scratch = ws.scratch.get();

  // Only non-units are invalid; the mod-p1 exponentiation alone would
  // silently decode a multiple of p2.
  m2.ToMontgomeryInto(c.value, t0, scratch);
  if (AllZero(t0, m2.limb_count())) {
    return Status::CryptoError("ciphertext not a unit (multiple of p2)");
  }
  m1.ToMontgomeryInto(c.value, t0, scratch);
  if (AllZero(t0, m1.limb_count())) {
    return Status::CryptoError("ciphertext not a unit (multiple of p1)");
  }
  // a = (c mod p1)^{(p1-1)/r} = y^m (mod p1).
  m1.ModExpInto(t0, exponent_, a, scratch);

  switch (mode) {
    case BenalohDecryptMode::kBabyStepGiantStep:
      return LogBsgs(a, scratch);
    case BenalohDecryptMode::kPowerOfThreeDigits:
      return LogDigits(a, t0, t1, scratch);
    case BenalohDecryptMode::kAuto:
      break;
  }
  return three_k_ > 0 ? LogSplit(a, t0, t1, scratch) : LogBsgs(a, scratch);
}

// The failure returns below are unreachable for units: every unit's a lies
// in the order-r subgroup <y>, where each procedure always succeeds.

Result<uint64_t> BenalohPrivateKey::LogBsgs(
    uint64_t* a, bignum::MontgomeryContext::Scratch* scratch) const {
  // m = i*t + j with a * (y^{-t})^i = y^j.
  for (uint64_t i = 0; i * bsgs_t_ < r_; ++i) {
    uint64_t j;
    if (baby_.Find(a, &j)) return i * bsgs_t_ + j;
    mont_p1_->MontMulInto(a, giant_.data(), a, scratch);
  }
  return Status::CryptoError("BSGS: value outside the order-r subgroup");
}

Result<uint64_t> BenalohPrivateKey::LogDigits(
    uint64_t* a, uint64_t* t0, uint64_t* t1,
    bignum::MontgomeryContext::Scratch* scratch) const {
  // Digit-by-digit base-3 recovery (App. A.2): a is the residual
  // y^{m - recovered digits}, and residual^{3^{k-1-i}} is w^{digit i}.
  const bignum::MontgomeryContext& m1 = *mont_p1_;
  const size_t k1 = m1.limb_count();
  const uint64_t* one = m1.One().data();
  uint64_t m = 0;
  uint64_t pow3_i = 1;
  for (uint64_t i = 0; i < three_k_; ++i) {
    std::copy(a, a + k1, t0);
    for (uint64_t e = i + 1; e < three_k_; ++e) {
      m1.MontMulInto(t0, t0, t1, scratch);
      m1.MontMulInto(t1, t0, t0, scratch);
    }
    uint64_t digit;
    if (std::equal(t0, t0 + k1, one)) {
      digit = 0;
    } else if (std::equal(t0, t0 + k1, w_.data())) {
      digit = 1;
    } else if (std::equal(t0, t0 + k1, w2_.data())) {
      digit = 2;
    } else {
      return Status::CryptoError(
          "digit recovery: value outside the order-r subgroup");
    }
    if (digit != 0) {
      m += digit * pow3_i;
      m1.MontMulInto(a, strips_.data() + (2 * i + digit - 1) * k1, a,
                     scratch);
    }
    pow3_i *= 3;
  }
  return m;
}

Result<uint64_t> BenalohPrivateKey::LogSplit(
    uint64_t* a, uint64_t* t0, uint64_t* t1,
    bignum::MontgomeryContext::Scratch* scratch) const {
  // m = m0 + t*m1: a^s = (y^s)^{m0}, then a * y^{-m0} = (y^s)^{(t/s) m1}.
  const bignum::MontgomeryContext& m1 = *mont_p1_;
  const size_t k1 = m1.limb_count();
  std::copy(a, a + k1, t0);
  for (uint64_t i = 0; i < split_cubes_; ++i) {
    m1.MontMulInto(t0, t0, t1, scratch);
    m1.MontMulInto(t1, t0, t0, scratch);
  }
  uint64_t low;
  uint64_t high;
  if (!split_.Find(t0, &low)) {
    return Status::CryptoError("split: value outside the order-r subgroup");
  }
  m1.MontMulInto(a, inverse_.data() + low * k1, a, scratch);
  const uint64_t ratio = split_t_ * split_t_ / r_;  // t / s, 1 or 3
  if (!split_.Find(a, &high) || high % ratio != 0) {
    return Status::CryptoError("split: value outside the order-r subgroup");
  }
  return low + split_t_ * (high / ratio);
}

}  // namespace embellish::crypto
