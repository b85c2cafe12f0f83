// Benaloh "dense probabilistic encryption" (Workshop on Selected Areas of
// Cryptography, 1994) — the additively homomorphic cryptosystem used by the
// paper's Private Retrieval scheme (Algorithm 3/4/5 and Appendix A.2).
//
// Messages live in Z_r. Key generation picks primes p1, p2 with
//   r | (p1 - 1),  gcd(r, (p1-1)/r) = 1,  gcd(r, p2 - 1) = 1,
// modulus n = p1*p2, and g in Z*_n with g^{phi/r} != 1 (mod n) — strengthened
// here to g^{phi/q} != 1 for every prime q | r so that g^{phi/r} has order
// exactly r and decryption is unambiguous.
//
//   E(m) = g^m * u^r mod n           (u random unit)
//   E(m1) * E(m2) = E(m1 + m2 mod r) (additively homomorphic)
//   E(m)^s = E(m * s mod r)          (scalar multiplication)
//
// DECRYPTION IN THE ORDER-r SUBGROUP MOD p1. Since gcd(r, p2 - 1) = 1, the
// whole order-r part of Z*_n lives mod p1. For c = g^m u^r,
//   a = (c mod p1)^{(p1-1)/r} = y^m (mod p1),   y = g^{(p1-1)/r} mod p1,
// because u^{p1-1} = 1 (mod p1). y has order exactly r: g^{phi/q} is always
// 1 mod p2, so keygen's check g^{phi/q} != 1 (mod n) says g^{phi/q} != 1
// mod p1, i.e. y^{(p2-1)r/q} != 1, and p2 - 1 is a unit mod r. The textbook
// full-width a' = c^{phi/r} mod n is a' = a^{p2-1} mod p1 (and 1 mod p2), so
// both recover the same m. Decryption is therefore one exponentiation mod
// the half-width p1 with the ~half-length exponent (p1-1)/r, then a
// discrete log base y, both on the allocation-free Montgomery tier with
// per-thread scratch — nothing is allocated per ciphertext.
//
// The discrete log runs on tables built once in BenalohKeyPair::Generate
// (the only way to obtain a key) and keyed by Montgomery limbs; they hold
// a few hundred residues of p1's width (~16 KiB with their hash slots for a
// 256-bit key with r = 3^10, ~50 KiB at 1024 bits). Per decryption, beyond
// the exponentiation (~|p1| squarings):
//  - kAuto with r = 3^k: a two-level split m = m0 + t*m1, t = 3^ceil(k/2),
//    s = r/t. a^s = (y^s)^{m0} looks m0 up in the t-entry table of (y^s)^j,
//    and a*y^{-m0} = (y^s)^{(t/s)m1} looks m1 up in the same table:
//    floor(k/2) cubings, one multiplication and two lookups.
//  - kPowerOfThreeDigits (the Appendix A.2 procedure, r = 3^k): digit i is
//    read off residual^{3^{k-1-i}} against the precomputed w = y^{3^{k-1}}
//    and w^2, then stripped with a precomputed y^{-d*3^i}: k(k-1)/2 cubings.
//  - kBabyStepGiantStep (any r): baby table y^j for j < t = ceil(sqrt(r)),
//    giant steps by y^{-t}: up to sqrt(r) multiplications and lookups.
//
// ERRORS. Benaloh has no ciphertext integrity: every unit of Z*_n decrypts
// to some message (a tampered ciphertext c*v decodes to m + log(v)), and
// only non-units are rejected. Decryption returns CryptoError for c = 0,
// c >= n, and c = 0 mod p1 or mod p2; the p2 case is checked explicitly
// because the mod-p1 path alone would not see it.
//
// NOTE ON RANDOMNESS: protocol nonces are drawn from the deterministic Rng so
// experiments are reproducible. A production deployment would substitute a
// CSPRNG; nothing in the interfaces would change.

#ifndef EMBELLISH_CRYPTO_BENALOH_H_
#define EMBELLISH_CRYPTO_BENALOH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace embellish::crypto {

/// \brief A Benaloh ciphertext; a residue modulo the public n.
struct BenalohCiphertext {
  bignum::BigInt value;

  bool operator==(const BenalohCiphertext&) const = default;
};

/// \brief Key-generation parameters.
struct BenalohKeyOptions {
  /// Modulus size in bits (the paper's KeyLen). 512 keeps benches fast while
  /// exercising multi-limb arithmetic; production would use >= 2048.
  size_t key_bits = 512;

  /// Message-space size r. The default 3^10 = 59049 admits the power-of-
  /// three decryption tables and comfortably bounds the discretized
  /// relevance scores accumulated by Algorithm 4.
  uint64_t r = 59049;

  Status Validate() const;
};

/// \brief Public key: (n, g) plus the message-space size r.
class BenalohPublicKey {
 public:
  BenalohPublicKey(bignum::BigInt n, bignum::BigInt g, uint64_t r);

  const bignum::BigInt& n() const { return n_; }
  const bignum::BigInt& g() const { return g_; }
  uint64_t r() const { return r_; }

  /// \brief Ciphertext wire size in bytes (= KeyLen / 8, padded).
  size_t CiphertextBytes() const { return (n_.BitLength() + 7) / 8; }

  /// \brief E(m) = g^m u^r mod n. `m` must be < r.
  Result<BenalohCiphertext> Encrypt(uint64_t m, Rng* rng) const;

  /// \brief Encrypts every message in `ms`, fanning the modexps out over
  ///        `pool` (null => serial). Nonces are drawn from `rng` serially in
  ///        message order, so the output is identical to calling Encrypt in
  ///        a loop — threading changes only the wall clock.
  Result<std::vector<BenalohCiphertext>> EncryptBatch(
      const std::vector<uint64_t>& ms, Rng* rng,
      ThreadPool* pool = nullptr) const;

  /// \brief Homomorphic addition: E(m1)*E(m2) = E(m1+m2 mod r).
  BenalohCiphertext Add(const BenalohCiphertext& a,
                        const BenalohCiphertext& b) const;

  /// \brief Scalar multiplication: E(m)^s = E(m*s mod r).
  BenalohCiphertext ScalarMul(const BenalohCiphertext& c, uint64_t s) const;

  /// \brief Montgomery-form handle for hot loops (Algorithm 4's inner loop).
  const bignum::MontgomeryContext& mont() const { return *mont_; }

  /// \brief Fixed-width serialization, for traffic accounting.
  std::vector<uint8_t> Serialize(const BenalohCiphertext& c) const;
  Result<BenalohCiphertext> Deserialize(const std::vector<uint8_t>& bytes) const;

 private:
  bignum::BigInt n_;
  bignum::BigInt g_;
  uint64_t r_;
  std::shared_ptr<bignum::MontgomeryContext> mont_;
};

/// \brief Decryption strategy. kAuto takes the two-level table split when
///        r = 3^k and baby-step/giant-step otherwise; the other two force a
///        procedure (for the decryption ablation). All three return the same
///        message for every ciphertext.
enum class BenalohDecryptMode {
  kAuto,
  kBabyStepGiantStep,
  kPowerOfThreeDigits,
};

/// \brief Private key: factorization plus precomputed decryption tables.
///        Thread-safe: decryption only reads the key.
class BenalohPrivateKey {
 public:
  /// \brief Decrypts; returns the message in [0, r).
  Result<uint64_t> Decrypt(const BenalohCiphertext& c) const;

  /// \brief Decrypts with an explicit strategy (for the decryption ablation).
  ///        kPowerOfThreeDigits needs r = 3^k (InvalidArgument otherwise).
  Result<uint64_t> DecryptWith(const BenalohCiphertext& c,
                               BenalohDecryptMode mode) const;

  const bignum::BigInt& p1() const { return p1_; }
  const bignum::BigInt& p2() const { return p2_; }

 private:
  friend class BenalohKeyPair;

  /// Powers base^j (j < count) in Montgomery form, indexed back from their
  /// limbs to j: open addressing on the low limb, full compare on a hit.
  class PowerTable {
   public:
    void Build(const bignum::MontgomeryContext& mont, const uint64_t* base,
               uint64_t count);
    /// Sets *j to the exponent with base^j == v; false if v is absent.
    bool Find(const uint64_t* v, uint64_t* j) const;

   private:
    const uint64_t* Entry(uint64_t j) const { return values_.data() + j * k_; }
    size_t Slot(const uint64_t* v) const;

    size_t k_ = 0;
    std::vector<uint64_t> values_;  // count * k limbs
    std::vector<uint32_t> slots_;   // j + 1, 0 = empty; power-of-two size
  };

  // Discrete logs base y of a = y^m (Montgomery form, overwritten); `t0`
  // and `t1` are k-limb temporaries.
  Result<uint64_t> LogBsgs(uint64_t* a,
                           bignum::MontgomeryContext::Scratch* scratch) const;
  Result<uint64_t> LogDigits(uint64_t* a, uint64_t* t0, uint64_t* t1,
                             bignum::MontgomeryContext::Scratch* scratch) const;
  Result<uint64_t> LogSplit(uint64_t* a, uint64_t* t0, uint64_t* t1,
                            bignum::MontgomeryContext::Scratch* scratch) const;

  bignum::BigInt p1_;
  bignum::BigInt p2_;
  bignum::BigInt n_;
  bignum::BigInt exponent_;  // (p1 - 1) / r
  uint64_t r_ = 0;
  uint64_t three_k_ = 0;     // k when r == 3^k, else 0
  std::shared_ptr<bignum::MontgomeryContext> mont_p1_;
  std::shared_ptr<bignum::MontgomeryContext> mont_p2_;

  // Baby-step/giant-step: baby_ = {y^j : j < bsgs_t_}, giant_ = y^{-t}.
  uint64_t bsgs_t_ = 0;
  PowerTable baby_;
  std::vector<uint64_t> giant_;

  // Appendix A.2 digits (r = 3^k): w = y^{3^{k-1}}, w^2, and
  // strips_[(2i + d - 1) * k1] = y^{-d * 3^i} for d in {1, 2}, i < k.
  std::vector<uint64_t> w_;
  std::vector<uint64_t> w2_;
  std::vector<uint64_t> strips_;

  // Two-level split (r = 3^k): t = 3^ceil(k/2), s = r / t = 3^split_cubes_;
  // split_ = {(y^s)^j : j < t}, inverse_ = {y^{-j} : j < t}.
  uint64_t split_t_ = 0;
  uint64_t split_cubes_ = 0;
  PowerTable split_;
  std::vector<uint64_t> inverse_;
};

/// \brief A generated keypair.
class BenalohKeyPair {
 public:
  /// \brief Generates keys per BenalohKeyOptions. Deterministic given `rng`.
  static Result<BenalohKeyPair> Generate(const BenalohKeyOptions& options,
                                         Rng* rng);

  const BenalohPublicKey& public_key() const { return *public_key_; }
  const BenalohPrivateKey& private_key() const { return *private_key_; }

 private:
  BenalohKeyPair() = default;
  std::shared_ptr<BenalohPublicKey> public_key_;
  std::shared_ptr<BenalohPrivateKey> private_key_;
};

/// \brief Returns k if v == 3^k (k >= 1), otherwise 0.
uint64_t ExactPowerOfThree(uint64_t v);

/// \brief Prime factorization by trial division; `v` is a small message-space
///        size (fits comfortably; not for cryptographic operands).
std::vector<uint64_t> DistinctPrimeFactors(uint64_t v);

}  // namespace embellish::crypto

#endif  // EMBELLISH_CRYPTO_BENALOH_H_
