// Montgomery multiplication context for a fixed odd modulus.
//
// The KO-PIR server multiplies thousands of KeyLen-bit residues per query
// (Appendix A.1), and Benaloh encryption performs two modexps per term
// (Algorithm 3); both sit on this context. Implementation is the standard
// CIOS (coarsely integrated operand scanning) loop over 64-bit limbs.
//
// Two API tiers are provided:
//  - Value APIs (Mul, ModExp, MontMul on vectors) — convenient, allocate.
//  - Scratch APIs (MontMulInto, ModExpInto, FromMontgomeryInto) — all
//    intermediates live in a caller-owned Scratch, so the steady state
//    performs zero heap allocations per operation. The PIR row loop and the
//    batched Benaloh/Paillier encrypt paths run exclusively on this tier,
//    with one Scratch per worker thread.

#ifndef EMBELLISH_BIGNUM_MONTGOMERY_H_
#define EMBELLISH_BIGNUM_MONTGOMERY_H_

#include <vector>

#include "bignum/bigint.h"
#include "common/status.h"

namespace embellish::bignum {

/// \brief Precomputed state for fast multiplication modulo a fixed odd n.
class MontgomeryContext {
 public:
  /// \brief Window width of the sliding-window exponentiation.
  static constexpr int kExpWindowBits = 4;
  /// \brief Odd-power table entries: a^1, a^3, ..., a^(2^w - 1).
  static constexpr size_t kExpWindowTableSize = 1u << (kExpWindowBits - 1);

  /// \brief Reusable workspace for the allocation-free kernels.
  ///
  /// Holds the CIOS accumulator and (lazily, on first ModExpInto) the
  /// windowed-exponentiation tables. Not thread-safe: use one Scratch per
  /// thread. A Scratch is sized for the limb width of the context it was
  /// created for and may be reused across contexts of that width or
  /// narrower.
  class Scratch {
   public:
    explicit Scratch(const MontgomeryContext& ctx);

    /// \brief Limb width this scratch was sized for.
    size_t limb_count() const { return k_; }

   private:
    friend class MontgomeryContext;

    /// Grows the exponentiation buffers; no-op once sized (steady state
    /// allocates nothing).
    void EnsureExpBuffers(size_t k);

    size_t k_;
    std::vector<uint64_t> t_;       // k+2 CIOS accumulator
    std::vector<uint64_t> sq_;      // k: base^2 for the odd-power table
    std::vector<uint64_t> window_;  // kExpWindowTableSize * k odd powers
    std::vector<uint64_t> chunk_;   // k: one chunk of a wide ToMontgomeryInto
  };

  /// \brief Builds a context; `modulus` must be odd and > 1.
  static Result<MontgomeryContext> Create(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  /// \brief a * b mod n for a, b already reduced mod n (not in Montgomery
  ///        form; conversion happens internally). Convenience wrapper.
  BigInt Mul(const BigInt& a, const BigInt& b) const;

  /// \brief a^e mod n. Sliding-window exponentiation (kExpWindowBits).
  BigInt ModExp(const BigInt& a, const BigInt& e) const;

  // -- Value API for batched work (PIR row products) --

  /// \brief Converts into Montgomery form: aR mod n.
  std::vector<uint64_t> ToMontgomery(const BigInt& a) const;

  /// \brief Converts out of Montgomery form.
  BigInt FromMontgomery(const std::vector<uint64_t>& a) const;

  /// \brief Montgomery product of two Montgomery-form values (CIOS).
  std::vector<uint64_t> MontMul(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) const;

  /// \brief Montgomery form of 1 (i.e. R mod n) — the product identity.
  const std::vector<uint64_t>& One() const { return r_mod_n_; }

  /// \brief Limb width k of the modulus; all Montgomery vectors have size k.
  size_t limb_count() const { return k_; }

  // -- Scratch API: zero allocations per operation in steady state --
  //
  // All pointers refer to k = limb_count() limbs.

  /// \brief out = a * b * R^{-1} mod n for Montgomery-form a, b. `out` may
  ///        alias `a` and/or `b`: output limbs are written only after both
  ///        inputs have been fully consumed.
  void MontMulInto(const uint64_t* a, const uint64_t* b, uint64_t* out,
                   Scratch* scratch) const;

  /// \brief Converts into Montgomery form without heap allocation, for any
  ///        width of `a`. Values of at most k limbs need not be reduced below
  ///        n (any k-limb value is valid CIOS input); wider values are
  ///        reduced by Horner's rule over k-limb chunks, two MontMuls and a
  ///        modular add per chunk. This is how a residue mod p*q is brought
  ///        into a context for the prime p (Benaloh and PIR decryption).
  void ToMontgomeryInto(const BigInt& a, uint64_t* out,
                        Scratch* scratch) const;

  /// \brief As above for the `count` little-endian limbs at `a` (leading
  ///        zero limbs allowed), e.g. a residue read off the wire.
  void ToMontgomeryInto(const uint64_t* a, size_t count, uint64_t* out,
                        Scratch* scratch) const;

  /// \brief Bit-selected product chain, the PIR row kernel:
  ///          for j in [0, count):  acc *= factors[(2j + bit_j) * k]
  ///        with bit_j = (selector[j / 64] >> (j % 64)) & 1 and everything in
  ///        Montgomery form. Equivalent to `count` MontMulInto calls, but the
  ///        limb-width dispatch happens once for the whole chain and the
  ///        fixed-width kernel inlines into the loop — this is what makes the
  ///        inner loop run at register speed.
  void MontMulSelectInto(const uint64_t* factors, const uint64_t* selector,
                         size_t count, uint64_t* acc, Scratch* scratch) const;

  /// \brief out = base^e in Montgomery form; `base_mont` is Montgomery-form.
  ///        e == 0 yields the Montgomery form of 1. `out` must NOT alias
  ///        `base_mont` (it is initialized before the base is consumed).
  void ModExpInto(const uint64_t* base_mont, const BigInt& e, uint64_t* out,
                  Scratch* scratch) const;

  /// \brief Converts a Montgomery-form value to plain limbs (aR -> a).
  ///        `out` may alias `a`.
  void FromMontgomeryInto(const uint64_t* a, uint64_t* out,
                          Scratch* scratch) const;

 private:
  MontgomeryContext() = default;

  BigInt modulus_;
  std::vector<uint64_t> n_limbs_;
  std::vector<uint64_t> r_mod_n_;    // R mod n, Montgomery form of 1
  std::vector<uint64_t> r2_limbs_;   // R^2 mod n, k limbs, for ToMontgomery
  std::vector<uint64_t> one_plain_;  // plain 1, k limbs, for FromMontgomery
  BigInt r2_mod_n_;                  // R^2 mod n, for ToMontgomery
  uint64_t n_prime_ = 0;             // -n^{-1} mod 2^64
  size_t k_ = 0;
};

}  // namespace embellish::bignum

#endif  // EMBELLISH_BIGNUM_MONTGOMERY_H_
