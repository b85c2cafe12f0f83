#include "bignum/modmath.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>
#include <vector>

#include "bignum/montgomery.h"

namespace embellish::bignum {

namespace {

// Reduces `v` only when needed; already-reduced values (the common case for
// chained modular arithmetic) cost one comparison instead of a division.
const BigInt& ReduceInto(const BigInt& v, const BigInt& m, BigInt* storage) {
  if (v < m) return v;
  *storage = v % m;
  return *storage;
}

}  // namespace

BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt sa, sb;
  const BigInt& ra = ReduceInto(a, m, &sa);
  const BigInt& rb = ReduceInto(b, m, &sb);
  BigInt sum = ra + rb;
  // ra, rb < m, so sum < 2m: one subtraction replaces the final division.
  if (sum >= m) sum -= m;
  return sum;
}

BigInt ModSub(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt sa, sb;
  const BigInt& ra = ReduceInto(a, m, &sa);
  const BigInt& rb = ReduceInto(b, m, &sb);
  if (ra >= rb) return ra - rb;
  return ra + m - rb;
}

BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt sa, sb;
  const BigInt& ra = ReduceInto(a, m, &sa);
  const BigInt& rb = ReduceInto(b, m, &sb);
  return ra * rb % m;
}

BigInt ModMulReduced(const BigInt& a, const BigInt& b, const BigInt& m) {
  assert(a < m && b < m);
  return a * b % m;
}

BigInt ModExp(const BigInt& a, const BigInt& e, const BigInt& m) {
  assert(!m.IsZero());
  if (m.IsOne()) return BigInt();
  if (m.IsOdd() && m.LimbCount() >= 2) {
    auto ctx = MontgomeryContext::Create(m);
    if (ctx.ok()) return ctx->ModExp(a, e);
  }
  BigInt base = a % m;
  BigInt result(1);
  for (size_t i = e.BitLength(); i-- > 0;) {
    result = result * result % m;
    if (e.Bit(i)) result = result * base % m;
  }
  return result;
}

BigInt Gcd(const BigInt& a, const BigInt& b) {
  // Euclid; BigInt division is fast enough for crypto-sized operands and the
  // code is simpler than binary GCD with vector limb surgery.
  BigInt x = a;
  BigInt y = b;
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

Result<BigInt> ModInverse(const BigInt& a, const BigInt& m) {
  if (m.IsZero() || m.IsOne()) {
    return Status::InvalidArgument("modulus must be > 1");
  }
  // Extended Euclid tracking only the coefficient of `a`, with values kept
  // non-negative by representing the sign separately.
  BigInt r0 = m;
  BigInt r1 = a % m;
  BigInt t0;        // coefficient for m  (starts 0)
  BigInt t1(1);     // coefficient for a  (starts 1)
  bool t0_neg = false;
  bool t1_neg = false;
  while (!r1.IsZero()) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    // t2 = t0 - q*t1, in sign-magnitude form.
    BigInt qt1 = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!r0.IsOne()) {
    return Status::InvalidArgument("value is not invertible (gcd != 1)");
  }
  BigInt inv = t0 % m;
  if (t0_neg && !inv.IsZero()) inv = m - inv;
  return inv;
}

namespace {

using u128 = unsigned __int128;

// The binary Jacobi loop of JacobiLimbs on native words, which it finishes
// on once both operands fit in two limbs: from there a step is a handful of
// branch-free instructions instead of limb loops. `flips` counts sign flips
// (mod 2): (2/n) = -1 iff bits 1 and 2 of n differ (n = 3, 5 mod 8), and
// reciprocity flips when bit 1 of both a and n is set (both 3 mod 4).
template <typename Word>
void JacobiWordSteps(Word* a_io, Word* n_io, unsigned* flips, Word stop) {
  Word a = *a_io;
  Word n = *n_io;
  while (a != 0 && (a | n) > stop) {
    const uint64_t lo = static_cast<uint64_t>(a);
    unsigned shift;
    if constexpr (sizeof(Word) > sizeof(uint64_t)) {
      shift = lo != 0 ? static_cast<unsigned>(std::countr_zero(lo))
                      : 64 + static_cast<unsigned>(std::countr_zero(
                                 static_cast<uint64_t>(a >> 64)));
    } else {
      shift = static_cast<unsigned>(std::countr_zero(lo));
    }
    a >>= shift;
    *flips ^= shift & static_cast<unsigned>((n >> 1) ^ (n >> 2));
    const Word diff = a - n;
    const bool less = a < n;
    *flips ^= static_cast<unsigned>(less) & static_cast<unsigned>((a & n) >> 1);
    n = less ? a : n;
    a = less ? Word{0} - diff : diff;
  }
  *a_io = a;
  *n_io = n;
}

int JacobiU128(u128 a, u128 n, int result) {
  unsigned flips = result < 0 ? 1 : 0;
  // 128-bit steps while either operand is wider than 64 bits.
  JacobiWordSteps<u128>(&a, &n, &flips, u128{UINT64_MAX});
  if (a != 0) {
    uint64_t a64 = static_cast<uint64_t>(a);
    uint64_t n64 = static_cast<uint64_t>(n);
    JacobiWordSteps<uint64_t>(&a64, &n64, &flips, 0);
    n = n64;
  }
  if (n != 1) return 0;
  return (flips & 1) != 0 ? -1 : 1;
}

}  // namespace

int JacobiLimbs(uint64_t* a, uint64_t* n, size_t k) {
  assert(k > 0 && (n[0] & 1) != 0);
  // Binary Jacobi: strip factors of two from a, keep a >= n by swapping
  // (quadratic reciprocity), subtract, repeat until a = 0; n is then
  // gcd(a, n). Only shifts, compares and subtractions, all in place.
  size_t len = k;  // limbs at and above `len` are zero in both operands
  const auto trim = [&] {
    while (len > 2 && a[len - 1] == 0 && n[len - 1] == 0) --len;
  };
  trim();
  int result = 1;
  while (len > 2) {
    size_t zero_limbs = 0;
    while (zero_limbs < len && a[zero_limbs] == 0) ++zero_limbs;
    if (zero_limbs == len) break;  // a == 0
    // Each factor of two contributes (2/n) = -1 iff n = 3, 5 (mod 8); whole
    // zero limbs hold 64 of them, an even count.
    const unsigned shift =
        static_cast<unsigned>(std::countr_zero(a[zero_limbs]));
    if (zero_limbs != 0 || shift != 0) {
      for (size_t i = 0; i < len; ++i) {
        const size_t src = i + zero_limbs;
        const uint64_t lo = src < len ? a[src] : 0;
        const uint64_t hi = src + 1 < len ? a[src + 1] : 0;
        a[i] = shift == 0 ? lo : (lo >> shift) | (hi << (64 - shift));
      }
    }
    if ((shift & 1) != 0 && ((n[0] & 7) == 3 || (n[0] & 7) == 5)) {
      result = -result;
    }
    // Both odd now. Reciprocity flips the sign when both are 3 (mod 4).
    bool a_less = false;
    for (size_t i = len; i-- > 0;) {
      if (a[i] != n[i]) {
        a_less = a[i] < n[i];
        break;
      }
    }
    if (a_less) {
      std::swap(a, n);
      if ((a[0] & 3) == 3 && (n[0] & 3) == 3) result = -result;
    }
    uint64_t borrow = 0;  // a -= n: even, possibly zero
    for (size_t i = 0; i < len; ++i) {
      const uint64_t d = a[i] - n[i];
      const uint64_t next = (a[i] < n[i]) || (d < borrow) ? 1 : 0;
      a[i] = d - borrow;
      borrow = next;
    }
    trim();
  }
  if (len > 2) {  // a reached zero while n is still wider than two limbs
    return 0;
  }
  const auto word = [](const uint64_t* v, size_t len) {
    return len == 1 ? u128{v[0]} : (u128{v[1]} << 64) | v[0];
  };
  return JacobiU128(word(a, len), word(n, len), result);
}

int Jacobi(const BigInt& a, const BigInt& n) {
  assert(n.IsOdd() && !n.IsZero());
  const size_t k = std::max(a.LimbCount(), n.LimbCount());
  std::vector<uint64_t> a_limbs(a.limbs());
  std::vector<uint64_t> n_limbs(n.limbs());
  a_limbs.resize(k, 0);
  n_limbs.resize(k, 0);
  return JacobiLimbs(a_limbs.data(), n_limbs.data(), k);
}

BigInt RandomBelow(const BigInt& bound, Rng* rng) {
  assert(!bound.IsZero());
  size_t bits = bound.BitLength();
  size_t nbytes = (bits + 7) / 8;
  std::vector<uint8_t> buf(nbytes);
  // Rejection sampling: mask the top byte to the bound's width, retry on
  // overshoot. Expected < 2 iterations.
  const uint8_t top_mask =
      static_cast<uint8_t>(0xFF >> ((8 - bits % 8) % 8));
  while (true) {
    rng->FillBytes(buf.data(), buf.size());
    buf[0] &= top_mask;
    BigInt candidate = BigInt::FromBigEndianBytes(buf);
    if (candidate < bound) return candidate;
  }
}

BigInt RandomBits(size_t bits, Rng* rng) {
  assert(bits > 0);
  size_t nbytes = (bits + 7) / 8;
  std::vector<uint8_t> buf(nbytes);
  rng->FillBytes(buf.data(), buf.size());
  const uint8_t top_mask =
      static_cast<uint8_t>(0xFF >> ((8 - bits % 8) % 8));
  buf[0] &= top_mask;
  // Force the top bit so the value has exactly `bits` bits.
  buf[0] |= static_cast<uint8_t>(1u << ((bits - 1) % 8));
  return BigInt::FromBigEndianBytes(buf);
}

BigInt RandomUnit(const BigInt& n, Rng* rng) {
  assert(n > BigInt(1));
  while (true) {
    BigInt candidate = RandomBelow(n, rng);
    if (candidate.IsZero()) continue;
    if (Gcd(candidate, n).IsOne()) return candidate;
  }
}

}  // namespace embellish::bignum
