// Kushilevitz–Ostrovsky computationally-private information retrieval
// (FOCS 1997), as specified in the paper's Appendix A.1 and used as the
// baseline "Alternate Retrieval Method" in Section 4 / Section 5.2.
//
// The server holds a private database organized as an r x c matrix of bits.
// To fetch column y privately, the user sends c numbers q_1..q_c in Z*_n
// where q_y is a quadratic non-residue (with Jacobi symbol +1) and all other
// q_j are quadratic residues. For every row i the server returns
//   gamma_i = prod_j v_ij,  v_ij = q_j^2 if b_ij = 0 else q_j.
// gamma_i is a QR iff b_iy = 0, which the user tests with the factorization
// of n: gamma_i is a QR iff its Legendre symbols mod p1 and mod p2 are both
// +1. One protocol execution therefore retrieves one whole column — in the
// paper's usage, one term's padded inverted list out of a bucket.

#ifndef EMBELLISH_CRYPTO_PIR_H_
#define EMBELLISH_CRYPTO_PIR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace embellish::crypto {

/// \brief The bit-matrix "database" the PIR server answers over.
///
/// Rows are bit positions, columns are items (inverted lists in the paper's
/// usage). Bits are stored packed, row-major.
class PirDatabase {
 public:
  /// \brief Creates an all-zero matrix of `rows` x `cols` bits.
  PirDatabase(size_t rows, size_t cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  void SetBit(size_t row, size_t col, bool value);
  bool GetBit(size_t row, size_t col) const;

  /// \brief Number of 64-bit words ExtractRow writes per row.
  size_t RowWords() const { return (cols_ + 63) / 64; }

  /// \brief Copies row `row` into `words` (little-endian bit order: column j
  ///        of the row is `(words[j / 64] >> (j % 64)) & 1`). `words` must
  ///        hold RowWords() entries. This is the hot-path accessor: the PIR
  ///        answer kernel reads whole words instead of calling GetBit per
  ///        (row, column) pair.
  void ExtractRow(size_t row, uint64_t* words) const;

  /// \brief Loads column `col` from bytes (MSB-first within each byte).
  void SetColumnFromBytes(size_t col, const std::vector<uint8_t>& bytes);

  /// \brief Size of the database in bytes (for storage accounting).
  size_t SizeBytes() const { return bits_.size(); }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<uint8_t> bits_;  // packed, row-major, 8 bits per byte
};

/// \brief PIR query: the modulus and one residue per database column.
struct PirQuery {
  bignum::BigInt n;
  std::vector<bignum::BigInt> q;  // size = cols

  /// \brief Wire size in bytes: (1 + cols) values of KeyLen bits.
  size_t WireBytes() const;
};

/// \brief PIR response: one residue per database row, held exactly as the
///        wire carries it — rows() values of value_size() bytes each,
///        big-endian and zero-padded, back to back. The server writes rows
///        straight into this buffer and the client reads them in place: no
///        BigInt exists per row on either side.
class PirResponse {
 public:
  PirResponse() = default;

  /// \brief `rows` zero values of `value_size` bytes each.
  PirResponse(size_t value_size, size_t rows);

  /// \brief Adopts `bytes`, whose size must be a multiple of `value_size`.
  PirResponse(size_t value_size, std::vector<uint8_t> bytes);

  /// \brief Each value padded to `value_size` bytes; a value must fit.
  ///        For tests and reference implementations.
  static PirResponse FromValues(std::span<const bignum::BigInt> values,
                                size_t value_size);

  size_t value_size() const { return value_size_; }
  size_t rows() const {
    return value_size_ == 0 ? 0 : bytes_.size() / value_size_;
  }

  /// \brief Row i's residue: value_size() big-endian bytes.
  std::span<const uint8_t> value(size_t i) const {
    return {bytes_.data() + i * value_size_, value_size_};
  }
  uint8_t* mutable_value(size_t i) { return bytes_.data() + i * value_size_; }

  /// \brief Row i's residue as a BigInt (allocates; tests and diagnostics).
  bignum::BigInt ValueAsBigInt(size_t i) const;

  /// \brief All rows, in wire order.
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  /// \brief Wire size in bytes given the query's key length.
  size_t WireBytes(size_t key_bytes) const { return rows() * key_bytes; }

  bool operator==(const PirResponse& other) const = default;

 private:
  size_t value_size_ = 0;
  std::vector<uint8_t> bytes_;
};

/// \brief Client side: key state, query generation, response decoding.
class PirClient {
 public:
  /// \brief Generates a fresh n = p1*p2 of `key_bits` bits.
  static Result<PirClient> Create(size_t key_bits, Rng* rng);

  /// \brief Builds a query for column `target_col` of a `cols`-wide database.
  ///        Every residue is a uniform draw below n, kept when it is a unit —
  ///        both Legendre symbols nonzero, which is gcd(z, n) = 1 tested
  ///        with the factorization — and, for the target column, a
  ///        non-residue mod both primes; other columns send its square.
  Result<PirQuery> BuildQuery(size_t target_col, size_t cols, Rng* rng) const;

  /// \brief Decodes the response into the target column's bits: row i's
  ///        bit is 0 iff gamma_i is a QR mod n, i.e. iff the Legendre symbols
  ///        (gamma_i|p1) and (gamma_i|p2) are both +1. Every row must lie in
  ///        [1, n), compared numerically whatever the value width, or the
  ///        call fails with Corruption. A response over a c-column bucket
  ///        holds at most 2^c distinct residues, so the symbols are computed
  ///        once per distinct value through a memo keyed by the value bytes.
  ///        The symbols come from a division-free binary Jacobi on
  ///        fixed-width limbs (bignum::JacobiLimbs); allocations do not grow
  ///        with the row count.
  Result<std::vector<bool>> DecodeResponse(const PirResponse& response) const;

  size_t key_bytes() const { return (n_.BitLength() + 7) / 8; }
  const bignum::BigInt& n() const { return n_; }
  const bignum::BigInt& p1() const { return p1_; }
  const bignum::BigInt& p2() const { return p2_; }

  /// \brief True iff `v` is a quadratic residue mod n (uses the trapdoor):
  ///        both Legendre symbols are +1. A non-unit (symbol 0) is not a QR.
  bool IsQuadraticResidue(const bignum::BigInt& v) const;

 private:
  PirClient() = default;

  bignum::BigInt p1_;
  bignum::BigInt p2_;
  bignum::BigInt n_;
  std::vector<uint8_t> n_bytes_;  // n big-endian, no leading zero byte
  std::shared_ptr<bignum::MontgomeryContext> mont_p1_;
  std::shared_ptr<bignum::MontgomeryContext> mont_p2_;
};

/// \brief Operation counters for one Answer/AnswerBatch evaluation.
///
/// The accounting keeps the batch amortization claim truthful: work shared
/// across the queries of a sweep (row extraction) is counted once per sweep,
/// work owned by a query (its table build, its per-row MontMuls) is counted
/// per query. `mont_muls` for a single query equals exactly what `Answer`
/// reports through `ops_out`, so batch-vs-serial op comparisons are
/// apples-to-apples. On the table path a query costs, per column group of
/// width w, 2(2^w - w - 1) + 2^w build MontMuls, plus g - 1 per row for g
/// groups; the naive chain costs cols per row.
struct PirBatchStats {
  uint64_t queries = 0;       ///< queries answered
  uint64_t sweeps = 0;        ///< passes over the bit matrix (sub-batches)
  uint64_t budget_splits = 0; ///< extra sweeps forced by the table budget
  uint64_t rows_extracted = 0;   ///< rows pulled from the matrix, shared per sweep
  uint64_t mont_muls = 0;        ///< modular multiplications, summed over queries
  uint64_t table_build_muls = 0; ///< subset of mont_muls spent building tables
  uint64_t table_queries = 0;    ///< queries on the combined-table path
  /// Vector Montgomery multiplications issued on the SIMD lane path — one per
  /// kernel invocation, however many lanes it carried. Domain conversions
  /// (pack/unpack) are excluded, mirroring mont_muls. Zero on a scalar sweep.
  uint64_t simd_lane_muls = 0;
  /// Query-occupied lanes summed over those invocations; padding lanes are
  /// not counted, so simd_active_lanes <= 8 * simd_lane_muls always.
  uint64_t simd_active_lanes = 0;
  double cpu_ms = 0.0;           ///< thread-CPU ms summed across workers

  /// \brief Mean lane occupancy of the SIMD path,
  ///        simd_active_lanes / (8 * simd_lane_muls); 0 when no vector kernel
  ///        ran. 1.0 means every invocation carried a full 8 lanes.
  double simd_fill() const;

  void Add(const PirBatchStats& other);
};

/// \brief Server side: evaluates queries against a PirDatabase.
///
/// Combined tables. The columns split into groups of up to 8. For a group of
/// width w a row's partial product prod_j (b_ij ? q_j : q_j^2) depends only
/// on the row's w bits v, so each query builds, once per sweep, the subset
/// products S1[v] of {q_j} and S2[v] of {q_j^2} and folds them into one
/// table T[v] = S1[v] * S2[~v]. A row then costs g - 1 MontMuls for g groups
/// (T_0[v_0] * T_1[v_1] * ...) and one conversion out of Montgomery form,
/// written straight into the response buffer. A single-group query (cols <=
/// 8, e.g. every 4-term bucket) is the degenerate case: its 2^w entries are
/// converted to response bytes once, and each row is a copy of its pattern's
/// bytes — a c-column response holds at most 2^c distinct residues. The
/// amortization gate takes the tables only when build plus row MontMuls beat
/// the naive cols per row and the tables fit the batch budget; otherwise a
/// query runs the naive chain. Every product is a canonical residue mod n,
/// so all paths return the same values.
///
/// Responses are flat (see PirResponse): rows x value_size big-endian bytes,
/// exactly the wire layout, so encoding a response is a header and a copy.
///
/// Rows are the parallel axis when a thread pool is supplied: every worker
/// owns its Montgomery scratch, row-word buffer and accumulator, and the row
/// loop performs no heap allocation.
///
/// AnswerBatch answers Q queries in one sweep: each row of the bit matrix is
/// extracted once and every query's state (tables or factor chain) is
/// consulted against it, turning Q passes over the database into one.
///
/// SIMD lanes run only where rows multiply: queries with g >= 2 groups or on
/// the naive chain. When the CPU has a vector Montgomery tier (see
/// bignum/montgomery_lanes.h), same-width members of a sweep advance through
/// the lane engine up to 8 at a time, with their combined tables built in
/// lane form sharing one v-chain. Single-group queries copy patterns and
/// have nothing to vectorize. Measured on one core, 800 rows: when 4-column
/// queries still multiplied per row, a Q = 2 batch (256-bit keys) took
/// 460 us on the IFMA lanes against 185 us pinned to ADX. At 16 columns and
/// Q = 8 the lanes beat ADX at every width: 80 vs 91 us/query at 256 bits,
/// 161 vs 440 at 512, 561 vs 1,731 at 1,024. Partly filled groups still
/// lose (16 columns, Q = 2, 256 bits: 661 vs 198 us). Lane outputs are
/// fully reduced, so responses stay bit-identical to the scalar path;
/// PirBatchStats::simd_fill() reports how full they ran.
class PirServer {
 public:
  /// \brief Default batch-wide budget for the subset-product tables. A batch
  ///        holds at most this many table bytes live at once; wider batches
  ///        degrade to consecutive sub-batch sweeps, never to the naive path.
  static constexpr size_t kDefaultTableBudgetBytes = size_t{4} << 20;

  /// \brief `pool` may be null (serial) and must outlive the server.
  explicit PirServer(std::shared_ptr<const PirDatabase> database,
                     ThreadPool* pool = nullptr);

  /// \brief Computes gamma_i for every row (the whole-column answer), each
  ///        padded to the byte length of the query's n.
  ///        `ops_out`, if non-null, receives the number of modular
  ///        multiplications actually performed by the row-product evaluation
  ///        (the combined tables need far fewer than the naive rows*cols;
  ///        conversions are not counted), and `cpu_ms_out`, if
  ///        non-null, the thread-CPU milliseconds consumed summed across all
  ///        participating workers.
  Result<PirResponse> Answer(const PirQuery& query,
                             uint64_t* ops_out = nullptr,
                             double* cpu_ms_out = nullptr) const;

  /// \brief Answers all `queries` with shared row extraction (see class
  ///        comment). All-or-nothing: the first invalid query fails the whole
  ///        call. Response i corresponds to queries[i]; counters are added
  ///        into `stats` when non-null.
  Result<std::vector<PirResponse>> AnswerBatch(
      std::span<const PirQuery> queries,
      PirBatchStats* stats = nullptr) const;

  /// \brief Pointer form for callers whose queries are not contiguous (the
  ///        retrieval layer batches decoded frames without copying them).
  Result<std::vector<PirResponse>> AnswerBatch(
      std::span<const PirQuery* const> queries,
      PirBatchStats* stats = nullptr) const;

  /// \brief Overrides the batch-wide table budget (tests and tuning).
  void set_table_budget_bytes(size_t bytes) { table_budget_bytes_ = bytes; }
  size_t table_budget_bytes() const { return table_budget_bytes_; }

 private:
  std::shared_ptr<const PirDatabase> database_;
  ThreadPool* pool_;  // not owned; null => serial
  size_t table_budget_bytes_ = kDefaultTableBudgetBytes;
};

}  // namespace embellish::crypto

#endif  // EMBELLISH_CRYPTO_PIR_H_
