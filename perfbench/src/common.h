// Shared plumbing for the end-to-end benchmark: run options, the in-memory
// span tracer, client-observed query accounting, and the result record every
// workload fills in.

#ifndef EMBELLISH_PERFBENCH_COMMON_H_
#define EMBELLISH_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/answer_path.h"
#include "common/cpuinfo.h"
#include "embellish.h"

namespace perfbench {

using namespace embellish;

/// \brief Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;    // tiny fixture, one set-up, a few rounds
  bool corrupt = false;  // negative self-test: tamper with one answer
  std::string trace_path;  // where spans are written (trace runs only)
};

/// \brief Monotonic wall clock and calling-thread CPU clock, nanoseconds.
int64_t WallNanos();
int64_t ThreadCpuNanos();

// ---------------------------------------------------------------------------
// Tracing: one span per call into a layer, kept in memory, written at exit.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;      // index into the span vector, -1 for a root
  uint64_t request_id = 0;  // shared by every span of one query
};

/// \brief Records spans on the generator thread (every call the benchmark
///        times is made from that one thread, so a stack gives parents).
///        Disabled, Open/Close cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int32_t Open(const char* name, uint64_t request_id, int64_t start_ns);
  void Close(int32_t span, int64_t end_ns);

  /// \brief Self time of every span: its duration minus the part of it that
  ///        its direct children cover.
  std::vector<int64_t> SelfNanos() const;

  const std::vector<Span>& spans() const { return spans_; }

  /// \brief Writes one JSON object per span, one per line.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// \brief Linear-interpolated quantile, q in [0, 1]; 0 for no values.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// \brief Wall and thread-CPU time of one timed call.
struct Timing {
  double wall_ms = 0;
  double cpu_ms = 0;
};

/// \brief Runs `fn`, adds its wall and CPU time to `*out`, and records a
///        span named `name` when tracing is on.
template <class F>
auto Timed(Tracer& tracer, const char* name, uint64_t request_id, Timing* out,
           F&& fn) {
  const int64_t w0 = WallNanos();
  const int64_t c0 = ThreadCpuNanos();
  const int32_t span = tracer.Open(name, request_id, w0);
  struct Finish {
    Tracer& tracer;
    int32_t span;
    int64_t w0, c0;
    Timing* out;
    ~Finish() {
      const int64_t w1 = WallNanos();
      const int64_t c1 = ThreadCpuNanos();
      tracer.Close(span, w1);
      out->wall_ms += static_cast<double>(w1 - w0) / 1e6;
      out->cpu_ms += static_cast<double>(c1 - c0) / 1e6;
    }
  } finish{tracer, span, w0, c0, out};
  return fn();
}

/// \brief An open span for a region that is not one call (a round, a set-up
///        repetition). Closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request_id)
      : tracer_(tracer), span_(tracer.Open(name, request_id, WallNanos())) {}
  ~ScopedSpan() { tracer_.Close(span_, WallNanos()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t span_;
};

/// \brief Sets up `repetitions` fresh worlds with `set_up(repetition, world)`
///        and keeps the last one; `*setup_s` gets the median wall time.
///        Each repetition is a "setup" span whose request id is its index.
template <class World, class F>
Result<std::unique_ptr<World>> SetUpRepeatedly(size_t repetitions,
                                               Tracer& tracer, double* setup_s,
                                               F&& set_up) {
  std::vector<double> seconds;
  std::unique_ptr<World> world;
  for (size_t rep = 0; rep < repetitions; ++rep) {
    world.reset();  // the previous world is torn down before the next is timed
    world = std::make_unique<World>();
    ScopedSpan span(tracer, "setup", rep);
    const int64_t t0 = WallNanos();
    EMB_RETURN_NOT_OK(set_up(rep, world.get()));
    seconds.push_back(static_cast<double>(WallNanos() - t0) / 1e9);
  }
  *setup_s = Median(std::move(seconds));
  return world;
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What a workload hands back to main().
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Raw counters printed before the result line ("name value").
  std::vector<std::pair<std::string, uint64_t>> counts;
  /// Wall time of the timed request stream (set-up excluded).
  double measured_s = 0;
  /// The first failed check, for the error message.
  std::string first_failure;

  void Fail(const std::string& what) {
    if (correct) first_failure = what;
    correct = false;
  }
};

/// \brief Client-observed accounting of one workload's queries.
///
/// A query's latency is its own client encode time plus the wall time of the
/// service call that answered it plus its own client decode time.
class QueryLedger {
 public:
  void AddQuery(double latency_ms, double client_cpu_ms, uint64_t uplink,
                uint64_t downlink);
  void AddServiceTime(double ms, uint64_t requests_answered);

  /// \brief Appends the eight end-to-end metrics.
  void Report(double setup_s, std::vector<Metric>* out) const;

 private:
  std::vector<double> latencies_;
  double client_cpu_ms_ = 0;
  uint64_t uplink_ = 0;
  uint64_t downlink_ = 0;
  double service_ms_ = 0;
  uint64_t service_requests_ = 0;
};

/// \brief Rounds in one run: `seconds` times the workload's calibrated
///        rate (so the stream takes about that long on the reference host),
///        or `smoke_rounds` at smoke size. A fixed count, not a deadline, so
///        every count of a run repeats exactly for its seed.
size_t StreamRounds(const RunOptions& o, double rounds_per_second,
                    size_t smoke_rounds);

/// \brief num / den, or 0 when den is 0.
double Share(double num, double den);

/// \brief Every per-layer metric, in output order: mean self times from the
///        trace, plus the counter-derived metrics the workload measured in
///        `counters`. A layer the workload does not cross reads 0.
void ReportPerLayer(const Tracer& tracer, size_t setup_repetitions,
                    const std::map<std::string, double>& counters,
                    std::vector<Metric>* out);

/// \brief Plaintext reference: EvaluateFull over the distinct terms,
///        truncated to k. `positive_only` keeps score-positive documents
///        only (Algorithm 5 post-filters the zero-score decoy matches).
std::vector<index::ScoredDoc> ReferenceTopK(
    const index::InvertedIndex& index, std::vector<wordnet::TermId> terms,
    size_t k, bool positive_only);

/// \brief The negative self-test's tampering: swaps two ranked documents (or
///        perturbs the only one, or invents one).
void TamperRanking(std::vector<index::ScoredDoc>* ranked);

/// \brief Sizes of the database every workload builds.
struct FixtureOptions {
  size_t lexicon_terms = 12000;
  size_t docs = 5000;
  size_t mean_doc_tokens = 150;
  size_t bucket_size = 4;
  size_t shard_count = 1;
};

struct Fixture {
  std::unique_ptr<wordnet::WordNetDatabase> lexicon;
  std::unique_ptr<corpus::Corpus> corpus;
  std::shared_ptr<core::BucketOrganization> buckets;
  std::unique_ptr<index::IndexCatalog> catalog;
};

/// \brief Builds lexicon, corpus, buckets and the index catalog, recording
///        the corpus.generate / core.bucketize / index.build spans under
///        request id `repetition`. The fixture does not depend on the run
///        seed: the seed drives keys and request streams only, so run-to-run
///        differences come from traffic, not from a different database.
Result<Fixture> BuildFixture(const FixtureOptions& options, Tracer& tracer,
                             uint64_t repetition, ThreadPool* pool);

/// \brief Indexed terms whose bucket (every member's list, summed) holds
///        between `lo` and `hi` postings, ascending by term id.
std::vector<wordnet::TermId> TermsInBucketBand(const index::InvertedIndex& idx,
                                               const core::BucketOrganization& org,
                                               size_t lo, size_t hi);

/// \brief Width of the service's ThreadPool: 1, all service work inline on
///        the calling thread. On the 4-vCPU reference host a 4-wide pool
///        made pir_popular's batches no faster and tripled the run-to-run
///        spread of its latency figures (README, "Service pool").
inline constexpr size_t kServicePoolThreads = 1;

/// \brief Slices behind the coordinator: the host's core count, at most 4.
size_t SliceCount();

crypto::BenalohKeyOptions SessionKeyOptions();

/// \brief A different 64-bit stream per (seed, purpose, index).
uint64_t SubSeed(uint64_t seed, uint64_t purpose, uint64_t index);

// Workload entry points.
RunResult RunPrRecurring(const RunOptions& options, Tracer& tracer);
RunResult RunPirPopular(const RunOptions& options, Tracer& tracer);
RunResult RunShardedMixedIngest(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench

#endif  // EMBELLISH_PERFBENCH_COMMON_H_
