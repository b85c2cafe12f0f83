#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

int64_t WallNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// --- Tracer -----------------------------------------------------------------

int32_t Tracer::Open(const char* name, uint64_t request_id, int64_t start_ns) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request_id = request_id;
  spans_.push_back(span);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int32_t span, int64_t end_ns) {
  if (!enabled_ || span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = end_ns;
  // Spans close in LIFO order on the one generator thread.
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

std::vector<int64_t> Tracer::SelfNanos() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children are nested inside their parent and never overlap each other
  // (one thread, stack discipline), so the covered part is their sum.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request_id\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(f) == 0;
}

// --- Ledger -----------------------------------------------------------------

namespace {

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

void QueryLedger::AddQuery(double latency_ms, double client_cpu_ms,
                           uint64_t uplink, uint64_t downlink) {
  latencies_.push_back(latency_ms);
  client_cpu_ms_ += client_cpu_ms;
  uplink_ += uplink;
  downlink_ += downlink;
}

void QueryLedger::AddServiceTime(double ms, uint64_t requests_answered) {
  service_ms_ += ms;
  service_requests_ += requests_answered;
}

void QueryLedger::Report(double setup_s, std::vector<Metric>* out) const {
  const double n = static_cast<double>(std::max<size_t>(1, latencies_.size()));
  out->push_back({"setup_s", setup_s, "s"});
  out->push_back({"query_p50_ms", Quantile(latencies_, 0.50), "ms"});
  out->push_back({"query_p99_ms", Quantile(latencies_, 0.99), "ms"});
  out->push_back({"service_qps",
                  Share(static_cast<double>(service_requests_),
                        service_ms_ / 1000.0),
                  "1/s"});
  out->push_back({"client_cpu_ms_per_query", client_cpu_ms_ / n, "ms"});
  out->push_back(
      {"uplink_kib_per_query", static_cast<double>(uplink_) / 1024.0 / n, "KiB"});
  out->push_back({"downlink_kib_per_query",
                  static_cast<double>(downlink_) / 1024.0 / n, "KiB"});
  out->push_back({"peak_rss_mib", PeakRssMib(), "MiB"});
}

size_t StreamRounds(const RunOptions& o, double rounds_per_second,
                    size_t smoke_rounds) {
  if (o.smoke) return smoke_rounds;
  return std::max<size_t>(
      1, static_cast<size_t>(o.seconds * rounds_per_second + 0.5));
}

double Share(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// --- Per-layer --------------------------------------------------------------

namespace {

// Mean self time per span named `name`, in ms (0 when none was recorded).
double MeanSelfMs(const Tracer& tracer, const std::vector<int64_t>& self,
                  const char* name) {
  const std::string want(name);
  int64_t total = 0;
  size_t count = 0;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    if (want == tracer.spans()[i].name) {
      total += self[i];
      ++count;
    }
  }
  return Share(static_cast<double>(total) / 1e6, static_cast<double>(count));
}

// Median over set-up repetitions of the summed self time of `name`, in s
// (set-up spans carry their repetition index as request id).
double SetupSelfSeconds(const Tracer& tracer, const std::vector<int64_t>& self,
                        const char* name, size_t repetitions) {
  const std::string want(name);
  std::vector<double> per_rep(repetitions, 0.0);
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    if (want == s.name && s.request_id < repetitions) {
      per_rep[s.request_id] += static_cast<double>(self[i]) / 1e9;
    }
  }
  return Median(per_rep);
}

}  // namespace

void ReportPerLayer(const Tracer& tracer, size_t setup_repetitions,
                    const std::map<std::string, double>& counters,
                    std::vector<Metric>* out) {
  const std::vector<int64_t> self = tracer.SelfNanos();
  for (const char* name : {"corpus.generate", "core.bucketize", "index.build",
                           "crypto.keygen", "server.warmup"}) {
    out->push_back({std::string(name) + "_s",
                    SetupSelfSeconds(tracer, self, name, setup_repetitions),
                    "s"});
  }
  for (const char* name :
       {"core.formulate", "core.post_filter", "crypto.pir_query",
        "crypto.pir_decode", "core.pir_rank", "server.batch",
        "server.coordinator_batch", "index.apply_delta",
        "server.advance_epoch"}) {
    out->push_back({std::string(name) + "_ms", MeanSelfMs(tracer, self, name),
                    "ms"});
  }
  // Counter-derived metrics: the workload supplies the ones it measures;
  // the rest read 0 (the workload does not cross that layer).
  const std::pair<const char*, const char*> counter_units[] = {
      {"server.post_cutover_batch_ms", "ms"},
      {"server.cpu_ms_per_request", "ms"},
      {"server.cache_hit_ratio", "ratio"},
      {"crypto.pir_queries_per_sweep", "ratio"},
      {"crypto.pir_budget_splits", "count"},
      {"server.shard_trips_per_request", "ratio"},
      {"server.shard_trip_us", "us"},
      {"server.trip_overlap", "ratio"}};
  for (const auto& [name, unit] : counter_units) {
    const auto it = counters.find(name);
    out->push_back({name, it == counters.end() ? 0 : it->second, unit});
  }
}

// --- Checks -----------------------------------------------------------------

std::vector<index::ScoredDoc> ReferenceTopK(const index::InvertedIndex& index,
                                            std::vector<wordnet::TermId> terms,
                                            size_t k, bool positive_only) {
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::vector<index::ScoredDoc> full = index::EvaluateFull(index, terms);
  std::vector<index::ScoredDoc> out;
  for (const index::ScoredDoc& d : full) {
    if (out.size() == k) break;
    if (d.score > 0 || !positive_only) out.push_back(d);
  }
  return out;
}

void TamperRanking(std::vector<index::ScoredDoc>* ranked) {
  if (ranked->size() >= 2) {
    std::swap((*ranked)[0].doc, (*ranked)[1].doc);
    if ((*ranked)[0].doc == (*ranked)[1].doc) (*ranked)[0].doc += 1;
  } else if (ranked->size() == 1) {
    (*ranked)[0].doc += 1;
  } else {
    ranked->push_back(index::ScoredDoc{0, 1});
  }
}

// --- Fixture ----------------------------------------------------------------

Result<Fixture> BuildFixture(const FixtureOptions& options, Tracer& tracer,
                             uint64_t repetition, ThreadPool* pool) {
  Fixture f;
  Timing t;
  EMB_RETURN_NOT_OK(Timed(tracer, "corpus.generate", repetition, &t, [&] {
    wordnet::SyntheticWordNetOptions wo;
    wo.target_term_count = options.lexicon_terms;
    wo.seed = 77;
    EMB_ASSIGN_OR_RETURN(wordnet::WordNetDatabase lexicon,
                         wordnet::GenerateSyntheticWordNet(wo));
    f.lexicon = std::make_unique<wordnet::WordNetDatabase>(std::move(lexicon));
    corpus::SyntheticCorpusOptions co;
    co.num_docs = options.docs;
    co.mean_doc_tokens = options.mean_doc_tokens;
    co.num_topics = 64;
    co.terms_per_topic = std::min<size_t>(1500, options.lexicon_terms / 4);
    co.seed = 78;
    EMB_ASSIGN_OR_RETURN(corpus::Corpus corp,
                         corpus::GenerateSyntheticCorpus(*f.lexicon, co));
    f.corpus = std::make_unique<corpus::Corpus>(std::move(corp));
    return Status::OK();
  }));
  EMB_RETURN_NOT_OK(Timed(tracer, "core.bucketize", repetition, &t, [&] {
    const core::SpecificityMap specificity =
        core::SpecificityMap::FromHypernymDepth(*f.lexicon);
    const core::SequencerResult sequences = core::SequenceDictionary(*f.lexicon);
    core::BucketizerOptions bo;
    bo.bucket_size = options.bucket_size;
    bo.segment_size = SIZE_MAX;  // clamped to the maximum N / BktSz
    EMB_ASSIGN_OR_RETURN(core::BucketOrganization org,
                         core::FormBuckets(sequences, specificity, bo));
    f.buckets = std::make_shared<core::BucketOrganization>(std::move(org));
    return Status::OK();
  }));
  EMB_RETURN_NOT_OK(Timed(tracer, "index.build", repetition, &t, [&] {
    index::IndexCatalogOptions copts;
    copts.sharding.shard_count = options.shard_count;
    EMB_ASSIGN_OR_RETURN(f.catalog, index::IndexCatalog::Create(
                                        *f.corpus, f.buckets, copts, pool));
    return Status::OK();
  }));
  return f;
}

std::vector<wordnet::TermId> TermsInBucketBand(
    const index::InvertedIndex& idx, const core::BucketOrganization& org,
    size_t lo, size_t hi) {
  std::vector<wordnet::TermId> out;
  for (wordnet::TermId term : idx.IndexedTerms()) {
    auto where = org.Locate(term);
    if (!where.ok()) continue;
    size_t postings = 0;
    for (wordnet::TermId member : org.bucket(where->bucket)) {
      postings += idx.ListLength(member);
    }
    if (postings >= lo && postings <= hi) out.push_back(term);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t SliceCount() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

crypto::BenalohKeyOptions SessionKeyOptions() {
  crypto::BenalohKeyOptions ko;
  ko.key_bits = 256;
  ko.r = 59049;
  return ko;
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  // splitmix64 over a mixed key.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose * 0xBF58476D1CE4E5B9ull +
               index * 0x94D049BB133111EBull + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
