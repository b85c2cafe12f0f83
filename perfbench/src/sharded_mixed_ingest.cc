// sharded_mixed_ingest: a ShardCoordinator over catalog-backed slice
// servers, mostly plaintext top-k traffic with a minority of PR queries,
// and synchronous ingest at fixed points of the stream.
//
// The slices share one IndexCatalog and are reached through in-process
// transports (README: loopback TCP was measured too noisy to gate on).
// Every `delta_every` rounds the generator runs IndexCatalog::ApplyDelta and
// then ShardCoordinator::AdvanceEpoch between two rounds; that time counts
// as service time, never as any query's latency.

#include <algorithm>
#include <map>

#include "common.h"

namespace perfbench {
namespace {

struct ShardedParams {
  FixtureOptions fixture;
  size_t sessions = 16;
  // Session s sends a PR query in round r iff (s + r) % pr_every == 0, so
  // every round carries sessions / pr_every PR queries.
  size_t pr_every = 8;
  size_t pool_sets = 16;
  double zipf_s = 1.0;
  size_t k = 10;
  size_t delta_every = 50;  // rounds between ingests
  size_t delta_docs = 20;
  size_t setup_repetitions = 5;
  double rounds_per_second = 65;
  size_t band_lo = 80;
  size_t band_hi = 160;
};

ShardedParams MakeParams(const RunOptions& o) {
  ShardedParams p;
  p.fixture.shard_count = SliceCount();
  if (o.smoke) {
    p.fixture.lexicon_terms = 1500;
    p.fixture.docs = 400;
    p.sessions = 4;
    p.pr_every = 2;
    p.pool_sets = 4;
    p.delta_every = 2;
    p.delta_docs = 3;
    p.setup_repetitions = 1;
    p.band_lo = 1;
    p.band_hi = 60;
  }
  return p;
}

// Owns the serving topology; the coordinator goes first, the slices its
// transports reach last.
struct World {
  Fixture fixture;
  std::vector<server::SessionClient> clients;
  std::vector<std::unique_ptr<server::EmbellishServer>> slices;
  std::vector<std::unique_ptr<server::ShardEndpoint>> endpoints;
  std::vector<std::unique_ptr<server::InProcessTransport>> transports;
  std::unique_ptr<server::ShardCoordinator> coordinator;
};

Status SetUp(const ShardedParams& p, uint64_t seed, Tracer& tracer,
             uint64_t repetition, ThreadPool* pool, World* w) {
  EMB_ASSIGN_OR_RETURN(w->fixture,
                       BuildFixture(p.fixture, tracer, repetition, pool));
  Timing t;
  EMB_RETURN_NOT_OK(Timed(tracer, "crypto.keygen", repetition, &t, [&] {
    for (size_t s = 0; s < p.sessions; ++s) {
      EMB_ASSIGN_OR_RETURN(
          server::SessionClient c,
          server::SessionClient::Create(s + 1, w->fixture.buckets.get(),
                                        SessionKeyOptions(),
                                        SubSeed(seed, 13, s)));
      w->clients.push_back(std::move(c));
    }
    return Status::OK();
  }));
  return Timed(tracer, "server.warmup", repetition, &t, [&]() -> Status {
    const size_t slices = p.fixture.shard_count;
    std::vector<server::ShardTransport*> raw;
    for (size_t s = 0; s < slices; ++s) {
      server::EmbellishServerOptions so;
      so.shard_slice = s;
      so.shard_slice_count = slices;
      w->slices.push_back(std::make_unique<server::EmbellishServer>(
          w->fixture.catalog.get(), so, pool));
      w->endpoints.push_back(
          std::make_unique<server::ShardEndpoint>(w->slices.back().get(), s));
      w->transports.push_back(std::make_unique<server::InProcessTransport>(
          w->endpoints.back().get()));
      raw.push_back(w->transports.back().get());
    }
    w->coordinator = std::make_unique<server::ShardCoordinator>(
        std::move(raw), server::ShardCoordinatorOptions{}, pool);
    EMB_RETURN_NOT_OK(w->coordinator->Handshake());
    std::vector<std::vector<uint8_t>> hellos;
    for (const auto& c : w->clients) hellos.push_back(c.HelloFrame());
    for (const auto& r : w->coordinator->HandleBatch(hellos)) {
      auto f = server::DecodeFrame(r);
      if (!f.ok() || f->kind != server::FrameKind::kHelloOk) {
        return Status::Internal("hello refused");
      }
    }
    return Status::OK();
  });
}

}  // namespace

RunResult RunShardedMixedIngest(const RunOptions& o, Tracer& tracer) {
  RunResult result;
  const ShardedParams p = MakeParams(o);
  ThreadPool pool(kServicePoolThreads);

  double setup_s = 0;
  auto made = SetUpRepeatedly<World>(
      p.setup_repetitions, tracer, &setup_s, [&](uint64_t rep, World* w) {
        return SetUp(p, o.seed, tracer, rep, &pool, w);
      });
  if (!made.ok()) {
    result.Fail("set-up: " + made.status().ToString());
    return result;
  }
  World& w = **made;
  index::IndexCatalog& catalog = *w.fixture.catalog;
  server::ShardCoordinator& coordinator = *w.coordinator;

  // Inputs: per-session pools of term sets (PR: sizes 1-3 by rank; top-k:
  // two terms), Zipf rank streams, and the delta documents, whose tokens
  // are Zipf-drawn over the indexed terms ranked by list length.
  std::shared_ptr<const index::IndexEpoch> live = catalog.Acquire();
  const std::vector<wordnet::TermId> band =
      TermsInBucketBand(live->index(), *w.fixture.buckets, p.band_lo,
                        p.band_hi);
  if (band.size() < 3) {
    result.Fail("too few terms in the bucket band");
    return result;
  }
  const size_t rounds = StreamRounds(o, p.rounds_per_second, 6);
  std::vector<std::vector<std::vector<wordnet::TermId>>> pr_pool(p.sessions);
  std::vector<std::vector<std::vector<wordnet::TermId>>> topk_pool(p.sessions);
  std::vector<std::vector<size_t>> stream(p.sessions);
  const corpus::ZipfSampler zipf(p.pool_sets, p.zipf_s);
  for (size_t s = 0; s < p.sessions; ++s) {
    Rng rng(SubSeed(o.seed, 21, s));
    auto draw_set = [&](size_t size) {
      std::vector<wordnet::TermId> set;
      while (set.size() < size) {
        const wordnet::TermId t = band[rng.Uniform(band.size())];
        if (std::find(set.begin(), set.end(), t) == set.end()) set.push_back(t);
      }
      return set;
    };
    for (size_t i = 0; i < p.pool_sets; ++i) {
      pr_pool[s].push_back(draw_set(1 + i % 3));
      topk_pool[s].push_back(draw_set(2));
    }
    Rng stream_rng(SubSeed(o.seed, 33, s));
    for (size_t r = 0; r < rounds; ++r) {
      stream[s].push_back(zipf.Sample(&stream_rng));
    }
  }
  std::vector<wordnet::TermId> by_length = live->index().IndexedTerms();
  std::sort(by_length.begin(), by_length.end(),
            [&](wordnet::TermId a, wordnet::TermId b) {
              const size_t la = live->index().ListLength(a);
              const size_t lb = live->index().ListLength(b);
              return la != lb ? la > lb : a < b;
            });
  const corpus::ZipfSampler token_zipf(by_length.size(), 1.0);
  auto delta_docs = [&](size_t d) {
    Rng rng(SubSeed(o.seed, 40, d));
    std::vector<corpus::Document> docs(p.delta_docs);
    for (corpus::Document& doc : docs) {
      const size_t len = p.fixture.mean_doc_tokens / 2 +
                         rng.Uniform(p.fixture.mean_doc_tokens + 1);
      for (size_t i = 0; i < len; ++i) {
        doc.tokens.push_back(by_length[token_zipf.Sample(&rng)]);
      }
    }
    return docs;
  };

  const server::CoordinatorStats before = coordinator.stats();
  std::vector<server::ServerStats> slice_before;
  for (const auto& s : w.slices) slice_before.push_back(s->stats());
  std::map<std::vector<wordnet::TermId>, std::vector<index::ScoredDoc>>
      pr_oracle, topk_oracle;
  QueryLedger ledger;
  const int64_t stream_start = WallNanos();
  std::vector<std::vector<uint8_t>> frames(p.sessions);
  std::vector<Timing> enc(p.sessions);
  double post_cutover_ms = 0;  // summed over the first batch after each ingest
  double coordinator_batch_us = 0;
  uint64_t pr_queries = 0;
  uint64_t deltas = 0;
  bool after_cutover = false;
  for (size_t r = 0; r < rounds; ++r) {
    const uint64_t round_id = (uint64_t{1} << 40) + r;
    ScopedSpan round_span(tracer, "round", round_id);
    if (r > 0 && r % p.delta_every == 0) {
      const uint64_t epoch_before = live->epoch();
      Timing ingest;
      auto next = Timed(tracer, "index.apply_delta", round_id, &ingest,
                        [&] { return catalog.ApplyDelta(delta_docs(deltas)); });
      Status advanced = Timed(tracer, "server.advance_epoch", round_id, &ingest,
                              [&] { return coordinator.AdvanceEpoch(); });
      ledger.AddServiceTime(ingest.wall_ms, 0);
      ++deltas;
      if (!next.ok() || !advanced.ok()) {
        result.Fail("ingest: " + (next.ok() ? advanced : next.status())
                                     .ToString());
        return result;
      }
      live = catalog.Acquire();
      if (live->epoch() != epoch_before + 1) {
        result.Fail("ingest did not advance the live epoch by one");
      }
      if (common::AnswerPathBuilds() != 0) {
        result.Fail("heavy build on the answer path after ingest");
      }
      pr_oracle.clear();
      topk_oracle.clear();
      after_cutover = true;
    }
    for (size_t s = 0; s < p.sessions; ++s) {
      const uint64_t rid = 1 + r * p.sessions + s;
      enc[s] = Timing{};
      if ((s + r) % p.pr_every == 0) {
        auto frame = Timed(tracer, "core.formulate", rid, &enc[s], [&] {
          return w.clients[s].QueryFrame(pr_pool[s][stream[s][r]]);
        });
        if (!frame.ok()) {
          result.Fail("QueryFrame: " + frame.status().ToString());
          return result;
        }
        frames[s] = std::move(*frame);
      } else {
        frames[s] = Timed(tracer, "client.framing", rid, &enc[s], [&] {
          return server::EncodeFrame(
              server::FrameKind::kTopKQuery, s + 1,
              server::EncodeTopKQuery(p.k, topk_pool[s][stream[s][r]]));
        });
      }
    }
    Timing batch;
    const std::vector<std::vector<uint8_t>> responses =
        Timed(tracer, "server.coordinator_batch", round_id, &batch,
              [&] { return coordinator.HandleBatch(frames); });
    ledger.AddServiceTime(batch.wall_ms, frames.size());
    coordinator_batch_us += batch.wall_ms * 1000.0;
    if (after_cutover) post_cutover_ms += batch.wall_ms;
    after_cutover = false;

    for (size_t s = 0; s < p.sessions; ++s) {
      const uint64_t rid = 1 + r * p.sessions + s;
      const bool is_pr = (s + r) % p.pr_every == 0;
      Timing dec;
      Result<std::vector<index::ScoredDoc>> ranked =
          is_pr ? Timed(tracer, "core.post_filter", rid, &dec,
                        [&] {
                          return w.clients[s].DecodeResultFrame(responses[s],
                                                                p.k);
                        })
                : Timed(tracer, "client.framing", rid, &dec,
                        [&]() -> Result<std::vector<index::ScoredDoc>> {
                          EMB_ASSIGN_OR_RETURN(
                              server::Frame f,
                              server::DecodeFrame(responses[s]));
                          if (f.kind != server::FrameKind::kTopKResult) {
                            return Status::Corruption("not a top-k result");
                          }
                          return server::DecodeTopKResult(f.payload);
                        });
      ++result.attempted;
      if (!ranked.ok()) {
        ++result.failed;
        result.Fail(std::string(is_pr ? "PR" : "top-k") +
                    " response: " + ranked.status().ToString());
        continue;
      }
      pr_queries += is_pr ? 1 : 0;
      ledger.AddQuery(enc[s].wall_ms + batch.wall_ms + dec.wall_ms,
                      enc[s].cpu_ms + dec.cpu_ms, frames[s].size(),
                      responses[s].size());
      if (o.corrupt && r == rounds / 2 && s == 0) TamperRanking(&*ranked);
      const auto& terms =
          is_pr ? pr_pool[s][stream[s][r]] : topk_pool[s][stream[s][r]];
      auto& oracle = is_pr ? pr_oracle : topk_oracle;
      auto it = oracle.find(terms);
      if (it == oracle.end()) {
        it = oracle
                 .emplace(terms, ReferenceTopK(live->index(), terms, p.k,
                                               /*positive_only=*/is_pr))
                 .first;
      }
      if (*ranked != it->second) {
        result.Fail(std::string(is_pr ? "PR" : "top-k") +
                    " answer differs from the plaintext top-k of epoch " +
                    std::to_string(live->epoch()) + " (round " +
                    std::to_string(r) + ", session " + std::to_string(s) +
                    ")");
      }
    }
  }

  result.measured_s = static_cast<double>(WallNanos() - stream_start) / 1e9;

  const server::CoordinatorStats after = coordinator.stats();
  const uint64_t requests = after.frames - before.frames;
  const uint64_t trips = after.shard_trips - before.shard_trips;
  const uint64_t trip_us = after.trip_micros - before.trip_micros;
  uint64_t hits = 0, misses = 0, slice_errors = 0;
  double slice_cpu_ms = 0;
  for (size_t i = 0; i < w.slices.size(); ++i) {
    const server::ServerStats s = w.slices[i]->stats();
    hits += s.cache_hits - slice_before[i].cache_hits;
    misses += s.cache_misses - slice_before[i].cache_misses;
    slice_errors += s.errors - slice_before[i].errors;
    slice_cpu_ms += s.server_cpu_ms - slice_before[i].server_cpu_ms;
  }
  const uint64_t builds = common::AnswerPathBuilds();
  if (after.errors != before.errors || slice_errors != 0) {
    result.Fail("service produced error frames");
  }
  if (builds != 0) result.Fail("heavy build on the answer path");
  result.counts = {
      {"rounds", rounds},
      {"requests", requests},
      {"pr_queries", pr_queries},
      {"deltas", deltas},
      {"live_epoch", live->epoch()},
      {"epoch_swaps", after.epoch_swaps - before.epoch_swaps},
      {"shard_trips", trips},
      {"blocking_io_trips", after.blocking_io_trips - before.blocking_io_trips},
      {"slice_cache_hits", hits},
      {"slice_cache_misses", misses},
      {"answer_path_builds", builds},
      {"slices", w.slices.size()}};

  ledger.Report(setup_s, &result.end_to_end);
  ReportPerLayer(
      tracer, p.setup_repetitions,
      {{"server.cpu_ms_per_request", Share(slice_cpu_ms, requests)},
       {"server.cache_hit_ratio", Share(hits, hits + misses)},
       {"server.shard_trips_per_request", Share(trips, requests)},
       {"server.shard_trip_us", Share(trip_us, trips)},
       {"server.trip_overlap", Share(trip_us, coordinator_batch_us)},
       {"server.post_cutover_batch_ms",
        Share(post_cutover_ms, static_cast<double>(deltas))}},
      &result.per_layer);
  return result;
}

}  // namespace perfbench
