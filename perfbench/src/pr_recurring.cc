// pr_recurring: the PR scheme (Algorithms 3-5) end to end.
//
// SessionClient::QueryFrame -> monolithic EmbellishServer::HandleBatch
// (default options, response cache on) -> SessionClient::DecodeResultFrame.
// Each session replays a Zipf-recurring stream over its own pool of
// genuine-term sets, so the client's uplink reuse and the server's response
// cache both see the session-consistent recurrence the scheme produces.

#include <algorithm>
#include <map>

#include "common.h"

namespace perfbench {
namespace {

struct PrParams {
  FixtureOptions fixture;
  size_t sessions = 16;
  size_t pool_sets = 16;
  double zipf_s = 1.0;
  size_t k = 10;
  size_t setup_repetitions = 5;
  double rounds_per_second = 8.3;
  // Genuine terms come from buckets holding this many postings in total,
  // which bounds how much one query's candidate set (and so the client's
  // decrypt work) can vary with the seed.
  size_t band_lo = 80;
  size_t band_hi = 160;
};

PrParams MakeParams(const RunOptions& o) {
  PrParams p;
  if (o.smoke) {
    p.fixture.lexicon_terms = 1500;
    p.fixture.docs = 400;
    p.sessions = 4;
    p.pool_sets = 4;
    p.setup_repetitions = 1;
    p.band_lo = 1;
    p.band_hi = 60;
  }
  return p;
}

struct World {
  Fixture fixture;
  std::vector<server::SessionClient> clients;
  std::unique_ptr<server::EmbellishServer> server;
};

Status SetUp(const PrParams& p, uint64_t seed, Tracer& tracer,
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
                                        SubSeed(seed, 10, s)));
      w->clients.push_back(std::move(c));
    }
    return Status::OK();
  }));
  return Timed(tracer, "server.warmup", repetition, &t, [&]() -> Status {
    w->server = std::make_unique<server::EmbellishServer>(
        w->fixture.catalog.get(), server::EmbellishServerOptions{}, pool);
    std::vector<std::vector<uint8_t>> hellos;
    for (const auto& c : w->clients) hellos.push_back(c.HelloFrame());
    for (const auto& r : w->server->HandleBatch(hellos)) {
      auto f = server::DecodeFrame(r);
      if (!f.ok() || f->kind != server::FrameKind::kHelloOk) {
        return Status::Internal("hello refused");
      }
    }
    return Status::OK();
  });
}

}  // namespace

RunResult RunPrRecurring(const RunOptions& o, Tracer& tracer) {
  RunResult result;
  const PrParams p = MakeParams(o);
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
  const std::shared_ptr<const index::IndexEpoch> epoch =
      w.fixture.catalog->Acquire();
  const index::InvertedIndex& idx = epoch->index();

  // Inputs: per-session pools of genuine-term sets (sizes 1, 2, 3 by pool
  // rank, identical for every seed) and per-session Zipf rank streams.
  const std::vector<wordnet::TermId> band =
      TermsInBucketBand(idx, *w.fixture.buckets, p.band_lo, p.band_hi);
  if (band.size() < 3) {
    result.Fail("too few terms in the bucket band");
    return result;
  }
  std::vector<std::vector<std::vector<wordnet::TermId>>> pools(p.sessions);
  for (size_t s = 0; s < p.sessions; ++s) {
    Rng rng(SubSeed(o.seed, 20, s));
    for (size_t i = 0; i < p.pool_sets; ++i) {
      std::vector<wordnet::TermId> set;
      while (set.size() < 1 + i % 3) {
        const wordnet::TermId t = band[rng.Uniform(band.size())];
        if (std::find(set.begin(), set.end(), t) == set.end()) set.push_back(t);
      }
      pools[s].push_back(std::move(set));
    }
  }
  const size_t rounds = StreamRounds(o, p.rounds_per_second, 3);
  std::vector<std::vector<size_t>> stream(p.sessions);
  const corpus::ZipfSampler zipf(p.pool_sets, p.zipf_s);
  for (size_t s = 0; s < p.sessions; ++s) {
    Rng rng(SubSeed(o.seed, 30, s));
    for (size_t r = 0; r < rounds; ++r) stream[s].push_back(zipf.Sample(&rng));
  }

  const server::ServerStats before = w.server->stats();
  std::map<std::vector<wordnet::TermId>, std::vector<index::ScoredDoc>> oracle;
  QueryLedger ledger;
  const int64_t stream_start = WallNanos();
  std::vector<std::vector<uint8_t>> frames(p.sessions);
  std::vector<Timing> enc(p.sessions);
  for (size_t r = 0; r < rounds; ++r) {
    const uint64_t round_id = (uint64_t{1} << 40) + r;
    ScopedSpan round_span(tracer, "round", round_id);
    for (size_t s = 0; s < p.sessions; ++s) {
      const uint64_t rid = 1 + r * p.sessions + s;
      enc[s] = Timing{};
      auto frame = Timed(tracer, "core.formulate", rid, &enc[s], [&] {
        return w.clients[s].QueryFrame(pools[s][stream[s][r]]);
      });
      if (!frame.ok()) {
        result.Fail("QueryFrame: " + frame.status().ToString());
        return result;
      }
      frames[s] = std::move(*frame);
    }
    Timing batch;
    const std::vector<std::vector<uint8_t>> responses =
        Timed(tracer, "server.batch", round_id, &batch,
              [&] { return w.server->HandleBatch(frames); });
    ledger.AddServiceTime(batch.wall_ms, frames.size());
    for (size_t s = 0; s < p.sessions; ++s) {
      const uint64_t rid = 1 + r * p.sessions + s;
      Timing dec;
      auto ranked = Timed(tracer, "core.post_filter", rid, &dec, [&] {
        return w.clients[s].DecodeResultFrame(responses[s], p.k);
      });
      ++result.attempted;
      if (!ranked.ok()) {
        ++result.failed;
        result.Fail("DecodeResultFrame: " + ranked.status().ToString());
        continue;
      }
      ledger.AddQuery(enc[s].wall_ms + batch.wall_ms + dec.wall_ms,
                      enc[s].cpu_ms + dec.cpu_ms, frames[s].size(),
                      responses[s].size());
      if (o.corrupt && r == rounds / 2 && s == 0) TamperRanking(&*ranked);
      const auto& terms = pools[s][stream[s][r]];
      auto it = oracle.find(terms);
      if (it == oracle.end()) {
        it = oracle
                 .emplace(terms, ReferenceTopK(idx, terms, p.k,
                                               /*positive_only=*/true))
                 .first;
      }
      if (*ranked != it->second) {
        result.Fail("PR answer differs from the plaintext top-k (round " +
                    std::to_string(r) + ", session " + std::to_string(s) +
                    ")");
      }
    }
  }

  result.measured_s = static_cast<double>(WallNanos() - stream_start) / 1e9;

  const server::ServerStats after = w.server->stats();
  const uint64_t requests = after.frames - before.frames;
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t misses = after.cache_misses - before.cache_misses;
  const uint64_t builds = common::AnswerPathBuilds();
  if (after.errors != before.errors) result.Fail("server produced error frames");
  if (builds != 0) result.Fail("heavy build on the answer path");
  uint64_t uplink_reuse = 0;
  for (const auto& c : w.clients) uplink_reuse += c.encoded_query_cache_size();
  result.counts = {{"rounds", rounds},
                   {"requests", requests},
                   {"cache_hits", hits},
                   {"cache_misses", misses},
                   {"client_encoded_sets", uplink_reuse},
                   {"answer_path_builds", builds},
                   {"distinct_term_sets", oracle.size()}};

  ledger.Report(setup_s, &result.end_to_end);
  ReportPerLayer(
      tracer, p.setup_repetitions,
      {{"server.cpu_ms_per_request",
        Share(after.server_cpu_ms - before.server_cpu_ms, requests)},
       {"server.cache_hit_ratio", Share(hits, hits + misses)}},
      &result.per_layer);
  return result;
}

}  // namespace perfbench
