// pir_popular: the KO-PIR baseline of Section 4, end to end.
//
// Per query: one PirClient::BuildQuery per distinct genuine term; all of the
// round's kPirQuery frames ride in one EmbellishServer::HandleBatch; each
// response goes through DecodeResponse, PostingsFromColumnBits and
// RankRetrievedLists. Genuine terms are Zipf-drawn from a fixed pool of
// popular terms, so concurrent sessions collide on buckets and the server's
// shared sweeps carry more than one query. Every PIR payload is fresh, so
// the response cache never hits and the PR engine is never entered.

#include <algorithm>
#include <map>

#include "common.h"

namespace perfbench {
namespace {

struct PirParams {
  FixtureOptions fixture;
  size_t sessions = 16;
  size_t pool_terms = 32;
  double zipf_s = 1.0;
  size_t k = 10;
  size_t setup_repetitions = 5;
  double rounds_per_second = 6.0;
  // The pool holds the longest lists among terms whose bucket matrix has at
  // most this many rows: decode cost grows with the rows, and the longest
  // lists of the corpus would cost seconds of client time per query.
  size_t max_rows = 800;
};

PirParams MakeParams(const RunOptions& o) {
  PirParams p;
  if (o.smoke) {
    p.fixture.lexicon_terms = 1500;
    p.fixture.docs = 400;
    p.sessions = 4;
    p.pool_terms = 8;
    p.setup_repetitions = 1;
  }
  return p;
}

struct World {
  Fixture fixture;
  std::vector<core::PirRetrievalClient> clients;
  std::unique_ptr<server::EmbellishServer> server;
};

// Bit rows of a bucket's PIR matrix: a 4-byte length prefix plus the longest
// serialized list among the bucket's members.
size_t BucketRows(const index::InvertedIndex& idx,
                  const core::BucketOrganization& org, size_t bucket) {
  size_t longest = 0;
  for (wordnet::TermId m : org.bucket(bucket)) {
    longest = std::max(longest, idx.ListBytes(m));
  }
  return 8 * (4 + longest);
}

std::vector<wordnet::TermId> PopularPool(const index::InvertedIndex& idx,
                                         const core::BucketOrganization& org,
                                         size_t max_rows, size_t count) {
  std::vector<wordnet::TermId> eligible;
  for (wordnet::TermId t : idx.IndexedTerms()) {
    auto where = org.Locate(t);
    if (where.ok() && BucketRows(idx, org, where->bucket) <= max_rows) {
      eligible.push_back(t);
    }
  }
  std::sort(eligible.begin(), eligible.end(),
            [&](wordnet::TermId a, wordnet::TermId b) {
              const size_t la = idx.ListLength(a), lb = idx.ListLength(b);
              return la != lb ? la > lb : a < b;
            });
  if (eligible.size() > count) eligible.resize(count);
  return eligible;
}

// One client-side PIR execution request, remembering what it asked for.
struct PirAsk {
  size_t session = 0;
  wordnet::TermId term = 0;
};

Status SetUp(const PirParams& p, uint64_t seed, Tracer& tracer,
             uint64_t repetition, ThreadPool* pool, World* w) {
  EMB_ASSIGN_OR_RETURN(w->fixture,
                       BuildFixture(p.fixture, tracer, repetition, pool));
  Timing t;
  EMB_RETURN_NOT_OK(Timed(tracer, "crypto.keygen", repetition, &t, [&] {
    for (size_t s = 0; s < p.sessions; ++s) {
      Rng rng(SubSeed(seed, 11, s));
      EMB_ASSIGN_OR_RETURN(
          core::PirRetrievalClient c,
          core::PirRetrievalClient::Create(w->fixture.buckets.get(),
                                           SessionKeyOptions().key_bits, &rng));
      w->clients.push_back(std::move(c));
    }
    return Status::OK();
  }));
  // Warm-up: one execution against every bucket the pool touches builds
  // the lazy bucket matrices before the timed stream starts.
  return Timed(tracer, "server.warmup", repetition, &t, [&]() -> Status {
    w->server = std::make_unique<server::EmbellishServer>(
        w->fixture.catalog.get(), server::EmbellishServerOptions{}, pool);
    const auto epoch = w->fixture.catalog->Acquire();
    const core::BucketOrganization& org = *w->fixture.buckets;
    std::vector<size_t> buckets;
    for (wordnet::TermId term :
         PopularPool(epoch->index(), org, p.max_rows, p.pool_terms)) {
      EMB_ASSIGN_OR_RETURN(core::BucketSlot where, org.Locate(term));
      buckets.push_back(where.bucket);
    }
    std::sort(buckets.begin(), buckets.end());
    buckets.erase(std::unique(buckets.begin(), buckets.end()), buckets.end());
    Rng rng(SubSeed(seed, 12, 0));
    std::vector<std::vector<uint8_t>> frames;
    for (size_t b : buckets) {
      EMB_ASSIGN_OR_RETURN(crypto::PirQuery q,
                           w->clients[0].pir_client().BuildQuery(
                               0, org.bucket(b).size(), &rng));
      frames.push_back(server::EncodeFrame(server::FrameKind::kPirQuery, 1,
                                           server::EncodePirQuery(b, q)));
    }
    for (const auto& r : w->server->HandleBatch(frames)) {
      auto f = server::DecodeFrame(r);
      if (!f.ok() || f->kind != server::FrameKind::kPirResult) {
        return Status::Internal("warm-up PIR execution failed");
      }
    }
    return Status::OK();
  });
}

}  // namespace

RunResult RunPirPopular(const RunOptions& o, Tracer& tracer) {
  RunResult result;
  const PirParams p = MakeParams(o);
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
  const core::BucketOrganization& org = *w.fixture.buckets;

  // Inputs: query q of session s in round r asks for 1 + (s + r) % 2
  // distinct terms, Zipf-drawn over the popularity-ranked pool.
  const std::vector<wordnet::TermId> popular =
      PopularPool(idx, org, p.max_rows, p.pool_terms);
  if (popular.size() < 2) {
    result.Fail("popular-term pool is too small");
    return result;
  }
  const size_t rounds = StreamRounds(o, p.rounds_per_second, 3);
  const corpus::ZipfSampler zipf(popular.size(), p.zipf_s);
  std::vector<std::vector<std::vector<wordnet::TermId>>> stream(p.sessions);
  for (size_t s = 0; s < p.sessions; ++s) {
    Rng rng(SubSeed(o.seed, 31, s));
    for (size_t r = 0; r < rounds; ++r) {
      std::vector<wordnet::TermId> terms;
      while (terms.size() < 1 + (s + r) % 2) {
        const wordnet::TermId t = popular[zipf.Sample(&rng)];
        if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
          terms.push_back(t);
        }
      }
      stream[s].push_back(std::move(terms));
    }
  }
  std::vector<Rng> query_rngs;
  for (size_t s = 0; s < p.sessions; ++s) {
    query_rngs.emplace_back(SubSeed(o.seed, 32, s));
  }

  const server::ServerStats before = w.server->stats();
  std::map<std::vector<wordnet::TermId>, std::vector<index::ScoredDoc>> oracle;
  QueryLedger ledger;
  const int64_t stream_start = WallNanos();
  std::vector<Timing> enc(p.sessions);
  std::vector<uint64_t> uplink(p.sessions);
  for (size_t r = 0; r < rounds; ++r) {
    const uint64_t round_id = (uint64_t{1} << 40) + r;
    ScopedSpan round_span(tracer, "round", round_id);
    std::vector<std::vector<uint8_t>> frames;
    std::vector<PirAsk> asks;
    for (size_t s = 0; s < p.sessions; ++s) {
      const uint64_t rid = 1 + r * p.sessions + s;
      const crypto::PirClient& pc = w.clients[s].pir_client();
      enc[s] = Timing{};
      uplink[s] = 0;
      for (wordnet::TermId term : stream[s][r]) {
        auto where = org.Locate(term);
        if (!where.ok()) {
          result.Fail("pool term has no bucket");
          return result;
        }
        auto query = Timed(tracer, "crypto.pir_query", rid, &enc[s], [&] {
          return pc.BuildQuery(where->slot, org.bucket(where->bucket).size(),
                               &query_rngs[s]);
        });
        if (!query.ok()) {
          result.Fail("BuildQuery: " + query.status().ToString());
          return result;
        }
        frames.push_back(Timed(tracer, "client.framing", rid, &enc[s], [&] {
          return server::EncodeFrame(
              server::FrameKind::kPirQuery, s + 1,
              server::EncodePirQuery(where->bucket, *query));
        }));
        uplink[s] += frames.back().size();
        asks.push_back({s, term});
      }
    }
    Timing batch;
    const std::vector<std::vector<uint8_t>> responses =
        Timed(tracer, "server.batch", round_id, &batch,
              [&] { return w.server->HandleBatch(frames); });
    ledger.AddServiceTime(batch.wall_ms, frames.size());

    size_t next = 0;
    for (size_t s = 0; s < p.sessions; ++s) {
      const uint64_t rid = 1 + r * p.sessions + s;
      const crypto::PirClient& pc = w.clients[s].pir_client();
      Timing dec;
      uint64_t downlink = 0;
      bool ok = true;
      std::map<wordnet::TermId, std::vector<bool>> columns;
      for (; next < asks.size() && asks[next].session == s; ++next) {
        downlink += responses[next].size();
        auto response = Timed(tracer, "client.framing", rid, &dec,
                              [&]() -> Result<crypto::PirResponse> {
                                EMB_ASSIGN_OR_RETURN(
                                    server::Frame f,
                                    server::DecodeFrame(responses[next]));
                                if (f.kind != server::FrameKind::kPirResult) {
                                  return Status::Corruption("not a PIR result");
                                }
                                return server::DecodePirResponse(f.payload);
                              });
        if (!response.ok()) {
          ok = false;
          result.Fail("PIR response: " + response.status().ToString());
          continue;
        }
        auto bits = Timed(tracer, "crypto.pir_decode", rid, &dec,
                          [&] { return pc.DecodeResponse(*response); });
        if (!bits.ok()) {
          ok = false;
          result.Fail("DecodeResponse: " + bits.status().ToString());
          continue;
        }
        columns[asks[next].term] = std::move(*bits);
      }
      std::map<wordnet::TermId, std::vector<index::Posting>> lists;
      Result<std::vector<index::ScoredDoc>> ranked =
          Status::Internal("not ranked");
      if (ok) {
        ranked = Timed(tracer, "core.pir_rank", rid, &dec, [&] {
          return core::RankRetrievedLists(
              stream[s][r], p.k, nullptr,
              [&](wordnet::TermId term)
                  -> Result<std::vector<index::Posting>> {
                EMB_ASSIGN_OR_RETURN(std::vector<index::Posting> list,
                                     core::PostingsFromColumnBits(columns[term]));
                lists[term] = list;
                return list;
              });
        });
        if (!ranked.ok()) result.Fail("rank: " + ranked.status().ToString());
      }
      ++result.attempted;
      if (!ranked.ok()) {
        ++result.failed;
        continue;
      }
      ledger.AddQuery(enc[s].wall_ms + batch.wall_ms + dec.wall_ms,
                      enc[s].cpu_ms + dec.cpu_ms, uplink[s], downlink);
      if (o.corrupt && r == rounds / 2 && s == 0) TamperRanking(&*ranked);
      for (const auto& [term, list] : lists) {
        const std::vector<index::Posting>* truth = idx.postings(term);
        if (truth == nullptr || *truth != list) {
          result.Fail("PIR-decoded column differs from the posting list of "
                      "term " + std::to_string(term));
        }
      }
      auto it = oracle.find(stream[s][r]);
      if (it == oracle.end()) {
        it = oracle
                 .emplace(stream[s][r],
                          ReferenceTopK(idx, stream[s][r], p.k,
                                        /*positive_only=*/false))
                 .first;
      }
      if (*ranked != it->second) {
        result.Fail("PIR ranking differs from the plaintext top-k (round " +
                    std::to_string(r) + ", session " + std::to_string(s) +
                    ")");
      }
    }
  }

  result.measured_s = static_cast<double>(WallNanos() - stream_start) / 1e9;

  const server::ServerStats after = w.server->stats();
  const uint64_t requests = after.frames - before.frames;
  const uint64_t sweeps = after.pir_batch_sweeps - before.pir_batch_sweeps;
  const uint64_t batched =
      after.pir_batched_queries - before.pir_batched_queries;
  const uint64_t splits =
      after.pir_batch_budget_splits - before.pir_batch_budget_splits;
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t misses = after.cache_misses - before.cache_misses;
  const uint64_t builds = common::AnswerPathBuilds();
  if (after.errors != before.errors) result.Fail("server produced error frames");
  if (builds != 0) result.Fail("heavy build on the answer path");
  result.counts = {{"rounds", rounds},
                   {"requests", requests},
                   {"pir_batch_sweeps", sweeps},
                   {"pir_batched_queries", batched},
                   {"pir_batch_budget_splits", splits},
                   {"cache_hits", hits},
                   {"cache_misses", misses},
                   {"answer_path_builds", builds},
                   {"pool_terms", popular.size()}};

  ledger.Report(setup_s, &result.end_to_end);
  ReportPerLayer(
      tracer, p.setup_repetitions,
      {{"server.cpu_ms_per_request",
        Share(after.server_cpu_ms - before.server_cpu_ms, requests)},
       {"server.cache_hit_ratio", Share(hits, hits + misses)},
       {"crypto.pir_queries_per_sweep", Share(batched, sweeps)},
       {"crypto.pir_budget_splits", static_cast<double>(splits)}},
      &result.per_layer);
  return result;
}

}  // namespace perfbench
