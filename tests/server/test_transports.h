// Shared transport rigs for the coordinator suites:
//
//   KillSwitchTransport  a decorator whose peer can be killed and revived
//                        mid-test. It passes async submission through, so
//                        it layers over an InProcessTransport (inline
//                        completion) or a MultiplexedTransport (event-loop
//                        completion) alike.
//   ShardFleet           TCP slice servers on loopback: one listener and
//                        one blocking serve thread per endpoint.

#ifndef EMBELLISH_TESTS_SERVER_TEST_TRANSPORTS_H_
#define EMBELLISH_TESTS_SERVER_TEST_TRANSPORTS_H_

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "server/framing.h"
#include "server/shard_transport.h"

namespace embellish::server {

class KillSwitchTransport : public ShardTransport {
 public:
  /// \brief `inner` must outlive the decorator.
  explicit KillSwitchTransport(ShardTransport* inner) : inner_(inner) {}

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (dead()) return Killed();
    return inner_->RoundTrip(request);
  }

  bool SupportsAsyncSubmit() const override {
    return inner_->SupportsAsyncSubmit();
  }

  /// \brief A killed peer fails the trip the way the channel would notice:
  ///        an inline transport fails on the spot; an async one fails from
  ///        its completion thread, after the submit returned. The async
  ///        case sends a ping in the request's envelope and discards the
  ///        answer, so no query work or session state reaches the shard.
  void SubmitRoundTrip(const std::vector<uint8_t>& request,
                       RoundTripCompletion done) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (!dead()) {
      inner_->SubmitRoundTrip(request, std::move(done));
      return;
    }
    if (!inner_->SupportsAsyncSubmit()) {
      done(Killed());
      return;
    }
    // The coordinator only ever submits well-formed envelopes.
    const ShardEnvelope envelope =
        DecodeShardEnvelope(DecodeFrame(request).value().payload).value();
    inner_->SubmitRoundTrip(
        EncodeFrame(FrameKind::kShardRequest, 0,
                    EncodeShardEnvelope(envelope.shard_id, envelope.epoch,
                                        envelope.seq, {})),
        [done = std::move(done)](Result<std::vector<uint8_t>>) {
          done(Killed());
        });
  }

  void Kill() { dead_.store(true, std::memory_order_relaxed); }
  void Revive() { dead_.store(false, std::memory_order_relaxed); }
  bool dead() const { return dead_.load(std::memory_order_relaxed); }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  static Status Killed() { return Status::Unavailable("replica killed"); }

  ShardTransport* inner_;  // not owned
  std::atomic<bool> dead_{false};
  std::atomic<size_t> calls_{0};
};

class ShardFleet {
 public:
  ~ShardFleet() { Stop(); }

  /// \brief Serves `endpoint` on a fresh loopback port; returns the port.
  uint16_t Add(ShardEndpoint* endpoint) {
    uint16_t port = 0;
    auto listen_fd = ListenOnLoopback(&port);
    EXPECT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
    listen_fds_.push_back(*listen_fd);
    threads_.emplace_back([fd = *listen_fd, endpoint] {
      (void)ServeShardConnections(fd, endpoint);
    });
    return port;
  }

  /// \brief Call only after every transport into the fleet has been
  ///        destroyed (the serve loops return to accept() once their
  ///        connection closes).
  void Stop() {
    for (int fd : listen_fds_) {
      shutdown(fd, SHUT_RDWR);
      close(fd);
    }
    listen_fds_.clear();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

 private:
  std::vector<int> listen_fds_;
  std::vector<std::thread> threads_;
};

}  // namespace embellish::server

#endif  // EMBELLISH_TESTS_SERVER_TEST_TRANSPORTS_H_
