// In-flight request admission shared by EmbellishServer and
// ShardCoordinator: a lock-free slot counter against a fixed cap. Each tier
// keeps its own kBusy frame and shed counter; this type only decides how
// many of a request group get in.

#ifndef EMBELLISH_SERVER_INFLIGHT_BUDGET_H_
#define EMBELLISH_SERVER_INFLIGHT_BUDGET_H_

#include <algorithm>
#include <atomic>
#include <cstddef>

namespace embellish::server {

/// \brief Bounded in-flight slot counter. Thread-safe.
class InflightBudget {
 public:
  /// \brief `limit` slots may be held at once; 0 disables admission
  ///        control (every request is admitted).
  explicit InflightBudget(size_t limit) : limit_(limit) {}

  /// \brief Grants up to `want` slots (all of them when unlimited). A
  ///        return of 0 means the caller must shed.
  size_t Acquire(size_t want) {
    if (limit_ == 0) return want;
    size_t current = inflight_.load(std::memory_order_relaxed);
    for (;;) {
      const size_t room = limit_ > current ? limit_ - current : 0;
      const size_t grant = std::min(want, room);
      if (grant == 0) return 0;
      if (inflight_.compare_exchange_weak(current, current + grant,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
        return grant;
      }
    }
  }

  /// \brief Returns slots granted by Acquire.
  void Release(size_t granted) {
    if (limit_ == 0 || granted == 0) return;
    inflight_.fetch_sub(granted, std::memory_order_acq_rel);
  }

 private:
  const size_t limit_;
  std::atomic<size_t> inflight_{0};
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_INFLIGHT_BUDGET_H_
