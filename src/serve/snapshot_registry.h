// Epoch publication point between the single writer and many readers.
//
// The registry holds one shared_ptr to the current ServingSnapshot. The
// writer swaps in a fresh snapshot per refresh (Publish, release ordering);
// readers grab the current one (Acquire, acquire ordering) and then work
// entirely on the immutable snapshot — the RCU pattern with the grace
// period implemented by shared_ptr reference counting: an epoch is
// reclaimed exactly when the last reader drops it, so there is no
// use-after-free window and no torn state (the only shared mutable datum is
// the control-block-managed pointer itself).
//
// The read path never waits on the writer's refresh work: the exchanged
// state is one pointer, swapped after the (expensive) snapshot construction
// completes off to the side. The C++17 atomic shared_ptr free functions
// used here are not lock-free in libstdc++ (std::atomic_is_lock_free
// returns false with GCC 12): each load or store takes a mutex from a
// small pool keyed by the pointer's address, held for the two-word copy
// and refcount update only. So a reader can wait, but only on another
// Acquire or on the writer's swap, never on the decomposition.
//
// Contract: snapshots are published with strictly increasing epochs (one
// writer), so any reader re-acquiring observes epochs monotonically —
// asserted here and stress-tested under TSan in tests/serving_stress_test.

#ifndef IVMF_SERVE_SNAPSHOT_REGISTRY_H_
#define IVMF_SERVE_SNAPSHOT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "base/check.h"
#include "serve/serving_snapshot.h"

namespace ivmf {

class SnapshotRegistry {
 public:
  SnapshotRegistry() = default;
  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  // Current snapshot, or nullptr before the first publication. Safe from
  // any thread; the returned reference keeps the epoch alive for as long as
  // the caller holds it.
  std::shared_ptr<const ServingSnapshot> Acquire() const {
    return std::atomic_load_explicit(&current_, std::memory_order_acquire);
  }

  // Swaps in a new epoch. Writer-side API (one publishing thread); the
  // epoch must strictly exceed the currently published one.
  void Publish(std::shared_ptr<const ServingSnapshot> snapshot) {
    IVMF_CHECK_MSG(snapshot != nullptr, "cannot publish a null snapshot");
    const std::shared_ptr<const ServingSnapshot> previous = Acquire();
    IVMF_CHECK_MSG(previous == nullptr ||
                       snapshot->epoch() > previous->epoch(),
                   "published epochs must be strictly increasing");
    std::atomic_store_explicit(&current_, std::move(snapshot),
                               std::memory_order_release);
    published_.fetch_add(1, std::memory_order_relaxed);
  }

  // Number of Publish calls so far.
  uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const ServingSnapshot> current_;
  std::atomic<uint64_t> published_{0};
};

}  // namespace ivmf

#endif  // IVMF_SERVE_SNAPSHOT_REGISTRY_H_
