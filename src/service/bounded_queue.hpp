// Bounded multi-producer multi-consumer queue — the server's admission
// point. Producers (connection threads) never block: try_push fails
// immediately when the queue is at capacity (the caller answers
// OVERLOADED) or closed (SHUTTING_DOWN). Consumers (workers) block in
// pop() until an item arrives or the queue is closed *and* drained, which
// is exactly the graceful-drain contract: close() stops admission but
// every item admitted before the close is still handed to a worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "support/assert.hpp"

namespace flsa {
namespace service {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    FLSA_REQUIRE(capacity >= 1);
  }

  /// Admission status of a push attempt.
  enum class Push { kAccepted, kFull, kClosed };

  /// Non-blocking admission; kFull implements the OVERLOADED rejection.
  Push try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return Push::kClosed;
      if (items_.size() >= capacity_) return Push::kFull;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return Push::kAccepted;
  }

  /// Blocks until an item is available or the queue is closed and empty
  /// (then returns nullopt — the consumer should exit).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Stops admission; already-queued items still drain through pop().
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace service
}  // namespace flsa
