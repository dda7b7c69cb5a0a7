// Fixed-size worker pool used by the wavefront executor.
//
// The pool supports one collective operation: parallel_run(fn) invokes
// fn(worker_id) once on every worker and returns when all have finished.
// The wavefront executor builds on this by sharing a ready queue among
// the workers. Keeping the pool alive across FastLSA's many
// fill/base-case phases avoids per-phase thread creation.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "support/function_ref.hpp"

namespace flsa {

/// Worker count to use when a caller passes 0 ("use the hardware"):
/// std::thread::hardware_concurrency() with the mandatory >= 1 guard for
/// targets where it reports 0. Every "0 = auto" thread knob in the
/// library resolves through here so no call site can forget the guard.
unsigned default_thread_count();

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(unsigned threads);

  /// Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(worker_id) on every worker; blocks until all calls return.
  /// Exceptions thrown by fn propagate to the caller (the first one wins;
  /// remaining workers still complete the generation).
  ///
  /// Re-entrant and concurrent calls degrade gracefully instead of
  /// failing: when the calling thread is itself a pool worker (of this or
  /// any pool — e.g. a parallel engine invoked from inside another pool's
  /// fn), or when another thread's parallel_run is already in flight on
  /// this pool, fn(0) .. fn(size()-1) run serially on the calling thread.
  /// That preserves the collective-call contract (each worker slot runs
  /// exactly once, per-slot scratch is never shared) while avoiding both
  /// deadlock and thread oversubscription.
  ///
  /// Takes a FunctionRef, not a std::function: the engine calls this once
  /// per fill/base-case phase with a fat capturing lambda, and the
  /// std::function conversion heap-allocated a closure copy every time.
  /// The callable only needs to outlive the (blocking) call.
  void parallel_run(FunctionRef<void(unsigned)> fn);

 private:
  void worker_loop(unsigned id);
  void run_serial(FunctionRef<void(unsigned)> fn);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  FunctionRef<void(unsigned)> job_;  ///< valid only while job_active_
  bool job_active_ = false;
  std::uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace flsa
