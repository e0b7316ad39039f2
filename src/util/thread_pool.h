// ThreadPool: a small persistent worker pool for the synthesis portfolio.
//
// The synthesizer evaluates speculative candidate batches on this pool
// (see src/synth/synthesizer.cc). The pool is created once per Synthesizer
// and reused across every call — synthesis runs thousands of candidate
// evaluations, so per-batch thread spawn/join would dwarf the work being
// parallelized.
//
// The calling thread participates: a pool constructed with `num_spawned`
// threads executes Run() callbacks with `num_spawned + 1`-way parallelism
// (worker index 0 is the caller). This keeps thread-count semantics exact
// — synth_threads=4 holds a pool of 3 spawned threads — and means a pool
// of 0 spawned threads degenerates to a plain call.
//
// All hand-off is mutex/condvar based (no lock-free queues): Run() is
// invoked once per speculation batch, so dispatch latency is irrelevant
// next to the batch's work, and the simple protocol is trivially clean
// under TSan. Run() is not reentrant and must only be called from one
// thread at a time.
//
// Callbacks MAY throw: every invocation runs inside a noexcept trampoline
// that converts escaping exceptions (a real bad_alloc, an injected
// failpoint, anything else) into a Status instead of letting a worker
// thread std::terminate the process. Run() merges per-worker failures and
// returns the first one; the synthesizer uses a non-OK return to stop
// speculating and continue on its sequential path.
//
// ResolveNumThreads, below, turns the "0 = auto" thread knob of the
// synthesis portfolio into a count, from DYNAMITE_NUM_THREADS.

#ifndef DYNAMITE_UTIL_THREAD_POOL_H_
#define DYNAMITE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/failpoint.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/trace.h"

namespace dynamite {

/// Largest worker count any thread knob resolves to. An explicit knob above
/// it is clamped to it; a DYNAMITE_NUM_THREADS value above it resolves to
/// sequential. Either way no caller can ask for more pool threads.
inline constexpr size_t kMaxNumThreads = 256;

/// Parses a DYNAMITE_NUM_THREADS value. Only a whole decimal string (digits
/// and nothing else) naming a count in [2, kMaxNumThreads] yields that
/// count; anything else — null, empty, a sign, trailing characters, 0, 1 or
/// a larger number — yields 1 (sequential). Pure: starts no thread.
inline size_t ParseNumThreadsEnv(const char* text) {
  if (text == nullptr || *text == '\0') return 1;
  size_t value = 0;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return 1;
    value = value * 10 + static_cast<size_t>(*c - '0');
    if (value > kMaxNumThreads) return 1;
  }
  return value >= 2 ? value : 1;
}

/// Resolves a "0 = auto" thread-count knob (SynthesisOptions::
/// synth_threads): an explicit value, 1
/// included, is kept up to kMaxNumThreads and clamped to it above; 0
/// becomes ParseNumThreadsEnv of the DYNAMITE_NUM_THREADS environment
/// variable — how the TSan CI job pushes the whole test suite through the
/// portfolio without per-test plumbing. Pure for an explicit knob:
/// starts no thread.
inline size_t ResolveNumThreads(size_t knob) {
  if (knob != 0) return knob < kMaxNumThreads ? knob : kMaxNumThreads;
  return ParseNumThreadsEnv(std::getenv("DYNAMITE_NUM_THREADS"));
}

/// Persistent worker pool; see file comment for the participation model.
class ThreadPool {
 public:
  /// Spawns `num_spawned` worker threads (0 is valid: Run degenerates to a
  /// plain call of fn(0)).
  explicit ThreadPool(size_t num_spawned) {
    threads_.reserve(num_spawned);
    for (size_t i = 0; i < num_spawned; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i + 1); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& t : threads_) t.join();
  }

  /// Total parallelism of Run(): spawned workers plus the caller.
  size_t num_workers() const { return threads_.size() + 1; }

  /// Invokes fn(w) once for every worker index w in [0, num_workers());
  /// fn(0) runs on the calling thread. Returns when every invocation has
  /// completed. Not reentrant.
  ///
  /// Returns OK if every invocation returned normally; otherwise the first
  /// failure, with the message noting how many workers failed in total.
  /// Every invocation always runs to completion (or to its own failure) —
  /// a failing worker never tears down its siblings mid-chunk.
  Status Run(const std::function<void(size_t)>& fn) {
    {
      MutexLock lock(fail_mu_);
      first_failure_ = Status::OK();
      failure_count_ = 0;
    }
    // Workers inherit the caller's ambient trace id, so pool-side spans
    // dump under the run that issued this Run() — and the sequential retry
    // after a fallback (same calling thread, same scope) keeps the same id.
    const uint64_t trace_id = trace::CurrentTraceId();
    const std::function<void(size_t)> wrapped = [this, &fn,
                                                 trace_id](size_t w) {
      trace::TraceIdScope trace_scope(trace_id);
      DYNAMITE_TRACE_SPAN("pool.run");
      Invoke(fn, w);
    };
    if (threads_.empty()) {
      wrapped(0);
      return TakeFailure();
    }
    {
      MutexLock lock(mu_);
      job_ = &wrapped;
      ++generation_;
      remaining_ = threads_.size();
    }
    wake_.NotifyAll();
    wrapped(0);
    {
      MutexLock lock(mu_);
      while (remaining_ != 0) done_.Wait(lock);
      job_ = nullptr;
    }
    return TakeFailure();
  }

 private:
  /// The noexcept trampoline: no exception crosses a thread boundary.
  void Invoke(const std::function<void(size_t)>& fn, size_t w) noexcept {
    try {
      DYNAMITE_FAILPOINT_THROW("thread_pool.worker");
      fn(w);
    } catch (const failpoint::InjectedError& e) {
      Capture(e.status());
    } catch (const std::bad_alloc&) {
      Capture(Status::ResourceExhausted("worker thread: allocation failed"));
    } catch (const std::exception& e) {
      Capture(Status::Internal(std::string("worker thread: ") + e.what()));
    } catch (...) {
      Capture(Status::Internal("worker thread: unknown exception"));
    }
  }

  void Capture(Status status) {
    MutexLock lock(fail_mu_);
    if (failure_count_++ == 0) first_failure_ = std::move(status);
  }

  Status TakeFailure() {
    MutexLock lock(fail_mu_);
    if (failure_count_ <= 1) return first_failure_;
    return Status(first_failure_.code(),
                  first_failure_.message() + " (and " +
                      std::to_string(failure_count_ - 1) +
                      " more worker failures)");
  }

  void WorkerLoop(size_t worker_index) {
    trace::SetThreadName("pool-worker-" + std::to_string(worker_index));
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(size_t)>* job = nullptr;
      {
        MutexLock lock(mu_);
        while (!shutdown_ && generation_ == seen) wake_.Wait(lock);
        if (shutdown_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(worker_index);
      {
        MutexLock lock(mu_);
        if (--remaining_ == 0) done_.NotifyOne();
      }
    }
  }

  std::vector<std::thread> threads_;

  /// Dispatch protocol. mu_ and fail_mu_ are never held together; the job
  /// pointer is only dereferenced by a worker after observing its
  /// generation bump under mu_, and Run keeps `wrapped` alive until
  /// remaining_ returns to 0 under the same lock.
  Mutex mu_;
  CondVar wake_;
  CondVar done_;
  const std::function<void(size_t)>* job_ DYNAMITE_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ DYNAMITE_GUARDED_BY(mu_) = 0;
  size_t remaining_ DYNAMITE_GUARDED_BY(mu_) = 0;
  bool shutdown_ DYNAMITE_GUARDED_BY(mu_) = false;

  /// Failure capture, deliberately separate from dispatch: Capture runs
  /// inside worker callbacks while Run's caller may be blocked on done_.
  Mutex fail_mu_;
  Status first_failure_ DYNAMITE_GUARDED_BY(fail_mu_);
  size_t failure_count_ DYNAMITE_GUARDED_BY(fail_mu_) = 0;
};

}  // namespace dynamite

#endif  // DYNAMITE_UTIL_THREAD_POOL_H_
