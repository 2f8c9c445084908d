#include "qts/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace qts {

using tdd::Edge;

/// One worker: a slot into the shared manager, a private context view and a
/// private inner engine (built on the shared manager).  The engine's
/// prepared-operator cache keys on Circuit addresses and its operator TDDs
/// live in the shared manager, deduplicated against the siblings' by
/// hash-consing.
struct ParallelImage::Worker {
  ExecutionContext ctx;
  tdd::Manager::ThreadSlot* slot = nullptr;
  std::unique_ptr<ImageComputer> engine;
};

ParallelImage::ParallelImage(tdd::Manager& mgr, std::size_t threads, EngineSpec inner,
                             ExecutionContext* ctx)
    : ImageComputer(mgr, ctx), inner_(std::move(inner)) {
  require(inner_.method != "parallel", "parallel engine cannot nest itself");
  require(inner_.method != "fallback",
          "parallel engine: the inner engine cannot be a fallback chain; put parallel "
          "inside the chain elements instead");
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    auto w = std::make_unique<Worker>();
    w->slot = &mgr.create_slot(&w->ctx);
    w->engine = make_engine(mgr, inner_, &w->ctx);
    workers_.push_back(std::move(w));
  }
}

ParallelImage::~ParallelImage() = default;

std::size_t ParallelImage::shard_count(std::size_t tasks) const {
  if (tasks == 0) return 0;
  if (tasks <= kInlineTasks) return 1;  // one shard runs inline
  // Floor division: every active worker averages at least kMinTasksPerShard
  // tasks, so per-round fork/join overhead stays amortised.
  const std::size_t by_load = tasks / kMinTasksPerShard;
  return std::min(workers_.size(), by_load);
}

std::vector<Edge> ParallelImage::image_kets(std::span<const QuantumOperation> ops,
                                            std::span<const Edge> kets, std::uint32_t n) {
  ScopedTimer timer(ctx_);

  // Fix the task list in image_kets' order (op-major, Kraus-major,
  // ket-minor) before any worker starts.  Tasks are at Kraus×ket grain, so
  // a narrow frontier meeting a wide Kraus family still keeps the pool busy
  // (one ket × 16 noise circuits is 16 tasks).
  struct Task {
    const circ::Circuit* kraus;
    const Edge* ket;
  };
  std::vector<Task> tasks;
  for (const auto& op : ops) {
    for (const auto& kraus : op.kraus) {
      for (const auto& ket : kets) tasks.push_back({&kraus, &ket});
    }
  }
  // Results land straight in the shared manager — no per-worker pools, no
  // ket shipping: the input kets are immutable shared data while workers
  // run, and a result edge is valid in the parent's hands the moment its
  // worker stores it.  Each result goes to its task's slot, so the output is
  // in task order whichever worker computed what.
  std::vector<Edge> results(tasks.size());
  if (tasks.empty()) return results;
  std::atomic<std::size_t> cursor{0};

  // Fresh context views each round: workers share this round's deadline and
  // cancel flag and start with zeroed stats (last round's were merged).
  // Assignment keeps every Worker::ctx address stable, which the worker's
  // slot and engine hold pointers to.
  for (auto& w : workers_) w->ctx = ctx_->worker_view();

  // Shared first-error slot: written by whichever worker fails first, read
  // by the parent only after the joins below.  Annotated so clang's
  // thread-safety analysis proves every access holds the mutex.
  struct ErrorSlot {
    Mutex mutex;
    std::exception_ptr error GUARDED_BY(mutex);
    bool cancel_induced GUARDED_BY(mutex) = false;
  } first;

  auto run_worker = [&](std::size_t idx) {
    Worker& w = *workers_[idx];
    // Route this thread's manager traffic through the worker's slot: its
    // operation caches, its allocation free-list, its stats/deadline sink.
    const tdd::Manager::SlotGuard guard(*w.slot);
    try {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks.size()) break;
        results[i] = w.engine->apply_kraus(*tasks[i].kraus, *tasks[i].ket, n);
      }
    } catch (...) {
      // If the shared flag was already set when this worker failed, the stop
      // originated elsewhere (an external request_cancel, or a sibling that
      // recorded the real error first); remember the distinction so the
      // parent only re-arms stops this round itself initiated.
      const bool cancel_induced = w.ctx.cancel_requested();
      {
        const MutexLock lock(first.mutex);
        if (!first.error) {
          first.error = std::current_exception();
          first.cancel_induced = cancel_induced;
        }
      }
      // Stop the siblings at their next deadline poll — including polls deep
      // inside Manager contractions via the slot tick.
      w.ctx.request_cancel();
    }
  };

  // Worker state (slot, inner engine, prepared caches) persists across
  // rounds; the threads themselves are per-round, which is noise next to the
  // Kraus applications they run.  A single-worker round skips the spawn and
  // runs inline on the calling thread — same worker state, same results.
  const std::size_t active = shard_count(tasks.size());
  if (active == 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(active);
    for (std::size_t i = 0; i < active; ++i) pool.emplace_back(run_worker, i);
    for (auto& t : pool) t.join();
  }

  // Joining the threads above is the happens-before edge that lets the
  // parent read worker stats — and lets a driver GC sweep the arena — safely.
  for (const auto& w : workers_) ctx_->join_worker(w->ctx);
  std::exception_ptr first_error;
  bool first_error_cancel_induced = false;
  {
    const MutexLock lock(first.mutex);
    first_error = first.error;
    first_error_cancel_induced = first.cancel_induced;
  }
  if (first_error) {
    // Re-arm a stop THIS round's failing worker initiated (its deadline or
    // error), so later rounds are not poisoned, and hand the original error
    // to the caller.  A cancellation that was already pending when the first
    // worker failed — i.e. requested externally — is deliberately left set:
    // it must keep stopping the computation until its owner handles it.
    if (!first_error_cancel_induced) ctx_->clear_cancel();
    std::rethrow_exception(first_error);
  }
  return results;
}

void ParallelImage::clear_prepared() {
  ImageComputer::clear_prepared();
  for (const auto& w : workers_) w->engine->clear_prepared();
}

std::vector<Edge> ParallelImage::prepared_roots() const {
  std::vector<Edge> roots = ImageComputer::prepared_roots();
  for (const auto& w : workers_) {
    const auto worker_roots = w->engine->prepared_roots();
    roots.insert(roots.end(), worker_roots.begin(), worker_roots.end());
  }
  return roots;
}

std::unique_ptr<ImageComputer::Prepared> ParallelImage::prepare(const circ::Circuit&) {
  throw InternalError("ParallelImage::prepare: the parallel engine shards whole "
                      "Kraus×ket loops; per-circuit preparation lives in its workers");
}

Edge ParallelImage::apply(const Prepared&, const Edge&, std::uint32_t) {
  throw InternalError("ParallelImage::apply: the parallel engine shards whole "
                      "Kraus×ket loops; per-circuit application lives in its workers");
}

}  // namespace qts
