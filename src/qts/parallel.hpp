/// \file parallel.hpp
/// The parallel image engine: shard the Kraus×ket loop of image_kets across
/// worker threads sharing ONE concurrent TDD manager.
///
/// `ImageComputer::image_kets` is embarrassingly parallel at the Kraus×ket
/// grain — every `apply_kraus` is independent.  Since the tdd::Manager is
/// thread-safe (sharded unique table, arena node storage, per-thread
/// operation caches), ParallelImage runs a pool of workers directly on the
/// caller's manager:
///
///   1. the task list (one task per operation × Kraus circuit × ket, in
///      image_kets' op-major, Kraus-major, ket-minor order) is fixed before
///      any worker starts;
///   2. workers claim tasks from an atomic cursor and apply the Kraus
///      circuit in place — input kets, prepared operators and result kets
///      all live in the one shared manager, so nothing is copied between
///      node pools;
///   3. each result lands in its task's slot, so the returned kets are in
///      task order — bit-for-bit independent of the worker count and of
///      which worker computed what.
///
/// The engine only images: the FixpointDriver's one Gram-Schmidt pass
/// (Subspace::add_states) filters the kets against the accumulator on the
/// caller's thread afterwards, exactly as for the sequential engines.
///
/// Each worker owns a Manager::ThreadSlot (operation caches, allocation
/// free-list, stats sink) installed via SlotGuard for the duration of a
/// round, a private inner engine (any registered sequential engine; default
/// contraction) whose prepared-operator cache lives in the shared manager,
/// and a private ExecutionContext view.  The views share the parent's
/// deadline and cancellation flag: a DeadlineExceeded inside one worker's
/// contraction cancels the siblings cooperatively, and the parent rethrows
/// after the join.  Worker stats are merged into the parent (counters
/// summed, peak = max).
///
/// Garbage collection is not the engine's business: with one shared manager
/// the driver's quiescent-point policy (manual threshold or adaptive
/// growth-rate trigger) covers worker allocations too.  Between fork/join
/// rounds the manager is quiescent, which is exactly when the FixpointDriver
/// collects.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "qts/engine.hpp"

namespace qts {

class ParallelImage final : public ImageComputer {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency (at least 1).
  /// `inner` names the sequential engine each worker runs; it must not be
  /// "parallel" itself.  `mgr` is shared by the parent and every worker.
  ParallelImage(tdd::Manager& mgr, std::size_t threads, EngineSpec inner,
                ExecutionContext* ctx = nullptr);
  ~ParallelImage() override;

  [[nodiscard]] std::string name() const override { return "parallel"; }
  [[nodiscard]] std::size_t threads() const { return workers_.size(); }
  [[nodiscard]] const EngineSpec& inner_spec() const { return inner_; }

  /// Adaptive shard sizing.  A round's parallelism is derived from its task
  /// count, not fixed at one-shard-per-worker: at or below kInlineTasks the
  /// whole round runs inline on the caller's thread (a thread spawn
  /// dominates such tiny rounds), and above it floor(tasks /
  /// kMinTasksPerShard) workers, capped at the worker count, claim tasks —
  /// so an active worker averages at least kMinTasksPerShard tasks and
  /// idle-worker overhead stays off narrow frontiers.  Determinism is
  /// untouched either way: results land in task order.
  static constexpr std::size_t kInlineTasks = 4;
  static constexpr std::size_t kMinTasksPerShard = 4;

  /// Shards (= active workers) a round of `tasks` tasks is cut into; 0 for
  /// an empty round.
  [[nodiscard]] std::size_t shard_count(std::size_t tasks) const override;

  /// One sharded imaging round over the Kraus×ket task list (see the file
  /// comment); returns the image kets in task order.
  std::vector<tdd::Edge> image_kets(std::span<const QuantumOperation> ops,
                                    std::span<const tdd::Edge> kets, std::uint32_t n) override;

  [[nodiscard]] bool shards_frontier() const override { return true; }

  /// The prepared-operator caches live in the workers' inner engines (keyed
  /// on Circuit addresses, like any sequential engine's); forward the drop.
  void clear_prepared() override;

  /// Everything the workers' prepared caches keep alive in the SHARED
  /// manager, plus the base engine's own cache.  Driver GCs must see these
  /// or they would sweep live operators out from under the workers.
  [[nodiscard]] std::vector<tdd::Edge> prepared_roots() const override;

 protected:
  // The parallel engine shards whole image_kets calls; per-circuit preparation
  // and application live in the workers' inner engines.  Reaching these
  // indicates a library bug.
  std::unique_ptr<Prepared> prepare(const circ::Circuit& kraus) override;
  tdd::Edge apply(const Prepared& prep, const tdd::Edge& ket, std::uint32_t n) override;

 private:
  struct Worker;

  EngineSpec inner_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace qts
