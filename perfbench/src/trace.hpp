/// \file trace.hpp
/// In-memory span recorder and the traced model-checking loops.
///
/// The traced loops re-drive the library's sequential fixpoint, image and
/// result-cache paths through public calls only (ImageComputer::apply_kraus,
/// Subspace::add_states, tdd::record_peak, prepared_roots + Manager::gc,
/// job_key, ResultCache::lookup/store) and record one span around each call.
/// Nothing inside the library is instrumented; the benchmark checks that a
/// traced job reproduces the untraced job's results and RunStats counters.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qts/image.hpp"
#include "qts/result_cache.hpp"

namespace qtsbench {

namespace circ = qts::circ;
namespace tdd = qts::tdd;

/// One timed call into a layer's public function.
struct Span {
  const char* name = "";  ///< "<layer>.<call>", e.g. "qts.subspace.add_states"
  std::uint32_t job = 0;  ///< shared by every span of one job
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  double start_s = 0.0;   ///< seconds since the tracer's epoch
  double end_s = 0.0;
};

/// Spans of the whole run, kept in memory and written out once at exit.
class Tracer {
 public:
  Tracer() : epoch_(clock::now()) {}

  /// Start a new job: later spans carry its id.  Returns the index its first
  /// span will get.
  std::size_t begin_job();

  std::size_t open(const char* name);
  /// Close span `index` (the innermost open one); `rename` replaces the name
  /// when the outcome decides it (a cache lookup that hit or missed).
  void close(std::size_t index, const char* rename = nullptr);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Tab-separated: name, job, parent, start_s, end_s — one span a line.
  void write(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint32_t job_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_, rename_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void rename(const char* name) { rename_ = name; }

 private:
  Tracer* tracer_;
  std::size_t index_;
  const char* rename_ = nullptr;
};

/// Counts the traced loops take at the layer boundaries.
struct LayerCounts {
  std::size_t candidates = 0;         ///< image kets fed to the accumulator
  std::size_t survivors = 0;          ///< kets that extended it
  std::size_t gc_reclaimed = 0;       ///< nodes freed by Manager::gc
  std::size_t live_nodes_max = 0;     ///< most live nodes seen at a boundary
};

/// What a traced model-checking call returns.
struct TracedResult {
  qts::Subspace space;
  std::size_t iterations = 0;
  bool converged = false;
  bool holds = true;  ///< invariant verdict (true for reach/back/image)
};

/// Traced counterparts of reachable_space, check_invariant,
/// backward_reachable (target = the system's initial subspace) and
/// ImageComputer::image(sys, sys.initial).  Same calls, same order.
TracedResult traced_reach(qts::ImageComputer& computer, const qts::TransitionSystem& sys,
                          std::size_t max_iterations, qts::ResultCache* cache, Tracer& tracer,
                          LayerCounts& counts);
TracedResult traced_invariant(qts::ImageComputer& computer, const qts::TransitionSystem& sys,
                              std::size_t max_iterations, qts::ResultCache* cache,
                              Tracer& tracer, LayerCounts& counts);
TracedResult traced_backward(qts::ImageComputer& computer, const qts::TransitionSystem& sys,
                             std::size_t max_iterations, qts::ResultCache* cache,
                             Tracer& tracer, LayerCounts& counts);
TracedResult traced_image(qts::ImageComputer& computer, const qts::TransitionSystem& sys,
                          Tracer& tracer, LayerCounts& counts);

}  // namespace qtsbench
