/// \file jobs.hpp
/// The benchmark's workloads, their jobs, the committed reference results,
/// and the code that runs one round of jobs plain or traced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "qts/system.hpp"
#include "trace.hpp"

namespace qtsbench {

/// One verification query.  `build` is the job's set-up: it parses and
/// assembles the transition system on the given manager.
struct Job {
  std::string name;   ///< reference key, e.g. "qrw8" or "reach:ghz16"
  std::string kind;   ///< reach | invar | back | image
  std::size_t steps = 0;
  std::string engine;  ///< engine spec; empty = the default engine
  std::function<qts::TransitionSystem(tdd::Manager&, Tracer*)> build;
};

/// A workload: a job list for one round, drawn from the seed.
struct Workload {
  std::string name;
  /// true: one manager and one memory-only ResultCache serve the whole round
  /// (qtsmc --batch); false: a fresh manager per job.
  bool shared_manager = false;
  std::function<std::vector<Job>(std::uint64_t& rng)> round;
};

/// Every workload the benchmark knows, in BENCHMARK.json order, then the
/// self-tests' own.
const std::vector<Workload>& workloads();

/// What a job computed, as the strings the reference file holds.
struct Outcome {
  std::string dim = "-";
  std::string iterations = "-";
  std::string converged = "-";
  std::string verdict = "-";
  std::string cache = "-";  ///< store | hit | - (no cache)

  [[nodiscard]] std::string text() const;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// Committed references: "<workload>/<job>" → the outcome of each copy.
/// A cached job's reference lists both copies' cache field ("store,hit").
class References {
 public:
  /// Missing or malformed files leave the table empty (every job then
  /// fails as unreferenced); `error` says why.
  static References load(const std::string& path, std::string& error);
  /// nullptr when the job has no reference.
  [[nodiscard]] const Outcome* find(const std::string& workload, const std::string& job,
                                    std::size_t copy) const;

 private:
  std::map<std::string, std::vector<Outcome>> table_;
};

/// Per-layer numbers of one traced job (the RunStats gauges sit in the
/// job's record).
struct LayerSample {
  std::map<std::string, double> self_ms;     ///< span name → self time
  std::map<std::string, std::size_t> calls;  ///< span name → spans recorded
  std::size_t projector_nodes = 0;           ///< node_count of the result projector
  std::size_t basis_nodes = 0;               ///< node_count summed over its basis
  std::size_t table_nodes = 0;               ///< unique-table entries at job end
  LayerCounts counts;
};

/// One executed job.
struct JobRecord {
  std::string name;
  std::size_t copy = 0;      ///< 0 = first copy in the round, 1 = second
  double setup_s = 0.0;      ///< system build + manager/engine construction
  double job_s = 0.0;        ///< the verification call
  bool ok = false;           ///< ran, finished in time and matched its reference
  std::string error;         ///< why not, when !ok
  Outcome outcome;
  qts::RunStats stats;       ///< the job's ExecutionContext counters
  LayerSample layers;        ///< filled when traced
};

/// The RunStats counters a traced job must reproduce exactly:
/// gc_runs, kraus_applications, cache_hits, cache_stores.
bool same_counters(const qts::RunStats& a, const qts::RunStats& b);
std::string counters_text(const qts::RunStats& s);

/// Seconds a single job may run before it counts as failed.
inline constexpr double kJobDeadlineSeconds = 30.0;

/// Run one round's jobs in order.  With a tracer, every job goes through the
/// traced loops and fills `layers`.
std::vector<JobRecord> run_round(const Workload& workload, const std::vector<Job>& jobs,
                                 const References& refs, Tracer* tracer);

}  // namespace qtsbench
