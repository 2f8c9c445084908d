/// \file main.cpp
/// qtsbench — the qtsimage benchmark driver.
///
///   qtsbench --workload NAME --seed N --seconds S --trace 0|1
///            [--references FILE] [--commit SHA] [--trace-out FILE]
///
/// One process runs one workload as a single-client closed loop: rounds of
/// jobs back to back, each job one verification query on the default
/// engine, each result checked against the committed references.  After
/// one untimed warm-up round, rounds run until S seconds have passed and at
/// least kMinRounds rounds are done (so the tail percentile always has ten
/// jobs of the slowest kind beyond it), but no longer than kMaxSeconds.  A
/// round is always finished, so mixed job lists keep their proportions.
///
/// --trace 0 prints the end-to-end metrics.  --trace 1 alternates plain and
/// traced rounds of the same jobs, checks that the traced loops reproduce
/// the plain results and RunStats counters exactly, and prints the
/// per-layer metrics.  The last stdout line is one JSON object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "jobs.hpp"

namespace {

using namespace qtsbench;

/// Timed rounds per plain run at least, and traced/plain pairs per traced run.
constexpr std::size_t kMinRounds = 11;
constexpr std::size_t kMinTracedPairs = 3;
/// No new round starts after this many seconds, whatever the minimum.
constexpr double kMaxSeconds = 90.0;

/// Whether another round should start.
bool more_rounds(double elapsed_s, double seconds, std::size_t rounds, std::size_t min_rounds) {
  if (elapsed_s >= kMaxSeconds) return false;
  return elapsed_s < seconds || rounds < min_rounds;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string references = std::string(QTSBENCH_SOURCE_DIR) + "/references.txt";
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "qtsbench: " << error << "\n"
            << "usage: qtsbench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "                [--references FILE] [--commit SHA] [--trace-out FILE]\n"
            << "workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--references") {
        a.references = value;
      } else if (flag == "--commit") {
        a.commit = value;
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": '" + value + "'");
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Process high-water RSS in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Metrics in output order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit, note});
  }
  void print_lines() const {
    for (const Row& r : rows_) {
      std::printf("%-34s %16.6f %-6s %s\n", r.name.c_str(), r.value, r.unit.c_str(),
                  r.note.c_str());
    }
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream out;
    out.precision(12);
    out << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << rows_[i].name << "\": {\"value\": "
          << (std::isfinite(rows_[i].value) ? rows_[i].value : 0.0) << ", \"unit\": \""
          << rows_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

/// Jobs attempted and failed over the whole run (warm-up included).
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void count(const std::string& workload, const std::vector<JobRecord>& recs) {
    for (const JobRecord& r : recs) {
      ++attempted;
      if (!r.ok) {
        ++failed;
        std::cerr << "qtsbench: FAILED " << workload << "/" << r.name << " (copy " << r.copy + 1
                  << "): " << r.error << "\n";
      }
    }
  }
};

/// The highest percentile with at least ten jobs beyond it.
struct Tail {
  double value_ms = 0.0;
  double percentile = 100.0;
  std::size_t jobs = 0;
};

Tail tail_of(std::vector<double> ms) {
  Tail t;
  t.jobs = ms.size();
  if (ms.empty()) return t;
  std::sort(ms.begin(), ms.end());
  if (ms.size() < 11) {
    t.value_ms = ms.back();
    return t;
  }
  const std::size_t idx = ms.size() - 11;  // ten jobs strictly beyond
  t.value_ms = ms[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(ms.size());
  return t;
}

void end_to_end(const std::vector<std::vector<JobRecord>>& rounds, const Tally& tally,
                Metrics& m) {
  std::vector<double> setup_s;
  std::vector<double> job_ms;
  double timed_s = 0.0;
  std::size_t completed = 0;
  std::map<std::string, std::vector<double>> by_job;
  for (const auto& round : rounds) {
    double s = 0.0;
    for (const JobRecord& r : round) {
      s += r.setup_s;
      timed_s += r.job_s;
      if (!r.ok) continue;
      ++completed;
      job_ms.push_back(r.job_s * 1e3);
      by_job[r.outcome.cache == "-" ? r.name : r.name + "/" + r.outcome.cache].push_back(
          r.job_s * 1e3);
    }
    setup_s.push_back(s);
  }
  for (const auto& [name, v] : by_job) {
    std::printf("# job %-22s %4zu runs, min %.3f / median %.3f / max %.3f ms\n", name.c_str(),
                v.size(), *std::min_element(v.begin(), v.end()), median(v),
                *std::max_element(v.begin(), v.end()));
  }
  const Tail tail = tail_of(job_ms);
  char note[128];
  std::snprintf(note, sizeof note, "(p%.1f of %zu jobs)", tail.percentile, tail.jobs);
  m.add("setup_s", median(setup_s), "s", "(median set-up of one round's jobs)");
  m.add("job_ms_p50", median(job_ms), "ms");
  m.add("job_ms_tail", tail.value_ms, "ms", note);
  m.add("jobs_per_s", ratio(static_cast<double>(completed), timed_s), "1/s");
  m.add("success_rate",
        ratio(static_cast<double>(tally.attempted - tally.failed),
              static_cast<double>(tally.attempted)),
        "ratio", "(error rate " + std::to_string(tally.failed) + "/" +
                     std::to_string(tally.attempted) + ")");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
}

template <class F>
double sum_of(const std::vector<const JobRecord*>& recs, F f) {
  double total = 0.0;
  for (const JobRecord* r : recs) total += static_cast<double>(f(*r));
  return total;
}

/// Mean per traced job of one per-job number.
template <class F>
double mean_of(const std::vector<const JobRecord*>& recs, F f) {
  return ratio(sum_of(recs, f), static_cast<double>(recs.size()));
}

template <class F>
double max_of(const std::vector<const JobRecord*>& recs, F f) {
  double best = 0.0;
  for (const JobRecord* r : recs) best = std::max(best, static_cast<double>(f(*r)));
  return best;
}

double self_ms(const JobRecord& r, const char* name) {
  const auto it = r.layers.self_ms.find(name);
  return it == r.layers.self_ms.end() ? 0.0 : it->second;
}

std::size_t calls(const JobRecord& r, const char* name) {
  const auto it = r.layers.calls.find(name);
  return it == r.layers.calls.end() ? 0 : it->second;
}

/// Per-job-name split of the traced jobs (the paper-images rows).
void print_job_split(const std::vector<const JobRecord*>& traced) {
  std::map<std::string, std::vector<const JobRecord*>> by_job;
  for (const JobRecord* r : traced) by_job[r->name].push_back(r);
  for (const auto& [name, recs] : by_job) {
    const double job = mean_of(recs, [](const JobRecord& r) { return r.job_s * 1e3; });
    const double plan =
        mean_of(recs, [](const JobRecord& r) { return r.stats.plan_seconds * 1e3; });
    std::printf(
        "# traced %-14s %3zu jobs: %.3f ms/job; plan %.3f ms (%.1f%%), prepare+apply %.3f ms, "
        "apply %.3f ms, add_states %.3f ms, gc %.3f ms; peak %.0f nodes\n",
        name.c_str(), recs.size(), job, plan, 100.0 * ratio(plan, job),
        mean_of(recs, [](const JobRecord& r) { return self_ms(r, "qts.image.prepare_apply"); }),
        mean_of(recs, [](const JobRecord& r) { return self_ms(r, "qts.image.apply"); }),
        mean_of(recs, [](const JobRecord& r) { return self_ms(r, "qts.subspace.add_states"); }),
        mean_of(recs, [](const JobRecord& r) { return self_ms(r, "tdd.gc"); }),
        max_of(recs, [](const JobRecord& r) { return r.stats.peak_nodes; }));
  }
}

void per_layer(const std::vector<const JobRecord*>& t, double speedup, double overhead_pct,
               Metrics& m) {
  using R = const JobRecord&;
  const auto self = [&t](const char* name) {
    return mean_of(t, [name](R r) { return self_ms(r, name); });
  };
  const auto hit_ratio = [&t](auto hits, auto misses) {
    const double h = sum_of(t, hits);
    return ratio(h, h + sum_of(t, misses));
  };
  m.add("circuit.qasm_parse_ms", self("circuit.qasm_parse"), "ms");
  m.add("circuit.system_build_ms", self("circuit.system_build"), "ms");
  m.add("tn.plan_ms", mean_of(t, [](R r) { return r.stats.plan_seconds * 1e3; }), "ms",
        "(inside qts.image.prepare_apply_ms)");
  m.add("tn.plans_computed", mean_of(t, [](R r) { return r.stats.plans_computed; }), "count");
  m.add("tn.plan_max_width", max_of(t, [](R r) { return r.stats.plan_max_width; }), "count");
  m.add("qts.image.prepare_apply_ms", self("qts.image.prepare_apply"), "ms");
  m.add("qts.image.apply_ms", self("qts.image.apply"), "ms");
  m.add("qts.image.kraus_applications",
        mean_of(t, [](R r) { return r.stats.kraus_applications; }), "count");
  m.add("qts.image.us_per_application",
        1e3 * ratio(sum_of(t, [](R r) { return self_ms(r, "qts.image.apply"); }),
                    sum_of(t, [](R r) { return calls(r, "qts.image.apply"); })),
        "us");
  m.add("qts.subspace.add_states_ms", self("qts.subspace.add_states"), "ms");
  m.add("qts.subspace.candidates", mean_of(t, [](R r) { return r.layers.counts.candidates; }),
        "count");
  m.add("qts.subspace.survivors", mean_of(t, [](R r) { return r.layers.counts.survivors; }),
        "count");
  m.add("qts.subspace.survival_ratio",
        ratio(sum_of(t, [](R r) { return r.layers.counts.survivors; }),
              sum_of(t, [](R r) { return r.layers.counts.candidates; })),
        "ratio");
  m.add("qts.subspace.projector_nodes", max_of(t, [](R r) { return r.layers.projector_nodes; }),
        "count");
  m.add("qts.subspace.basis_nodes", max_of(t, [](R r) { return r.layers.basis_nodes; }),
        "count");
  m.add("tdd.gc_ms", self("tdd.gc"), "ms");
  m.add("tdd.gc_runs", mean_of(t, [](R r) { return r.stats.gc_runs; }), "count");
  m.add("tdd.gc_reclaimed_nodes", mean_of(t, [](R r) { return r.layers.counts.gc_reclaimed; }),
        "count");
  m.add("tdd.peak_gauge_ms", self("tdd.peak_gauge"), "ms");
  m.add("tdd.peak_nodes", max_of(t, [](R r) { return r.stats.peak_nodes; }), "count");
  m.add("tdd.live_nodes_max", max_of(t, [](R r) { return r.layers.counts.live_nodes_max; }),
        "count");
  m.add("tdd.table_nodes", max_of(t, [](R r) { return r.layers.table_nodes; }), "count");
  m.add("tdd.unique_hit_ratio",
        hit_ratio([](R r) { return r.stats.unique_hits; },
                  [](R r) { return r.stats.unique_misses; }),
        "ratio");
  m.add("tdd.add_hit_ratio",
        hit_ratio([](R r) { return r.stats.add_hits; }, [](R r) { return r.stats.add_misses; }),
        "ratio");
  m.add("tdd.cont_hit_ratio",
        hit_ratio([](R r) { return r.stats.cont_hits; },
                  [](R r) { return r.stats.cont_misses; }),
        "ratio");
  m.add("qts.fixpoint.iterations", mean_of(t, [](R r) { return r.stats.fixpoint_iterations; }),
        "count");
  m.add("qts.fixpoint.frontier_kets", mean_of(t, [](R r) { return r.stats.frontier_kets; }),
        "count");
  m.add("qts.fixpoint.other_ms", self("job"), "ms", "(job wall time minus child spans)");
  m.add("qts.result_cache.key_ms", self("qts.result_cache.key"), "ms");
  m.add("qts.result_cache.lookup_hit_ms", self("qts.result_cache.lookup_hit"), "ms");
  m.add("qts.result_cache.lookup_miss_ms", self("qts.result_cache.lookup_miss"), "ms");
  m.add("qts.result_cache.store_ms", self("qts.result_cache.store"), "ms");
  m.add("qts.result_cache.hit_ratio",
        hit_ratio([](R r) { return r.stats.cache_hits; },
                  [](R r) { return r.stats.cache_misses; }),
        "ratio");
  m.add("qts.parallel.speedup", speedup, "x", "(qrw8 job: sequential / parallel)");
  m.add("trace.overhead_pct", overhead_pct, "%", "(traced vs plain job_ms_p50)");
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// The qrw-reach job on the default engine against parallel:<min(4,nproc)>:
/// sequential median time over parallel median time, three alternating runs
/// each.  Both sides are checked against the qrw-reach reference.
double parallel_speedup(std::uint64_t seed, const References& refs, Tally& tally) {
  const Workload& qrw = *find_workload("qrw-reach");
  std::uint64_t rng = seed;
  const std::vector<Job> sequential = qrw.round(rng);
  std::vector<Job> parallel = sequential;
  const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (Job& j : parallel) j.engine = "parallel:" + std::to_string(threads);
  std::vector<double> seq_s;
  std::vector<double> par_s;
  for (int rep = 0; rep < 3; ++rep) {
    for (int side = 0; side < 2; ++side) {
      const bool par = (side == 0) == (rep % 2 == 1);
      const auto recs = run_round(qrw, par ? parallel : sequential, refs, nullptr);
      tally.count(qrw.name + "[" + (par ? parallel.front().engine : "default") + "]", recs);
      for (const JobRecord& r : recs) (par ? par_s : seq_s).push_back(r.job_s);
    }
  }
  return ratio(median(seq_s), median(par_s));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) usage("unknown workload '" + args.workload + "'");
  const std::string build_type = QTSBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "qtsbench: refusing to report timings from a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  std::printf("# qtsbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("# nproc=%u cpu=%s\n", std::thread::hardware_concurrency(), cpu_model().c_str());
  std::printf("# compiler=%s build=%s commit=%s\n", QTSBENCH_COMPILER, build_type.c_str(),
              args.commit.c_str());

  std::string ref_error;
  const References refs = References::load(args.references, ref_error);
  if (!ref_error.empty()) std::cerr << "qtsbench: " << ref_error << "\n";

  Tally tally;
  std::uint64_t rng = args.seed;
  // Warm-up round: checked and counted, not timed.
  tally.count(workload->name, run_round(*workload, workload->round(rng), refs, nullptr));

  Metrics metrics;
  const qts::WallTimer clock;
  if (args.trace == 0) {
    std::vector<std::vector<JobRecord>> rounds;
    do {
      rounds.push_back(run_round(*workload, workload->round(rng), refs, nullptr));
      tally.count(workload->name, rounds.back());
    } while (more_rounds(clock.seconds(), args.seconds, rounds.size(), kMinRounds));
    end_to_end(rounds, tally, metrics);
  } else {
    Tracer tracer;
    std::vector<std::vector<JobRecord>> traced_rounds;
    std::vector<double> plain_ms;
    std::vector<double> traced_ms;
    std::size_t pairs = 0;
    do {
      const std::vector<Job> jobs = workload->round(rng);
      // Alternate which side runs first so drift hits both alike.
      std::vector<JobRecord> plain;
      std::vector<JobRecord> traced;
      if (pairs % 2 == 0) {
        plain = run_round(*workload, jobs, refs, nullptr);
        traced = run_round(*workload, jobs, refs, &tracer);
      } else {
        traced = run_round(*workload, jobs, refs, &tracer);
        plain = run_round(*workload, jobs, refs, nullptr);
      }
      ++pairs;
      for (std::size_t i = 0; i < traced.size(); ++i) {
        JobRecord& t = traced[i];
        const JobRecord& p = plain[i];
        if (t.ok && p.ok && !(t.outcome == p.outcome && same_counters(t.stats, p.stats))) {
          t.ok = false;
          t.error = "traced run diverged from the plain run: {" + t.outcome.text() + " " +
                    counters_text(t.stats) + "} vs {" + p.outcome.text() + " " +
                    counters_text(p.stats) + "}";
        }
        if (p.ok) plain_ms.push_back(p.job_s * 1e3);
        if (t.ok) traced_ms.push_back(t.job_s * 1e3);
      }
      tally.count(workload->name, plain);
      tally.count(workload->name + "[traced]", traced);
      traced_rounds.push_back(std::move(traced));
    } while (more_rounds(clock.seconds(), args.seconds, pairs, kMinTracedPairs));

    std::vector<const JobRecord*> traced_ok;
    for (const auto& round : traced_rounds) {
      for (const JobRecord& r : round) {
        if (r.ok) traced_ok.push_back(&r);
      }
    }
    print_job_split(traced_ok);
    const double speedup = parallel_speedup(args.seed, refs, tally);
    const double overhead =
        100.0 * (ratio(median(traced_ms), median(plain_ms)) - 1.0);
    per_layer(traced_ok, speedup, overhead, metrics);
    if (!args.trace_out.empty()) {
      tracer.write(args.trace_out);
      std::printf("# spans: %zu written to %s\n", tracer.spans().size(), args.trace_out.c_str());
    }
  }

  metrics.print_lines();
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}
