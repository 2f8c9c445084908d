#include "jobs.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "qts/backward.hpp"
#include "qts/engine.hpp"
#include "qts/reachability.hpp"
#include "qts/workloads.hpp"

namespace qtsbench {

using qts::TransitionSystem;

namespace {

/// splitmix64: the benchmark's only source of seeded choices.
std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Where the benchmark's inputs live: resolved from its own source
/// location, never from the working directory.
std::string input_path(const std::string& file) {
  return std::string(QTSBENCH_REPO_ROOT) + "/examples/" + file;
}

using Builder = std::function<TransitionSystem(tdd::Manager&)>;

/// A job on one of the library's system generators.
Job library_job(std::string name, std::string kind, std::size_t steps, Builder make) {
  return {std::move(name), std::move(kind), steps, "",
          [make = std::move(make)](tdd::Manager& mgr, Tracer*) { return make(mgr); }};
}

/// A reachability job on a QASM file from the repository's examples: the
/// circuit is the single Kraus operator and |0…0⟩ spans the initial
/// subspace, exactly as `qtsmc reach FILE` builds it.
Job qasm_job(std::string name, std::string kind, std::size_t steps, std::string file) {
  return {std::move(name), std::move(kind), steps, "",
          [file = std::move(file)](tdd::Manager& mgr, Tracer* tracer) {
            circ::Circuit circuit(0);
            {
              const Scope s(tracer, "circuit.qasm_parse");
              const std::string path = input_path(file);
              std::ifstream in(path);
              if (!in) throw qts::InvalidArgument("cannot open input " + path);
              std::ostringstream text;
              text << in.rdbuf();
              circuit = circ::from_qasm(text.str());
            }
            const std::uint32_t n = circuit.num_qubits();
            return TransitionSystem{n,
                                    qts::Subspace::from_states(mgr, n, {qts::ket_basis(mgr, n, 0)}),
                                    {qts::QuantumOperation{"step", {circuit}}}};
          }};
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> w;
  w.push_back({"qrw-reach", false, [](std::uint64_t& rng) {
                 // Noisy walk on a 128-cycle: the seed picks the start.
                 const std::uint64_t position = next_random(rng) % 128;
                 return std::vector<Job>{library_job(
                     "qrw8", "reach", 64, [position](tdd::Manager& mgr) {
                       return qts::make_qrw_system(mgr, 8, 0.1, true, position);
                     })};
               }});
  w.push_back({"ghz16-reach", false, [](std::uint64_t&) {
                 return std::vector<Job>{qasm_job("ghz16", "reach", 8, "ghz16.qasm")};
               }});
  w.push_back({"paper-images", false, [](std::uint64_t&) {
                 return std::vector<Job>{
                     library_job("GroverD21", "image", 0,
                                 [](tdd::Manager& m) {
                                   return qts::make_grover_decomposed_system(m, 21);
                                 }),
                     library_job("QFT30", "image", 0,
                                 [](tdd::Manager& m) { return qts::make_qft_system(m, 30); }),
                     library_job("BV100", "image", 0,
                                 [](tdd::Manager& m) { return qts::make_bv_system(m, 100); }),
                     library_job("GHZ100", "image", 0,
                                 [](tdd::Manager& m) { return qts::make_ghz_system(m, 100); }),
                     library_job("QRW30", "image", 0, [](tdd::Manager& m) {
                       return qts::make_qrw_system(m, 30, 0.1, true, 0);
                     })};
               }});
  w.push_back({"batch-cached", true, [](std::uint64_t& rng) {
                 // Six reach/back/invar jobs whose storing copies cost 5-30 ms
                 // cold and whose hits cost about 1 ms, each twice in seeded
                 // order, between the two copies of ghz16.  ghz16 leaves ~200k
                 // nodes in the shared manager and every later job runs several
                 // times slower; opening each round with it keeps that share
                 // the same in every round, so no statistic depends on where a
                 // shuffle happened to put it.
                 const auto qrw = [](std::uint32_t n) {
                   return [n](tdd::Manager& m) {
                     return qts::make_qrw_system(m, n, 0.1, true, 0);
                   };
                 };
                 const auto grover_d = [](std::uint32_t n) {
                   return [n](tdd::Manager& m) {
                     return qts::make_grover_decomposed_system(m, n);
                   };
                 };
                 const std::vector<Job> distinct = {
                     library_job("reach:qrw5", "reach", 64, qrw(5)),
                     library_job("reach:qrw6", "reach", 64, qrw(6)),
                     library_job("back:qrw5", "back", 64, qrw(5)),
                     library_job("back:qrw6", "back", 64, qrw(6)),
                     library_job("invar:groverD19", "invar", 64, grover_d(19)),
                     library_job("invar:groverD21", "invar", 64, grover_d(21)),
                 };
                 // The earlier copy of a job is the one that stores.
                 std::vector<Job> shuffled = distinct;
                 shuffled.insert(shuffled.end(), distinct.begin(), distinct.end());
                 for (std::size_t i = shuffled.size(); i > 1; --i) {
                   std::swap(shuffled[i - 1], shuffled[next_random(rng) % i]);
                 }
                 const Job ghz16 = qasm_job("reach:ghz16", "reach", 8, "ghz16.qasm");
                 std::vector<Job> jobs{ghz16};
                 jobs.insert(jobs.end(), shuffled.begin(), shuffled.end());
                 jobs.push_back(ghz16);
                 return jobs;
               }});
  // Not a benchmark workload: the self-tests' small traced-vs-plain check.
  w.push_back({"selftest-qrw6", false, [](std::uint64_t& rng) {
                 const std::uint64_t position = next_random(rng) % 32;
                 return std::vector<Job>{library_job(
                     "qrw6", "reach", 64, [position](tdd::Manager& mgr) {
                       return qts::make_qrw_system(mgr, 6, 0.1, true, position);
                     })};
               }});
  return w;
}

const char* yes_no(bool b) { return b ? "yes" : "no"; }

/// Unbinds the job's context from the manager before the context dies.
struct Unbind {
  explicit Unbind(tdd::Manager& m) : mgr(m) {}
  tdd::Manager& mgr;
  ~Unbind() { mgr.bind_context(nullptr); }
  Unbind(const Unbind&) = delete;
  Unbind& operator=(const Unbind&) = delete;
};

std::size_t basis_nodes(const qts::Subspace& s) {
  std::size_t total = 0;
  for (const auto& v : s.basis()) total += tdd::node_count(v);
  return total;
}

/// The job through the library's public entry points.
Outcome run_plain(const Job& job, qts::ImageComputer& engine, const TransitionSystem& sys,
                  qts::ResultCache* cache) {
  Outcome out;
  if (job.kind == "reach") {
    const auto r = qts::reachable_space(engine, sys, job.steps, nullptr, nullptr, cache);
    out.dim = std::to_string(r.space.dim());
    out.iterations = std::to_string(r.iterations);
    out.converged = yes_no(r.converged);
  } else if (job.kind == "back") {
    const auto r =
        qts::backward_reachable(engine, sys, sys.initial, job.steps, nullptr, nullptr, cache);
    out.dim = std::to_string(r.space.dim());
    out.iterations = std::to_string(r.iterations);
    out.converged = yes_no(r.converged);
  } else if (job.kind == "invar") {
    const auto r =
        qts::check_invariant(engine, sys, sys.initial, job.steps, nullptr, nullptr, cache);
    out.iterations = std::to_string(r.iterations);
    out.converged = yes_no(r.converged);
    out.verdict = r.holds ? "holds" : "violated";
  } else if (job.kind == "image") {
    out.dim = std::to_string(engine.image(sys, sys.initial).dim());
    out.iterations = "1";
  } else {
    throw qts::InvalidArgument("unknown job kind " + job.kind);
  }
  return out;
}

/// The same job through the traced loops; `space` receives the result.
Outcome run_traced(const Job& job, qts::ImageComputer& engine, const TransitionSystem& sys,
                   qts::ResultCache* cache, Tracer& tracer, LayerSample& layers,
                   qts::Subspace& space) {
  TracedResult r{qts::Subspace(engine.manager(), sys.num_qubits)};
  if (job.kind == "reach") {
    r = traced_reach(engine, sys, job.steps, cache, tracer, layers.counts);
  } else if (job.kind == "back") {
    r = traced_backward(engine, sys, job.steps, cache, tracer, layers.counts);
  } else if (job.kind == "invar") {
    r = traced_invariant(engine, sys, job.steps, cache, tracer, layers.counts);
  } else if (job.kind == "image") {
    r = traced_image(engine, sys, tracer, layers.counts);
  } else {
    throw qts::InvalidArgument("unknown job kind " + job.kind);
  }
  Outcome out;
  if (job.kind == "invar") {
    out.verdict = r.holds ? "holds" : "violated";
  } else {
    out.dim = std::to_string(r.space.dim());
  }
  out.iterations = std::to_string(r.iterations);
  if (job.kind != "image") out.converged = yes_no(r.converged);
  space = std::move(r.space);
  return out;
}

/// Self time and call count per span name over spans [first, end).
void split_spans(const std::vector<Span>& spans, std::size_t first, LayerSample& layers) {
  std::vector<double> child(spans.size() - first, 0.0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= static_cast<std::int64_t>(first)) {
      child[static_cast<std::size_t>(s.parent) - first] += s.end_s - s.start_s;
    }
  }
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    layers.self_ms[s.name] += (s.end_s - s.start_s - child[i - first]) * 1e3;
    layers.calls[s.name] += 1;
  }
}

JobRecord run_job(const Workload& workload, const Job& job, std::size_t copy,
                  tdd::Manager* shared, qts::ResultCache* cache, const References& refs,
                  Tracer* tracer) {
  JobRecord rec;
  rec.name = job.name;
  rec.copy = copy;
  const std::size_t first_span = tracer != nullptr ? tracer->begin_job() : 0;
  try {
    const qts::WallTimer setup;
    std::unique_ptr<tdd::Manager> own;
    if (shared == nullptr) own = std::make_unique<tdd::Manager>();
    tdd::Manager& mgr = shared != nullptr ? *shared : *own;
    qts::ExecutionContext ctx;
    ctx.set_deadline(qts::Deadline::after(kJobDeadlineSeconds));
    mgr.bind_context(&ctx);
    const Unbind unbind(mgr);
    const TransitionSystem sys = [&] {
      const Scope s(tracer, "circuit.system_build");
      return job.build(mgr, tracer);
    }();
    const auto engine = job.engine.empty() ? qts::make_engine(mgr, qts::EngineSpec{}, &ctx)
                                           : qts::make_engine(mgr, job.engine, &ctx);
    rec.setup_s = setup.seconds();

    qts::Subspace space(mgr, sys.num_qubits);
    const qts::WallTimer timer;
    if (tracer != nullptr) {
      const Scope s(tracer, "job");
      rec.outcome = run_traced(job, *engine, sys, cache, *tracer, rec.layers, space);
    } else {
      rec.outcome = run_plain(job, *engine, sys, cache);
    }
    rec.job_s = timer.seconds();

    rec.stats = ctx.stats();
    if (cache != nullptr) {
      rec.outcome.cache = rec.stats.cache_hits > 0   ? "hit"
                          : rec.stats.cache_stores > 0 ? "store"
                                                       : "miss";
    }
    if (tracer != nullptr) {
      LayerSample& l = rec.layers;
      split_spans(tracer->spans(), first_span, l);
      l.projector_nodes = tdd::node_count(space.projector());
      l.basis_nodes = basis_nodes(space);
      l.table_nodes = mgr.storage_stats().table_nodes;
      l.counts.live_nodes_max = std::max(l.counts.live_nodes_max, mgr.live_nodes());
    }

    const Outcome* ref = refs.find(workload.name, job.name, copy);
    if (ref == nullptr) {
      rec.error = "no committed reference for this job (result {" + rec.outcome.text() + "})";
    } else if (!(rec.outcome == *ref)) {
      rec.error = "result {" + rec.outcome.text() + "} differs from reference {" + ref->text() +
                  "}";
    } else {
      rec.ok = true;
    }
  } catch (const qts::DeadlineExceeded&) {
    rec.error = "passed its " + std::to_string(static_cast<int>(kJobDeadlineSeconds)) +
                " s deadline";
  } catch (const std::exception& e) {
    rec.error = std::string("threw: ") + e.what();
  }
  return rec;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

bool same_counters(const qts::RunStats& a, const qts::RunStats& b) {
  return a.gc_runs == b.gc_runs && a.kraus_applications == b.kraus_applications &&
         a.cache_hits == b.cache_hits && a.cache_stores == b.cache_stores;
}

std::string counters_text(const qts::RunStats& s) {
  return "gc_runs=" + std::to_string(s.gc_runs) +
         " kraus_applications=" + std::to_string(s.kraus_applications) +
         " cache_hits=" + std::to_string(s.cache_hits) +
         " cache_stores=" + std::to_string(s.cache_stores);
}

std::string Outcome::text() const {
  return "dim=" + dim + " iterations=" + iterations + " converged=" + converged +
         " verdict=" + verdict + " cache=" + cache;
}

References References::load(const std::string& path, std::string& error) {
  References refs;
  std::ifstream in(path);
  if (!in) {
    error = "cannot open reference file " + path;
    return refs;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, job, cache;
    Outcome o;
    if (!(fields >> workload >> job >> o.dim >> o.iterations >> o.converged >> o.verdict >>
          cache)) {
      error = path + ":" + std::to_string(lineno) + ": expected 7 columns";
      return References{};
    }
    // "store,hit" → copy 0 stores, copy 1 hits; "-" → the one copy.
    std::vector<Outcome> copies;
    std::istringstream parts(cache);
    for (std::string part; std::getline(parts, part, ',');) {
      o.cache = part;
      copies.push_back(o);
    }
    refs.table_[workload + "/" + job] = copies;
  }
  return refs;
}

const Outcome* References::find(const std::string& workload, const std::string& job,
                                std::size_t copy) const {
  const auto it = table_.find(workload + "/" + job);
  if (it == table_.end()) return nullptr;
  const std::vector<Outcome>& copies = it->second;
  return copies.empty() ? nullptr : &copies[std::min(copy, copies.size() - 1)];
}

std::vector<JobRecord> run_round(const Workload& workload, const std::vector<Job>& jobs,
                                 const References& refs, Tracer* tracer) {
  std::vector<JobRecord> out;
  out.reserve(jobs.size());
  const qts::WallTimer round_setup;
  std::unique_ptr<tdd::Manager> shared;
  std::unique_ptr<qts::ResultCache> cache;
  if (workload.shared_manager) {
    shared = std::make_unique<tdd::Manager>();
    cache = std::make_unique<qts::ResultCache>();
  }
  const double shared_setup_s = workload.shared_manager ? round_setup.seconds() : 0.0;
  std::map<std::string, std::size_t> copies;
  for (const Job& job : jobs) {
    out.push_back(run_job(workload, job, copies[job.name]++, shared.get(), cache.get(), refs,
                          tracer));
  }
  if (!out.empty()) out.front().setup_s += shared_setup_s;
  return out;
}

}  // namespace qtsbench
