#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <unordered_set>

#include "common/error.hpp"
#include "qts/backward.hpp"

namespace qtsbench {

using qts::ImageComputer;
using qts::Subspace;
using qts::TransitionSystem;
using tdd::Edge;

std::size_t Tracer::begin_job() {
  ++job_;
  return spans_.size();
}

std::size_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.job = job_;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_s = std::chrono::duration<double>(clock::now() - epoch_).count();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index, const char* rename) {
  Span& s = spans_[index];
  s.end_s = std::chrono::duration<double>(clock::now() - epoch_).count();
  if (rename != nullptr) s.name = rename;
  // Scopes nest, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "name\tjob\tparent\tstart_s\tend_s\n";
  out.precision(9);
  for (const Span& s : spans_) {
    out << s.name << '\t' << s.job << '\t' << s.parent << '\t' << s.start_s << '\t' << s.end_s
        << '\n';
  }
}

namespace {

void note_live(const tdd::Manager& mgr, LayerCounts& counts) {
  counts.live_nodes_max = std::max(counts.live_nodes_max, mgr.live_nodes());
}

/// apply_kraus on every (operation, Kraus circuit, ket) in
/// ImageComputer::image_kets' order.  The first application of a Kraus
/// circuit also prepares it (operator contraction and order planning), so it
/// gets its own span name.
std::vector<Edge> traced_image_kets(ImageComputer& computer, const TransitionSystem& sys,
                                    const std::vector<Edge>& kets,
                                    std::unordered_set<const circ::Circuit*>& prepared,
                                    Tracer& tracer) {
  std::vector<Edge> out;
  for (const auto& op : sys.operations) {
    for (const auto& kraus : op.kraus) {
      for (const Edge& ket : kets) {
        const bool first = prepared.insert(&kraus).second;
        const Scope s(&tracer, first ? "qts.image.prepare_apply" : "qts.image.apply");
        out.push_back(computer.apply_kraus(kraus, ket, sys.num_qubits));
      }
    }
  }
  return out;
}

/// FixpointDriver::run's sequential path (no oracle, no audits), with a span
/// around every layer call.  `invariant`, when set, is the early-exit
/// predicate of check_invariant (a violation clears `holds`) and an extra GC
/// root.
TracedResult traced_fixpoint(ImageComputer& computer, const TransitionSystem& sys,
                             std::size_t max_iterations, const Subspace* invariant,
                             Tracer& tracer, LayerCounts& counts) {
  sys.validate();
  qts::ExecutionContext& ctx = computer.context();
  tdd::Manager& mgr = computer.manager();
  const std::uint32_t n = sys.num_qubits;
  if (ctx.audit_every() != 0) {
    throw qts::InvalidArgument("the traced fixpoint does not run structural audits");
  }

  Subspace acc = sys.initial;
  std::vector<Edge> frontier = sys.initial.basis();
  std::unordered_set<const circ::Circuit*> prepared;
  std::size_t iters = 0;
  const std::size_t full_dim_cap = n >= 20 ? ~std::size_t{0} : (std::size_t{1} << n);
  std::size_t gc_baseline = mgr.live_nodes();

  while (iters < max_iterations && acc.dim() < full_dim_cap) {
    ++iters;
    ctx.begin_iteration(iters);
    ctx.check_deadline();

    const std::size_t live = mgr.live_nodes();
    counts.live_nodes_max = std::max(counts.live_nodes_max, live);
    bool collect = false;
    if (ctx.gc_threshold_nodes() != 0) {
      collect = live > ctx.gc_threshold_nodes();
    } else if (ctx.adaptive_gc()) {
      collect = live >= ctx.adaptive_gc_floor() &&
                static_cast<double>(live) >=
                    ctx.adaptive_gc_growth() * static_cast<double>(gc_baseline);
    }
    if (collect) {
      const Scope s(&tracer, "tdd.gc");
      std::vector<Edge> roots = computer.prepared_roots();
      const auto keep = [&roots](const Subspace& sub) {
        roots.push_back(sub.projector());
        roots.insert(roots.end(), sub.basis().begin(), sub.basis().end());
      };
      keep(sys.initial);
      keep(acc);
      roots.insert(roots.end(), frontier.begin(), frontier.end());
      if (invariant != nullptr) keep(*invariant);
      counts.gc_reclaimed += mgr.gc(roots);
      gc_baseline = mgr.live_nodes();
    }

    if (computer.shards_frontier()) {
      throw qts::InvalidArgument("the traced fixpoint drives the sequential path only; engine '" +
                                 computer.name() + "' claims frontier iterations");
    }
    const std::vector<Edge> candidates =
        traced_image_kets(computer, sys, frontier, prepared, tracer);
    std::vector<Edge> survivors;
    {
      const Scope s(&tracer, "qts.subspace.add_states");
      survivors = acc.add_states(candidates);
    }
    {
      const Scope s(&tracer, "tdd.peak_gauge");
      tdd::record_peak(&ctx, acc.projector());
    }
    counts.candidates += candidates.size();
    counts.survivors += survivors.size();

    qts::RunStats& st = ctx.stats();
    st.fixpoint_iterations += 1;
    st.frontier_kets += frontier.size();
    st.frontier_shards += 1;
    st.frontier_survivors += survivors.size();
    st.max_frontier_dim = std::max(st.max_frontier_dim, frontier.size());

    if (invariant != nullptr) {
      for (const Edge& v : survivors) {
        if (!invariant->contains(v)) return {std::move(acc), iters, true, false};
      }
    }
    if (survivors.empty()) return {std::move(acc), iters, true, true};
    frontier = std::move(survivors);
  }
  note_live(mgr, counts);
  const bool saturated = acc.dim() >= full_dim_cap;
  return {std::move(acc), iters, saturated, true};
}

/// Key + lookup, as the cached entry points do them.  Returns the hit.
std::optional<qts::ResultCache::Entry> traced_lookup(ImageComputer& computer,
                                                     const TransitionSystem& sys,
                                                     const char* property,
                                                     const Edge& property_projector,
                                                     std::size_t max_iterations,
                                                     qts::ResultCache& cache, qts::JobKey& key,
                                                     Tracer& tracer) {
  {
    const Scope s(&tracer, "qts.result_cache.key");
    key = qts::job_key(sys, property, property_projector, max_iterations);
  }
  std::optional<qts::ResultCache::Entry> hit;
  {
    Scope s(&tracer, "qts.result_cache.lookup_miss");
    hit = cache.lookup(key, computer.manager(), sys.num_qubits, property);
    if (hit) s.rename("qts.result_cache.lookup_hit");
  }
  qts::RunStats& st = computer.context().stats();
  if (hit) {
    st.cache_hits += 1;
  } else {
    st.cache_misses += 1;
  }
  return hit;
}

void traced_store(ImageComputer& computer, qts::ResultCache& cache, const qts::JobKey& key,
                  const char* property, const Subspace& space, std::size_t iterations,
                  bool converged, bool holds, Tracer& tracer) {
  const Scope s(&tracer, "qts.result_cache.store");
  cache.store(key, property, space, iterations, converged, holds);
  computer.context().stats().cache_stores += 1;
}

}  // namespace

TracedResult traced_reach(ImageComputer& computer, const TransitionSystem& sys,
                          std::size_t max_iterations, qts::ResultCache* cache, Tracer& tracer,
                          LayerCounts& counts) {
  qts::JobKey key;
  if (cache != nullptr) {
    if (auto hit = traced_lookup(computer, sys, "reach", computer.manager().zero(),
                                 max_iterations, *cache, key, tracer)) {
      return {std::move(hit->space), hit->iterations, hit->converged, true};
    }
  }
  TracedResult r = traced_fixpoint(computer, sys, max_iterations, nullptr, tracer, counts);
  if (cache != nullptr) {
    traced_store(computer, *cache, key, "reach", r.space, r.iterations, r.converged, true, tracer);
  }
  return r;
}

TracedResult traced_invariant(ImageComputer& computer, const TransitionSystem& sys,
                              std::size_t max_iterations, qts::ResultCache* cache,
                              Tracer& tracer, LayerCounts& counts) {
  sys.validate();
  const Subspace& invariant = sys.initial;
  qts::JobKey key;
  if (cache != nullptr) {
    if (auto hit = traced_lookup(computer, sys, "invar", invariant.projector(), max_iterations,
                                 *cache, key, tracer)) {
      return {std::move(hit->space), hit->iterations, hit->converged, hit->holds};
    }
  }
  for (const Edge& v : sys.initial.basis()) {
    if (!invariant.contains(v)) {
      if (cache != nullptr) {
        traced_store(computer, *cache, key, "invar", sys.initial, 0, true, false, tracer);
      }
      return {sys.initial, 0, true, false};
    }
  }
  TracedResult r = traced_fixpoint(computer, sys, max_iterations, &invariant, tracer, counts);
  if (cache != nullptr) {
    traced_store(computer, *cache, key, "invar", r.space, r.iterations, r.converged, r.holds,
                 tracer);
  }
  return r;
}

TracedResult traced_backward(ImageComputer& computer, const TransitionSystem& sys,
                             std::size_t max_iterations, qts::ResultCache* cache,
                             Tracer& tracer, LayerCounts& counts) {
  TransitionSystem back = qts::adjoint_system(sys);
  back.initial = sys.initial;
  TracedResult r = traced_reach(computer, back, max_iterations, cache, tracer, counts);
  computer.clear_prepared();
  return r;
}

TracedResult traced_image(ImageComputer& computer, const TransitionSystem& sys, Tracer& tracer,
                          LayerCounts& counts) {
  qts::ExecutionContext& ctx = computer.context();
  tdd::Manager& mgr = computer.manager();
  const std::uint32_t n = sys.num_qubits;
  std::unordered_set<const circ::Circuit*> prepared;
  Subspace out(mgr, n);
  for (const auto& op : sys.operations) {
    Subspace part(mgr, n);
    for (const auto& kraus : op.kraus) {
      for (const Edge& b : sys.initial.basis()) {
        Edge phi;
        {
          const bool first = prepared.insert(&kraus).second;
          const Scope s(&tracer, first ? "qts.image.prepare_apply" : "qts.image.apply");
          phi = computer.apply_kraus(kraus, b, n);
        }
        {
          const Scope s(&tracer, "qts.subspace.add_states");
          if (part.add_state(phi)) ++counts.survivors;
        }
        ++counts.candidates;
        const Scope s(&tracer, "tdd.peak_gauge");
        tdd::record_peak(&ctx, part.projector());
      }
    }
    {
      const Scope s(&tracer, "qts.subspace.add_states");
      out.join(part);
    }
    const Scope s(&tracer, "tdd.peak_gauge");
    tdd::record_peak(&ctx, out.projector());
  }
  note_live(mgr, counts);
  return {std::move(out), 1, true, true};
}

}  // namespace qtsbench
