#include "qts/image.hpp"

#include <utility>

#include "tn/partition.hpp"

namespace qts {

using tdd::Edge;

Subspace ImageComputer::image(const QuantumOperation& op, const Subspace& s) {
  const std::uint32_t n = s.num_qubits();
  const std::vector<Edge> kets = image_kets({&op, 1}, s.basis(), n);
  // image_kets timed the imaging; this adds the assembly on top.
  ScopedTimer timer(ctx_);
  Subspace out(mgr_, n);
  for (const Edge& phi : kets) {
    out.add_state(phi);
    tdd::record_peak(ctx_, out.projector());
  }
  return out;
}

std::vector<Edge> ImageComputer::image_kets(std::span<const QuantumOperation> ops,
                                            std::span<const Edge> kets, std::uint32_t n) {
  ScopedTimer timer(ctx_);
  std::size_t kraus_total = 0;
  for (const auto& op : ops) kraus_total += op.kraus.size();
  std::vector<Edge> out;
  out.reserve(kraus_total * kets.size());
  for (const auto& op : ops) {
    for (const auto& kraus : op.kraus) {
      for (const auto& b : kets) out.push_back(apply_kraus(kraus, b, n));
    }
  }
  return out;
}

Edge ImageComputer::apply_kraus(const circ::Circuit& kraus, const Edge& ket,
                                std::uint32_t num_qubits) {
  ctx_->check_deadline();
  const Edge phi = apply(prepared_for(kraus), ket, num_qubits);
  tdd::record_peak(ctx_, phi);
  ++ctx_->stats().kraus_applications;
  return phi;
}

Subspace ImageComputer::image(const TransitionSystem& sys, const Subspace& s) {
  // image(op, s) accounts its own time; the ScopedTimer here adds the join
  // cost on top of the per-op time.
  Subspace out(mgr_, s.num_qubits());
  for (const auto& op : sys.operations) {
    const Subspace part = image(op, s);
    ScopedTimer timer(ctx_);
    out.join(part);
    tdd::record_peak(ctx_, out.projector());
  }
  return out;
}

std::vector<tdd::Edge> ImageComputer::prepared_roots() const {
  std::vector<tdd::Edge> out;
  for (const auto& [circuit, prep] : prepared_) {
    (void)circuit;
    prep->collect_roots(out);
  }
  return out;
}

const ImageComputer::Prepared& ImageComputer::prepared_for(const circ::Circuit& kraus) {
  auto it = prepared_.find(&kraus);
  if (it == prepared_.end()) {
    it = prepared_.emplace(&kraus, prepare(kraus)).first;
  }
  return *it->second;
}

// ---------------------------------------------------------------------------
// PartitionImage

struct PartitionImage::Operator : ImageComputer::Prepared {
  PushPlan push;
  Terms terms;  // one empty term for a circuit without gate tensors

  void collect_roots(std::vector<tdd::Edge>& out) const override {
    for (const auto& term : terms) {
      for (const auto& t : term) out.push_back(t.edge);
    }
  }
};

std::unique_ptr<ImageComputer::Prepared> PartitionImage::prepare(const circ::Circuit& kraus) {
  auto op = std::make_unique<Operator>();
  const tn::CircuitNetwork net = tn::build_network(mgr_, kraus);
  op->terms = net.tensors.empty() ? Terms(1) : pre_contract(net);
  op->push = make_push_plan(net);
  return op;
}

Edge PartitionImage::apply(const Prepared& prep, const Edge& ket, std::uint32_t) {
  const auto& op = static_cast<const Operator&>(prep);
  if (op.terms.size() == 1) return push_through(mgr_, op.push, op.terms.front(), ket, ctx_);
  // cont(ψ, ϕ) = Σ_i cont(ψ, ϕ_i): each term is contracted with the state
  // independently and the (already renamed) results are accumulated.
  Edge acc = mgr_.zero();
  for (const auto& term : op.terms) {
    ctx_->check_deadline();
    acc = mgr_.add(acc, push_through(mgr_, op.push, term, ket, ctx_));
    tdd::record_peak(ctx_, acc);
  }
  return acc;
}

PartitionImage::Terms BasicImage::pre_contract(const tn::CircuitNetwork& net) {
  return {{tn::contract_network(mgr_, net.tensors, net.external_indices(), ctx_)}};
}

PartitionImage::Terms AdditionImage::pre_contract(const tn::CircuitNetwork& net) {
  const auto part = tn::addition_partition(mgr_, net, k_);
  const auto keep = net.external_indices();
  Terms terms;
  for (const auto& slice : part.slices) {
    ctx_->check_deadline();
    terms.push_back({tn::contract_network(mgr_, slice.tensors, keep, ctx_)});
  }
  return terms;
}

PartitionImage::Terms ContractionImage::pre_contract(const tn::CircuitNetwork& net) {
  Terms terms(1);
  for (auto& b : tn::contraction_partition(mgr_, net, k1_, k2_, ctx_)) {
    terms.front().push_back(std::move(b.tensor));
  }
  return terms;
}

}  // namespace qts
