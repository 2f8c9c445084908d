#include "qts/simulate.hpp"

#include <algorithm>

#include "qts/states.hpp"

namespace qts {

PushPlan make_push_plan(const tn::CircuitNetwork& net) {
  PushPlan plan;
  plan.state = state_levels(net.num_qubits);
  plan.keep = net.outputs;
  std::sort(plan.keep.begin(), plan.keep.end());
  plan.keep.erase(std::unique(plan.keep.begin(), plan.keep.end()), plan.keep.end());
  plan.rename = tn::output_to_state_map(net);
  plan.factor = net.factor;
  return plan;
}

tdd::Edge push_through(tdd::Manager& mgr, const PushPlan& plan, std::span<const tn::Tensor> ops,
                       const tdd::Edge& ket, ExecutionContext* ctx) {
  tdd::Edge result = ket;
  if (!ops.empty()) {
    std::vector<tn::Tensor> tensors;
    tensors.reserve(ops.size() + 1);
    tensors.push_back(tn::Tensor{ket, plan.state});
    tensors.insert(tensors.end(), ops.begin(), ops.end());
    const tn::Tensor out = tn::contract_network(mgr, tensors, plan.keep, ctx);
    result = mgr.rename(out.edge, plan.rename);
  }
  return mgr.scale(result, plan.factor);
}

tdd::Edge apply_circuit_tdd(tdd::Manager& mgr, const circ::Circuit& circuit,
                            const tdd::Edge& ket, ExecutionContext* ctx) {
  const tn::CircuitNetwork net = tn::build_network(mgr, circuit);
  return push_through(mgr, make_push_plan(net), net.tensors, ket, ctx);
}

cplx amplitude(tdd::Manager& mgr, const circ::Circuit& circuit, std::uint64_t basis_index) {
  const std::uint32_t n = circuit.num_qubits();
  const tdd::Edge out = apply_circuit_tdd(mgr, circuit, ket_basis(mgr, n, 0));
  return inner(mgr, ket_basis(mgr, n, basis_index), out, n);
}

}  // namespace qts
