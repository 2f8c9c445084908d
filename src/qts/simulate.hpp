/// \file simulate.hpp
/// TDD-based strong simulation of circuits on kets — the state is pushed
/// gate-by-gate through the circuit's tensor network, never materialising
/// an operator TDD.  This scales to hundreds of qubits whenever the
/// intermediate states stay compact (GHZ, BV, stabiliser-like circuits).
///
/// The push itself (push_through) is shared with the image engines, which
/// push kets through pre-contracted parts of a Kraus circuit instead of its
/// gates.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/execution_context.hpp"
#include "tdd/manager.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/contract.hpp"

namespace qts {

/// Everything about a push that depends only on the circuit, not the ket:
/// the canonical state levels, the sorted duplicate-free keep set, the
/// output→state rename map and the circuit's global factor.  The image
/// engines compute it once per Kraus circuit, so the hot path never re-sorts
/// the keep set or rebuilds the rename map.
struct PushPlan {
  std::vector<tdd::Level> state;                          ///< state_levels(n)
  std::vector<tdd::Level> keep;                           ///< net outputs, sorted unique
  std::vector<std::pair<tdd::Level, tdd::Level>> rename;  ///< output→state map
  cplx factor{1.0, 0.0};                                  ///< net.factor
};

/// The push plan of a circuit's network.
PushPlan make_push_plan(const tn::CircuitNetwork& net);

/// Contract |ket⟩ (on the state levels) against `ops` — the circuit's gate
/// tensors or any pre-contracted parts of them — ket first, then rename the
/// outputs back to the state levels and apply the circuit factor.  Empty
/// `ops` is the identity circuit.  `ctx` may be null.
tdd::Edge push_through(tdd::Manager& mgr, const PushPlan& plan, std::span<const tn::Tensor> ops,
                       const tdd::Edge& ket, ExecutionContext* ctx = nullptr);

/// |out⟩ = C |ket⟩ with |ket⟩ on the canonical state levels; the result is
/// renamed back onto the state levels.  `ctx` may be null.
tdd::Edge apply_circuit_tdd(tdd::Manager& mgr, const circ::Circuit& circuit,
                            const tdd::Edge& ket, ExecutionContext* ctx = nullptr);

/// Probability amplitude ⟨basis|C|0…0⟩ without expanding the state densely.
cplx amplitude(tdd::Manager& mgr, const circ::Circuit& circuit, std::uint64_t basis_index);

}  // namespace qts
