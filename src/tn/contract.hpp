/// \file contract.hpp
/// Tensor-network contraction with correct index bookkeeping, folded left
/// to right in the caller's order.
#pragma once

#include <cstddef>
#include <vector>

#include "common/execution_context.hpp"
#include "tn/tensor.hpp"

namespace qts::tn {

/// Contract `tensors` into a single tensor whose index set is exactly
/// `keep` (sorted).  A shared index is summed out at the merge after which
/// no remaining tensor (and not `keep`) mentions it; indices private to the
/// final accumulator and absent from `keep` are summed at the end.  Records
/// every intermediate's size on `ctx` and honours its deadline (ctx may be
/// null).
///
/// The merge order is the paper's: the accumulator starts as `tensors[0]`
/// and absorbs the others one at a time, left to right.  Callers choose the
/// order by how they list the tensors — circuit order for a monolithic
/// operator, (window, group) order for partition blocks, the ket first for a
/// push through prepared operators.
Tensor contract_network(tdd::Manager& mgr, const std::vector<Tensor>& tensors,
                        const std::vector<tdd::Level>& keep, ExecutionContext* ctx = nullptr);

/// Σ over one index: slice at 0 and 1 and add.
tdd::Edge sum_out(tdd::Manager& mgr, const tdd::Edge& e, tdd::Level level);

}  // namespace qts::tn
