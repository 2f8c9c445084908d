#include "tn/contract.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace qts::tn {

using tdd::Edge;
using tdd::Level;

Edge sum_out(tdd::Manager& mgr, const Edge& e, Level level) {
  return mgr.add(mgr.slice(e, level, 0), mgr.slice(e, level, 1));
}

namespace {

/// Sum out whatever the accumulator still carries outside `keep`, check the
/// result's index set is a subset of `keep`, and widen it to `keep`.  The
/// accumulator may legitimately lack some `keep` indices: a wire that is
/// only ever a control / diagonal target reuses one index for input and
/// output, and a tensor constant in an index simply omits its node.
Tensor finalize(tdd::Manager& mgr, Tensor acc, const std::vector<Level>& keep,
                ExecutionContext* ctx) {
  for (Level l : std::vector<Level>(acc.indices)) {
    if (!std::binary_search(keep.begin(), keep.end(), l)) {
      acc.edge = sum_out(mgr, acc.edge, l);
      acc.indices = minus_indices(acc.indices, {l});
      tdd::record_peak(ctx, acc.edge);
    }
  }
  for (Level l : acc.indices) {
    require(std::binary_search(keep.begin(), keep.end(), l),
            "contract_network: result carries an index outside `keep`");
  }
  acc.indices = keep;
  return acc;
}

}  // namespace

Tensor contract_network(tdd::Manager& mgr, const std::vector<Tensor>& tensors,
                        const std::vector<Level>& keep, ExecutionContext* ctx) {
  require(!tensors.empty(), "contract_network needs at least one tensor");
  // remaining[l] = number of NOT-yet-merged tensors whose index set mentions
  // l, plus one virtual use if l must be kept.
  std::unordered_map<Level, std::size_t> remaining;
  for (const auto& t : tensors) {
    for (Level l : t.indices) remaining[l] += 1;
  }
  for (Level l : keep) remaining[l] += 1;

  Tensor acc = tensors.front();
  for (Level l : acc.indices) remaining[l] -= 1;
  tdd::record_peak(ctx, acc.edge);

  for (std::size_t i = 1; i < tensors.size(); ++i) {
    if (ctx != nullptr) ctx->check_deadline();
    const Tensor& t = tensors[i];
    for (Level l : t.indices) remaining[l] -= 1;

    // Sum out the indices of acc ∪ t that no one else mentions any more.
    const auto shared_all = union_indices(acc.indices, t.indices);
    std::vector<Level> gamma;
    for (Level l : shared_all) {
      if (remaining[l] == 0) gamma.push_back(l);
    }
    acc.edge = mgr.contract(acc.edge, t.edge, gamma);
    acc.indices = minus_indices(shared_all, gamma);
    tdd::record_peak(ctx, acc.edge);
  }
  return finalize(mgr, std::move(acc), keep, ctx);
}

}  // namespace qts::tn
